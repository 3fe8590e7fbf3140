"""Start-semaphore detection (§5.3).

"The semaphore is described as a rectangular shape, because the distance
between red circles is small and they touch each other. This rectangular
shape is increasing its horizontal dimension in regular time intervals ...
The rectangular region is detected by filtering the red component of the
RGB color representation of a still image."

Detection is therefore two-stage: a per-frame red-rectangle score, and a
temporal check that the rectangle widens in regular steps. The red filter
runs over a chunk of frames at once; the temporal check is a small
per-frame tail whose window is carried from chunk to chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.frames import channel_planes

__all__ = ["red_rectangle", "red_rectangles", "semaphore_score", "SemaphoreTracker"]


@dataclass(frozen=True)
class RedRectangle:
    """Bounding box of the dominant red region plus its fill ratio."""

    top: int
    bottom: int
    left: int
    right: int
    fill: float

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def height(self) -> int:
        return self.bottom - self.top


def red_rectangles(
    planes: np.ndarray,
    red_min: int = 150,
    other_max: int = 90,
) -> list[RedRectangle | None]:
    """Dominant red region of every frame of a chunk, given its channel
    planes ``uint8[3, c, H, W]`` (:func:`repro.video.frames.channel_planes`).

    The R-component filter and its row/column occupancy run over the whole
    chunk; only frames that do hold a red region (rare outside the start)
    get a bounding box. An entry is None when its frame has fewer than 20
    red pixels.
    """
    red, green, blue = planes
    mask = (red >= red_min) & (green <= other_max) & (blue <= other_max)
    counts = np.count_nonzero(mask, axis=(1, 2))
    out: list[RedRectangle | None] = [None] * mask.shape[0]
    for index in np.flatnonzero(counts >= 20):
        rows = np.flatnonzero(mask[index].any(axis=1))
        cols = np.flatnonzero(mask[index].any(axis=0))
        top, bottom = int(rows[0]), int(rows[-1]) + 1
        left, right = int(cols[0]), int(cols[-1]) + 1
        # every red pixel lies inside its own bounding box
        fill = float(counts[index] / max((bottom - top) * (right - left), 1))
        out[index] = RedRectangle(top, bottom, left, right, fill)
    return out


def red_rectangle(
    frame: np.ndarray,
    red_min: int = 150,
    other_max: int = 90,
) -> RedRectangle | None:
    """Find the dominant red region by filtering the R component.

    Returns None when fewer than 20 red pixels exist.
    """
    return red_rectangles(channel_planes(frame[None]), red_min, other_max)[0]


def semaphore_score(frame: np.ndarray) -> float:
    """Per-frame semaphore likelihood in [0, 1].

    High when a well-filled, wide-and-short red rectangle is present — the
    touching-red-circles signature.
    """
    rect = red_rectangle(frame)
    if rect is None or rect.height == 0:
        return 0.0
    aspect = rect.width / rect.height
    aspect_score = float(np.clip((aspect - 1.0) / 4.0, 0.0, 1.0))
    return float(np.clip(rect.fill, 0.0, 1.0) * aspect_score)


class SemaphoreTracker:
    """Temporal semaphore verification.

    Feeds per-frame rectangles and scores how well the width grows "in
    regular time intervals, i.e. after a constant number of video frames".
    """

    def __init__(self, history: int = 30):
        self.history = history
        self._widths: list[int] = []

    def update(self, frame: np.ndarray) -> float:
        """Consume one frame; return the current start-light score."""
        return float(self.update_chunk(channel_planes(frame[None]))[0])

    def update_chunk(self, planes: np.ndarray) -> np.ndarray:
        """Consume a chunk's ``uint8[3, c, H, W]`` planes; return c scores.

        The tracked window lives on the tracker, so consecutive chunks of
        any sizes score like one frame-by-frame pass.
        """
        scores = np.zeros(planes.shape[1])
        for index, rect in enumerate(red_rectangles(planes)):
            width = rect.width if rect is not None and rect.fill > 0.4 else 0
            self._widths.append(width)
            if len(self._widths) > self.history:
                self._widths.pop(0)
            scores[index] = self.score()
        return scores

    def score(self) -> float:
        """Regular-growth score over the tracked window, in [0, 1]."""
        widths = np.asarray(self._widths)
        present = widths > 0
        if present.sum() < 4:
            return 0.0
        active = widths[present]
        steps = np.diff(active)
        growing = steps >= 0
        if growing.size == 0:
            return 0.0
        growth_ratio = float(growing.mean())
        increments = steps[steps > 0]
        if increments.size >= 2:
            regularity = 1.0 - float(
                np.std(increments) / (np.mean(increments) + 1e-9)
            )
            regularity = max(regularity, 0.0)
        elif increments.size == 1:
            regularity = 0.5
        else:
            regularity = 0.0
        presence = float(present.mean())
        return float(
            np.clip(0.4 * presence + 0.3 * growth_ratio + 0.3 * regularity, 0.0, 1.0)
        )

    def reset(self) -> None:
        self._widths.clear()
