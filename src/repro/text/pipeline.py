"""Full text-recognition pipeline over a frame stream.

Detection (two-pass shaded-region analysis) -> refinement (min-intensity
filter + 4x interpolation) -> recognition (projection segmentation +
pattern matching) -> semantic parsing, producing timed overlay events the
Cobra metadata store ingests.

The pass is streaming and chunk-driven: a :class:`TextScan` is shown each
``(start, uint8[c, H, W, 3])`` chunk of a stream once and keeps only the
per-frame shade flags and bright-pixel statistics plus the bottom strips of
frames that can belong to an overlay ("processing each frame for text
recognition is not computationally feasible" — §5.4 — and neither is
buffering a race). The scan does not pull frames itself, so it can ride as
the observer of the visual pass (``extract_visual_features``) and an ingest
decodes its frames once; :func:`extract_overlays` drives the same scan over
a stream of its own when no such pass exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.text.detection import TextDetector, TextDetectorConfig, shaded_region
from repro.text.overlay import OverlayEvent, parse_overlay
from repro.text.recognition import recognize_region
from repro.video.frames import FrameStream

__all__ = ["RecognizedOverlay", "TextScan", "extract_overlays"]


@dataclass
class RecognizedOverlay:
    """One recognized overlay occurrence."""

    start_time: float
    end_time: float
    words: list[str]
    event: OverlayEvent

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class TextScan:
    """The text detector's view of one pass over a stream's frames.

    Args:
        fps: frame rate of the observed stream (overlay times).
        config: text-detector tunables.
        frames_per_segment: how many frames of each detected segment feed
            the min-intensity refinement.
    """

    def __init__(
        self,
        fps: float,
        config: TextDetectorConfig | None = None,
        frames_per_segment: int = 5,
    ):
        self.fps = fps
        self.frames_per_segment = frames_per_segment
        self._detector = TextDetector(config)
        self._flags: list[bool] = []
        self._stats: list[tuple[float, float]] = []
        self._strips: dict[int, np.ndarray] = {}
        self._overlays: list[RecognizedOverlay] | None = None

    def observe(self, start: int, frames: np.ndarray) -> None:
        """Take in the next chunk (chunks must arrive in stream order)."""
        config = self._detector.config
        for index, frame in enumerate(frames, start):
            has_shade = self._detector.frame_has_shade(frame)
            self._flags.append(has_shade)
            if has_shade:
                stats = self._detector.bright_statistics(frame)
                # only frames with character pixels can end up in a segment
                if stats[0] >= config.min_bright_fraction:
                    self._strips[index] = shaded_region(
                        frame, config.bottom_fraction
                    ).copy()
            else:
                stats = (0.0, 0.0)
            self._stats.append(stats)

    def overlays(self) -> list[RecognizedOverlay]:
        """Refine, recognize and parse every overlay segment observed.

        Recognition runs once; the kept strips are released afterwards.
        """
        if self._overlays is None:
            self._overlays = self._recognize()
            self._strips.clear()
        return self._overlays

    def _recognize(self) -> list[RecognizedOverlay]:
        out: list[RecognizedOverlay] = []
        segments = _runs_to_segments(self._detector, self._flags, self._stats)
        for start_frame, end_frame in segments:
            step = max((end_frame - start_frame) // self.frames_per_segment, 1)
            picks = range(start_frame, end_frame, step)[: self.frames_per_segment]
            matches = recognize_region([self._strips[i] for i in picks])
            words = [m.word for m in matches]
            if not words:
                continue
            out.append(
                RecognizedOverlay(
                    start_time=start_frame / self.fps,
                    end_time=end_frame / self.fps,
                    words=words,
                    event=parse_overlay(words),
                )
            )
        return out


def extract_overlays(
    stream: FrameStream,
    config: TextDetectorConfig | None = None,
    frames_per_segment: int = 5,
) -> list[RecognizedOverlay]:
    """Detect, refine, recognize and parse every overlay in a stream.

    Args:
        stream: frame stream (iterated exactly once).
        config: text-detector tunables.
        frames_per_segment: how many frames of each detected segment feed
            the min-intensity refinement.
    """
    scan = TextScan(stream.fps, config, frames_per_segment)
    for start, frames in stream.chunks():
        scan.observe(start, frames)
    return scan.overlays()


def _runs_to_segments(
    detector: TextDetector,
    flags: list[bool],
    stats: list[tuple[float, float]],
) -> list[tuple[int, int]]:
    """Apply the duration + bright-pixel criteria to shaded runs.

    A naturally dark scene also reads as "shaded", so a shaded run can be
    much longer than the overlay inside it; within each run we therefore
    keep only the sub-runs whose frames actually contain bright (character)
    pixels before applying the duration and variance criteria.
    """
    config = detector.config
    bright = [
        flag and stats[k][0] >= config.min_bright_fraction
        for k, flag in enumerate(flags)
    ]
    out: list[tuple[int, int]] = []
    i = 0
    n = len(bright)
    while i < n:
        if not bright[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and bright[j + 1]:
            j += 1
        length = j + 1 - i
        if length >= config.min_duration_frames:
            fractions = [stats[k][0] for k in range(i, j + 1)]
            variances = [stats[k][1] for k in range(i, j + 1)]
            if (
                float(np.mean(fractions)) <= config.max_bright_fraction
                and float(np.mean(variances)) >= config.min_bright_variance
            ):
                out.append((i, j + 1))
        i = j + 1
    return out
