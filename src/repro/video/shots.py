"""Shot boundary detection (§5.3 pre-processing).

"A simple histogram based algorithm is modified in the sense that we
calculate the histogram difference among several consecutive frames. This
algorithm resulted in the accuracy of over 90%."

The multi-frame modification makes the detector robust to flashes and fast
motion: a frame is a cut only when its histogram differs strongly from the
*median histogram difference* of a small trailing window, not merely from
its direct predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.video.frames import FrameStream
from repro.video.histogram import color_histogram, histogram_difference

__all__ = ["ShotDetector", "Shot"]


@dataclass(frozen=True)
class Shot:
    """One detected shot: frame interval [start, end) and its times."""

    start_frame: int
    end_frame: int
    start_time: float
    end_time: float

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame


class ShotDetector:
    """Streaming multi-frame histogram-difference cut detector.

    Args:
        threshold: a cut fires when the current inter-frame difference
            exceeds ``threshold`` AND is ``ratio`` times the median of the
            trailing window (adaptivity suppresses motion-induced noise).
        window: number of trailing differences forming the baseline.
        ratio: multiple of the window median required for a cut.
        bins_per_channel: histogram resolution.
        min_shot_frames: cuts closer than this to the previous cut are
            ignored (debounce).
    """

    def __init__(
        self,
        threshold: float = 0.35,
        window: int = 5,
        ratio: float = 3.0,
        bins_per_channel: int = 8,
        min_shot_frames: int = 3,
    ):
        self.threshold = threshold
        self.window = window
        self.ratio = ratio
        self.bins = bins_per_channel
        self.min_shot_frames = min_shot_frames

    def differences(self, frames: Iterable[np.ndarray]) -> np.ndarray:
        """Inter-frame histogram differences (d[i] between frame i-1 and i)."""
        previous = None
        out = [0.0]
        first = True
        for frame in frames:
            histogram = color_histogram(frame, self.bins)
            if first:
                first = False
            else:
                out.append(histogram_difference(previous, histogram))
            previous = histogram
        return np.asarray(out)

    def cuts(self, stream: FrameStream) -> list[int]:
        """Frame indices that start a new shot."""
        diffs = self.differences(stream)
        cut_frames: list[int] = []
        last_cut = -self.min_shot_frames
        for i in range(1, diffs.shape[0]):
            lo = max(1, i - self.window)
            baseline = np.median(diffs[lo:i]) if i > 1 else 0.0
            fired = diffs[i] >= self.threshold and diffs[i] >= self.ratio * max(
                baseline, 1e-6
            )
            if fired and i - last_cut >= self.min_shot_frames:
                cut_frames.append(i)
                last_cut = i
        return cut_frames

    def shots(self, stream: FrameStream) -> list[Shot]:
        """Segment the stream into shots."""
        cut_frames = self.cuts(stream)
        boundaries = [0] + cut_frames + [stream.n_frames]
        fps = stream.fps
        return [
            Shot(a, b, a / fps, b / fps)
            for a, b in zip(boundaries[:-1], boundaries[1:])
            if b > a
        ]
