"""Visual feature extraction: the f11..f17 evidence streams (§5.5).

One pass over a frame stream produces:

==== ==========================================================
f11  part of the race (normalized race position)
f12  replay indicator (DVE-bracketed segments)
f13  color difference between consecutive frames
f14  semaphore (start lights) score
f15  dust fraction
f16  sand fraction
f17  amount of motion (smoothed color difference)
==== ==========================================================

The synthetic races render at 10 fps, so one frame maps onto one 0.1 s
evidence step; for other rates the caller resamples.

:func:`extract_visual_features` owns the single pass of an ingest over the
frames. It pulls ``(start, uint8[c, H, W, 3])`` chunks from the stream
(:meth:`repro.video.frames.FrameStream.chunks`), de-interleaves each into
channel planes once, and runs every detector as an array kernel over the
planes: one int16 inter-frame difference feeds the color difference, the
motion histograms and the DVE band scores; dust, sand and the semaphore's
red filter are uint8 range tests. What is inherently
sequential — the semaphore window, the DVE run, the passing window — is a
small per-frame tail whose state is carried across chunk boundaries, and
every sum is an integer, so the streams do not depend on the chunk size.
Whoever else needs the frames of the same ingest (the text detector's
scan) rides along as the ``observer`` and sees each chunk once; nothing
renders or decodes the stream a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.resilience import cancel_checkpoint
from repro.video.flyout import dust_fractions, sand_fractions
from repro.video.frames import FrameStream, channel_planes
from repro.video.motion import (
    difference_columns,
    frame_differences,
    motion_histograms,
    passing_score,
)
from repro.video.replay import DveDetector, ReplaySegmenter
from repro.video.semaphore import SemaphoreTracker

__all__ = ["VisualFeatures", "extract_visual_features", "VISUAL_FEATURE_NAMES"]

VISUAL_FEATURE_NAMES = ("f11", "f12", "f13", "f14", "f15", "f16", "f17")


@dataclass
class VisualFeatures:
    """Per-frame visual evidence streams.

    Attributes:
        streams: name ("f11".."f17" plus "passing") -> array (n_frames,).
        fps: frame rate of the streams.
    """

    streams: dict[str, np.ndarray]
    fps: float

    @property
    def n_frames(self) -> int:
        return next(iter(self.streams.values())).shape[0]

    def matrix(self) -> np.ndarray:
        return np.stack(
            [self.streams[name] for name in VISUAL_FEATURE_NAMES], axis=1
        )


def extract_visual_features(
    stream: FrameStream,
    passing_window: int = 20,
    motion_smoothing: int = 5,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> VisualFeatures:
    """Extract f11..f17 (and the raw passing score) in one pass.

    Args:
        stream: the frame stream (replayable, but only iterated once here).
        passing_window: consecutive motion histograms per passing score.
        motion_smoothing: moving-average width for f17.
        observer: called as ``observer(start, frames)`` with every chunk of
            the pass, for consumers that need the same frames.
    """
    n = stream.n_frames
    color_diff = np.zeros(n)
    semaphore = np.zeros(n)
    dust = np.zeros(n)
    sand = np.zeros(n)
    dve_scores = np.zeros(n)
    passing = np.zeros(n)
    # row i: motion histogram of the pair (frame i-1, frame i); row 0 unused
    histograms = np.zeros((n, 12))

    tracker = SemaphoreTracker()
    dve = DveDetector()
    previous: np.ndarray | None = None

    for start, frames in stream.chunks():
        cancel_checkpoint("extract.frame")
        stop = start + frames.shape[0]
        planes = channel_planes(frames)
        semaphore[start:stop] = tracker.update_chunk(planes)
        dust[start:stop] = dust_fractions(planes)
        sand[start:stop] = sand_fractions(planes)
        first = start if previous is not None else start + 1
        if first < stop:
            raw, gated = difference_columns(planes, previous)
            dve_scores[first:stop] = dve.advance(raw, stream.height)
            color_diff[first:stop] = frame_differences(gated, stream.height)
            histograms[first:stop] = motion_histograms(gated)
            for i in range(first, stop):
                window = histograms[max(i + 1 - passing_window, 1) : i + 1]
                if window.shape[0] >= 3:
                    passing[i] = passing_score(window)
        previous = planes[:, -1]
        if observer is not None:
            observer(start, frames)

    segmenter = ReplaySegmenter(stream.fps)
    replay = segmenter.indicator(dve_scores)

    kernel = np.ones(motion_smoothing) / motion_smoothing
    motion = np.convolve(color_diff, kernel, mode="same")

    part_of_race = np.linspace(0.0, 1.0, n)

    streams = {
        "f11": part_of_race,
        "f12": replay,
        "f13": np.clip(color_diff / 0.25, 0.0, 1.0),
        "f14": semaphore,
        "f15": np.clip(dust / 0.25, 0.0, 1.0),
        "f16": np.clip(sand / 0.25, 0.0, 1.0),
        "f17": np.clip(motion / 0.25, 0.0, 1.0),
        "passing": passing,
        "dve": dve_scores,
    }
    return VisualFeatures(streams, stream.fps)
