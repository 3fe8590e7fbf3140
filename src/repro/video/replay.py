"""Replay detection via DVE (Digital Video Effect) recognition (§5.3).

"The replay scenes in the Formula 1 program ... frequently begin and
conclude with special shot change operations termed Digital Video Effects.
The problem is that these DVEs vary very often ... Therefore, we decide to
employ a more general algorithm based on motion flow and pattern matching."

A DVE wipe replaces the picture gradually along a moving boundary. The
detector looks for exactly that general pattern rather than one concrete
effect: an inter-frame difference whose active region is (a) strongly
concentrated in a band, and (b) drifts coherently over consecutive frames,
sustained for several frames — which a hard cut (one frame) or ordinary
motion (spatially spread) does not produce.

The band scores are array arithmetic over all transitions of a frame chunk
(:func:`wipe_band_scores`, fed by the inter-frame difference the motion
features share); only the run of wipe-like transitions is followed frame by
frame, on :class:`DveDetector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SignalError
from repro.video.motion import band_sums, pair_columns

__all__ = ["DveDetector", "ReplaySegmenter", "wipe_band_score", "wipe_band_scores"]


def wipe_band_scores(raw: np.ndarray, n_bands: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Score how wipe-like each frame transition of a chunk is.

    Args:
        raw: ``int64[pairs, W]`` column sums of the (ungated) inter-frame
            difference, from :func:`repro.video.motion.difference_columns`.

    Returns:
        (concentration, centroid), each ``[pairs]``: concentration in
        [0, 1] measures how much of the inter-frame change lives in few
        adjacent column bands; centroid in [0, 1] is the horizontal
        position of the change mass. A static pair scores (0, 0.5).
    """
    energy = band_sums(raw, n_bands).astype(np.float64)
    total = raw.sum(axis=1)
    concentration = np.zeros(raw.shape[0])
    centroid = np.full(raw.shape[0], 0.5)
    changed = total > 0
    probabilities = energy[changed] / total[changed, None]
    top3 = np.sort(probabilities, axis=1)[:, -3:].sum(axis=1)
    uniform_top3 = 3.0 / n_bands
    concentration[changed] = np.clip(
        (top3 - uniform_top3) / (1.0 - uniform_top3), 0.0, 1.0
    )
    positions = np.arange(n_bands)
    # one dot product per pair: a matrix-vector product may round differently
    centroid[changed] = [row @ positions / (n_bands - 1) for row in probabilities]
    return concentration, centroid


def wipe_band_score(
    previous: np.ndarray, current: np.ndarray, n_bands: int = 16
) -> tuple[float, float]:
    """Score how wipe-like one frame transition is.

    Returns:
        (concentration, centroid) of :func:`wipe_band_scores` for the pair.
    """
    concentration, centroid = wipe_band_scores(pair_columns(previous, current)[0], n_bands)
    return float(concentration[0]), float(centroid[0])


class DveDetector:
    """Streaming DVE detector over (previous, current) frame pairs."""

    def __init__(
        self,
        concentration_threshold: float = 0.45,
        min_run: int = 3,
        min_drift: float = 0.15,
        min_change: float = 0.02,
    ):
        self.concentration_threshold = concentration_threshold
        self.min_run = min_run
        self.min_drift = min_drift
        self.min_change = min_change
        self._run_centroids: list[float] = []
        self._previous: np.ndarray | None = None

    def update(self, frame: np.ndarray) -> float:
        """Consume one frame; return the current DVE score in [0, 1]."""
        previous, self._previous = self._previous, frame
        if previous is None:
            return 0.0
        return float(self.advance(pair_columns(previous, frame)[0], frame.shape[0])[0])

    def advance(self, raw: np.ndarray, height: int) -> np.ndarray:
        """Consume the transitions of a chunk; return one score per pair.

        Args:
            raw: ``int64[pairs, W]`` ungated difference column sums.
            height: frame height (the sums' pixel count is ``height * W``).

        The run of wipe-like transitions lives on the detector, so a wipe
        that straddles two chunks scores like one uninterrupted run.
        """
        change = raw.sum(axis=1) / (height * raw.shape[1] * 3) / 255.0
        concentration, centroid = wipe_band_scores(raw)
        wipe_like = (concentration >= self.concentration_threshold) & (
            change >= self.min_change
        )
        scores = np.zeros(raw.shape[0])
        for index in range(raw.shape[0]):
            if wipe_like[index]:
                self._run_centroids.append(float(centroid[index]))
                scores[index] = self._score()
            else:
                self._run_centroids.clear()
        return scores

    def _score(self) -> float:
        if len(self._run_centroids) < self.min_run:
            return 0.0
        centroids = np.asarray(self._run_centroids[-8:])
        steps = np.diff(centroids)
        if steps.size == 0:
            return 0.0
        direction = np.sign(steps.sum())
        if direction == 0:
            return 0.0
        coherence = float((np.sign(steps) == direction).mean())
        drift = float(abs(centroids[-1] - centroids[0]))
        drift_score = min(drift / self.min_drift, 1.0)
        return float(np.clip(coherence * drift_score, 0.0, 1.0))

    def reset(self) -> None:
        self._run_centroids.clear()
        self._previous = None


@dataclass(frozen=True)
class ReplaySegment:
    """A replay: the interval between a DVE-in and a DVE-out."""

    start_time: float
    end_time: float


class ReplaySegmenter:
    """Pair DVE events into replay segments.

    The Formula 1 replays "begin and conclude" with DVEs; consecutive DVE
    detections closer than ``max_replay_seconds`` bracket one replay.
    """

    def __init__(
        self,
        fps: float,
        score_threshold: float = 0.5,
        max_replay_seconds: float = 30.0,
        min_replay_seconds: float = 2.0,
        merge_window_seconds: float = 1.0,
    ):
        if fps <= 0:
            raise SignalError("fps must be positive")
        self.fps = fps
        self.score_threshold = score_threshold
        self.max_replay_seconds = max_replay_seconds
        self.min_replay_seconds = min_replay_seconds
        self.merge_window_seconds = merge_window_seconds

    def dve_times(self, scores: np.ndarray) -> list[float]:
        """Collapse per-frame DVE scores into distinct DVE event times."""
        times: list[float] = []
        above = scores >= self.score_threshold
        i = 0
        while i < above.shape[0]:
            if above[i]:
                j = i
                while j + 1 < above.shape[0] and above[j + 1]:
                    j += 1
                center = (i + j) / 2 / self.fps
                if not times or center - times[-1] > self.merge_window_seconds:
                    times.append(center)
                i = j + 1
            else:
                i += 1
        return times

    def segments(self, scores: np.ndarray) -> list[ReplaySegment]:
        """Pair DVE events into replay intervals."""
        times = self.dve_times(scores)
        out: list[ReplaySegment] = []
        i = 0
        while i + 1 < len(times):
            start, end = times[i], times[i + 1]
            length = end - start
            if self.min_replay_seconds <= length <= self.max_replay_seconds:
                out.append(ReplaySegment(start, end))
                i += 2
            else:
                i += 1
        return out

    def indicator(self, scores: np.ndarray) -> np.ndarray:
        """Per-frame replay indicator in {0, 1} (paper feature f12)."""
        out = np.zeros(scores.shape[0])
        for segment in self.segments(scores):
            lo = int(segment.start_time * self.fps)
            hi = min(int(segment.end_time * self.fps) + 1, scores.shape[0])
            out[lo:hi] = 1.0
        return out
