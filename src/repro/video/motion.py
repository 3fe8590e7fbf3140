"""Motion features (§5.3).

Two motion measures feed the networks:

* the **amount of motion** (paper feature f17, also half of the start
  detector): mean absolute pixel color difference between consecutive
  frames;
* the **motion histogram** used for passing detection (f13 pipeline): the
  spatial distribution of the inter-frame difference across column bands,
  from which :func:`passing_score` computes "the probability that there is
  a chance of one car passing another" by tracking a coherent motion
  centroid sweep.

Both (and the DVE detector of :mod:`repro.video.replay`) read the same
quantity, the channel-summed absolute inter-frame difference, and only
ever through its per-column sums. :func:`difference_columns` computes
those once for a whole chunk of frames; everything downstream is integer
arithmetic on ``[pairs, width]`` arrays, so a chunk of any size gives the
numbers a frame-pair-at-a-time loop would. The per-pair functions are the
chunk kernels called on one pair.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.video.frames import channel_planes

__all__ = [
    "difference_columns",
    "pair_columns",
    "band_sums",
    "frame_differences",
    "motion_histograms",
    "frame_difference",
    "motion_histogram",
    "passing_score",
]


#: Per-pixel channel-sum difference below this is treated as sensor noise.
NOISE_GATE = 45


def difference_columns(
    planes: np.ndarray, previous: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of the inter-frame difference over a chunk of frames.

    Args:
        planes: the chunk's channel planes, ``uint8[3, c, H, W]``
            (:func:`repro.video.frames.channel_planes`).
        previous: planes ``uint8[3, H, W]`` of the frame before the chunk;
            without it the first pair is (frame 0, frame 1) of the chunk.

    Returns:
        ``(raw, gated)``, each ``int64[pairs, W]`` with one row per
        consecutive frame pair: the channel-summed absolute difference
        summed down each pixel column, as is and with per-pixel values
        below :data:`NOISE_GATE` zeroed.
    """
    channels, count, height, width = planes.shape
    lead = 0 if previous is None else 1
    diff = np.empty((channels, count - 1 + lead, height, width), dtype=np.int16)
    if lead:
        if previous.shape != (channels, height, width):
            raise SignalError("frames differ in shape")
        np.subtract(planes[:, 0], previous, out=diff[:, 0], dtype=np.int16)
    np.subtract(planes[:, 1:], planes[:, :-1], out=diff[:, lead:], dtype=np.int16)
    np.abs(diff, out=diff)
    change = diff[0] + diff[1]
    change += diff[2]
    raw = change.sum(axis=1, dtype=np.int64)
    change[change < NOISE_GATE] = 0
    return raw, change.sum(axis=1, dtype=np.int64)


def band_sums(columns: np.ndarray, n_bands: int) -> np.ndarray:
    """Cut ``[pairs, W]`` column sums into ``n_bands`` vertical bands."""
    edges = np.linspace(0, columns.shape[1], n_bands + 1).astype(int)
    running = np.zeros((columns.shape[0], columns.shape[1] + 1), dtype=np.int64)
    np.cumsum(columns, axis=1, out=running[:, 1:])
    return running[:, edges[1:]] - running[:, edges[:-1]]


def frame_differences(gated: np.ndarray, height: int) -> np.ndarray:
    """Mean noise-gated color difference per frame pair, in [0, 1]."""
    return gated.sum(axis=1) / (height * gated.shape[1]) / (3 * 255.0)


def motion_histograms(gated: np.ndarray, n_bands: int = 12) -> np.ndarray:
    """Motion energy per column band and frame pair, rows normalized to 1.

    Returns:
        Array (pairs, n_bands); a row is uniform when its pair is static.
    """
    energy = band_sums(gated, n_bands).astype(np.float64)
    total = energy.sum(axis=1)
    moving = total > 0
    histograms = np.full(energy.shape, 1.0 / n_bands)
    histograms[moving] = energy[moving] / total[moving, None]
    return histograms


def pair_columns(previous: np.ndarray, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`difference_columns` of one ``(H, W, 3)`` frame pair."""
    if previous.shape != current.shape:
        raise SignalError("frames differ in shape")
    return difference_columns(channel_planes(np.stack([previous, current])))


def frame_difference(previous: np.ndarray, current: np.ndarray) -> float:
    """Mean absolute pixel color difference, noise-gated, in [0, 1]."""
    return float(frame_differences(pair_columns(previous, current)[1], current.shape[0])[0])


def motion_histogram(
    previous: np.ndarray, current: np.ndarray, n_bands: int = 12
) -> np.ndarray:
    """Motion energy per vertical column band, normalized to sum 1.

    Returns:
        Array (n_bands,); uniform when the frame pair is static.
    """
    return motion_histograms(pair_columns(previous, current)[1], n_bands)[0]


def passing_score(histograms: np.ndarray) -> float:
    """Probability-like score that a passing manoeuvre is in progress.

    Args:
        histograms: motion histograms of several consecutive frame pairs,
            shape (k, n_bands) — §5.3 computes "the movement properties of
            several consecutive pictures, based on their motion histogram".

    A passing shows as a *concentrated* motion blob whose centroid sweeps
    monotonically across the frame. The score combines

    * concentration: how far each histogram is from uniform,
    * sweep: monotone centroid displacement across the window.
    """
    histograms = np.asarray(histograms, dtype=np.float64)
    if histograms.ndim != 2 or histograms.shape[0] < 3:
        raise SignalError("passing_score needs >= 3 consecutive histograms")
    k, n_bands = histograms.shape
    uniform = 1.0 / n_bands

    # Background motion is spatially uniform; subtract the uniform floor so
    # the centroid tracks only the concentrated (foreground) blob.
    excess = np.clip(histograms - uniform, 0.0, None)
    mass = excess.sum(axis=1)
    concentration = mass / (1.0 - uniform)
    valid = mass > 0.02
    if valid.sum() < 3:
        return 0.0
    positions = np.arange(n_bands)
    centroids = (excess[valid] @ positions) / (mass[valid] * (n_bands - 1))

    steps = np.diff(centroids)
    if np.all(steps == 0):
        return 0.0
    direction = np.sign(steps.sum())
    if direction == 0:
        return 0.0
    monotone = float((np.sign(steps) == direction).mean())
    displacement = float(abs(centroids[-1] - centroids[0]))
    sweep = min(displacement / 0.25, 1.0) * monotone
    mean_concentration = float(concentration[valid].mean())

    return float(np.clip(mean_concentration * sweep, 0.0, 1.0))
