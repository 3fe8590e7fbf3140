"""Fly-out detection by dust and sand color filtering (§5.3).

"Fly outs usually come with a lot of sand and dust. Therefore, we recognize
presence of these two characteristics in the picture. We filter the RGB
image for these colors and compute the probability, which will be used by a
probabilistic network."

The filters run over a chunk of frames at once as per-channel range tests
on its channel planes (``uint8[3, c, H, W]``,
:func:`repro.video.frames.channel_planes`); the single-frame functions are
the same kernels on a one-frame chunk.
"""

from __future__ import annotations

import numpy as np

from repro.video.frames import channel_planes

__all__ = [
    "sand_fraction",
    "dust_fraction",
    "sand_fractions",
    "dust_fractions",
    "SAND_RGB",
    "DUST_RGB",
]

#: Reference gravel-trap sand color.
SAND_RGB = (194, 178, 128)
#: Reference dust-cloud color (desaturated warm grey).
DUST_RGB = (170, 160, 140)


def _near(planes: np.ndarray, reference: tuple[int, int, int], tolerance: int) -> np.ndarray:
    """Pixels within ``tolerance`` of ``reference`` on every channel."""
    mask = None
    for plane, value in zip(planes, reference):
        inside = (plane >= max(value - tolerance, 0)) & (plane <= min(value + tolerance, 255))
        mask = inside if mask is None else mask & inside
    return mask


def _fractions(mask: np.ndarray) -> np.ndarray:
    return np.count_nonzero(mask, axis=(1, 2)) / (mask.shape[1] * mask.shape[2])


def sand_fractions(planes: np.ndarray, tolerance: int = 35) -> np.ndarray:
    """Per-frame fraction of pixels matching the sand color, in [0, 1]."""
    return _fractions(_near(planes, SAND_RGB, tolerance))


def dust_fractions(planes: np.ndarray, tolerance: int = 30) -> np.ndarray:
    """Per-frame fraction of pixels matching the dust color, in [0, 1].

    Dust additionally requires low saturation (a haze, not a painted
    object): the channel spread must be small.
    """
    red, green, blue = planes
    spread = np.maximum(np.maximum(red, green), blue)
    spread -= np.minimum(np.minimum(red, green), blue)
    return _fractions(_near(planes, DUST_RGB, tolerance) & (spread <= 40))


def sand_fraction(frame: np.ndarray, tolerance: int = 35) -> float:
    """Fraction of pixels matching the sand color, in [0, 1]."""
    return float(sand_fractions(channel_planes(frame[None]), tolerance)[0])


def dust_fraction(frame: np.ndarray, tolerance: int = 30) -> float:
    """Fraction of pixels matching the dust color, in [0, 1]."""
    return float(dust_fractions(channel_planes(frame[None]), tolerance)[0])
