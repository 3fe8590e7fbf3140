"""Speech endpoint detection (§5.2 "Audio Analysis").

The paper detects speech clips with two clip-level tests:

* a weighted sum of the average, maximum and dynamic range of the short
  time energy computed on the 0-882 Hz band, thresholded at ``2.2e-3``;
* the sum of the average values and dynamic range of the first three
  mel-frequency cepstral coefficients (0-882 Hz band), thresholded at
  ``1.3``.

A clip is speech when both scores clear their thresholds. The exact scale
of each score depends on recording gain; the thresholds are exposed so the
fusion layer can calibrate (the paper's constants are the defaults).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.features import cepstrum, short_time_energy
from repro.audio.filters import ENDPOINT_BAND, BandSplit
from repro.audio.signal import AudioSignal, clip_statistics
from repro.errors import SignalError

__all__ = ["EndpointConfig", "EndpointResult", "detect_speech"]

#: §5.2: "The thresholds we used are 2.2e-3 for the weighted sum of the
#: average and maximum values, and dynamic range of STE, and 1.3 for the
#: sum of the average values and dynamic range of first three
#: Mel-frequency cepstral coefficients."
PAPER_STE_THRESHOLD = 2.2e-3
PAPER_MFCC_THRESHOLD = 1.3


@dataclass(frozen=True)
class EndpointConfig:
    """Tunable parameters of the endpoint detector."""

    ste_threshold: float = PAPER_STE_THRESHOLD
    mfcc_threshold: float = PAPER_MFCC_THRESHOLD
    #: Weights of (average, maximum, dynamic range) in the STE score.
    ste_weights: tuple[float, float, float] = (1.0, 0.5, 0.5)
    band: tuple[float, float] = ENDPOINT_BAND
    n_mfcc: int = 3


@dataclass
class EndpointResult:
    """Per-clip endpoint decisions and the underlying scores."""

    is_speech: np.ndarray
    ste_score: np.ndarray
    mfcc_score: np.ndarray

    def segments(self, clip_seconds: float = 0.1) -> list[tuple[float, float]]:
        """Contiguous speech runs as (start_s, end_s) intervals."""
        out: list[tuple[float, float]] = []
        start: int | None = None
        for i, flag in enumerate(self.is_speech):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                out.append((start * clip_seconds, i * clip_seconds))
                start = None
        if start is not None:
            out.append((start * clip_seconds, len(self.is_speech) * clip_seconds))
        return out


def detect_speech(
    signal: AudioSignal,
    config: EndpointConfig | None = None,
    bands: BandSplit | None = None,
) -> EndpointResult:
    """Classify each 0.1 s clip as speech or non-speech.

    The STE is computed on the band-filtered signal "because this bandwidth
    diminishes car noises, and various background noises"; the MFCC score
    uses the first ``n_mfcc`` coefficients, "the most indicative for speech
    detection". A caller that filters the same track itself passes its
    ``bands`` (a :class:`BandSplit` of ``signal``) so the spectrum and the
    band are computed once between them.

    Raises:
        SignalError: ``bands`` splits a signal other than ``signal``.
    """
    config = config or EndpointConfig()
    if bands is None:
        bands = BandSplit(signal)
    elif bands.signal is not signal:
        raise SignalError("bands must be a BandSplit of the signal being classified")
    filtered = bands.band(*config.band)

    ste = short_time_energy(filtered)
    stats = clip_statistics(signal, ste)
    w_avg, w_max, w_rng = config.ste_weights
    ste_score = (
        w_avg * stats["average"]
        + w_max * stats["maximum"]
        + w_rng * stats["dynamic_range"]
    )

    coefficients = cepstrum(bands.mel_log_energies(*config.band), config.n_mfcc)
    magnitude = np.abs(coefficients).sum(axis=1)
    mfcc_stats = clip_statistics(signal, magnitude)
    mfcc_score = mfcc_stats["average"] + mfcc_stats["dynamic_range"]

    n = min(ste_score.shape[0], mfcc_score.shape[0])
    is_speech = (ste_score[:n] >= config.ste_threshold) & (
        mfcc_score[:n] >= config.mfcc_threshold
    )
    return EndpointResult(is_speech, ste_score[:n], mfcc_score[:n])
