"""Excited-speech feature extraction (§5.2).

"For the detection of emphasized speech we use STE, MFCCs, pitch, and pause
rate. For different features we use different frequency bands. For STE we
use filtered audio signal, 882 Hz - 2205 Hz, and for MFCCs and pitch we use
low passed audio signal, 0 - 882 Hz. We compute average and maximum values
in an audio clip for all these features ... Additionally, we compute
dynamic range for STE, and pitch as well. These computations are only
performed on speech segments."

The result is the f2..f10 block of the paper's feature list, one value per
0.1 s clip, normalized to [0, 1]:

==== =============================================
f2   pause rate
f3   average STE          (882-2205 Hz band)
f4   dynamic range of STE
f5   maximum STE
f6   average pitch        (0-882 Hz band)
f7   dynamic range of pitch
f8   maximum pitch
f9   average |MFCC|       (0-882 Hz band)
f10  maximum |MFCC|
==== =============================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.endpoint import EndpointConfig, EndpointResult, detect_speech
from repro.audio.features import cepstrum, pause_rate, pitch_track, short_time_energy
from repro.audio.filters import ENDPOINT_BAND, EXCITEMENT_BAND, BandSplit
from repro.audio.signal import AudioSignal, clip_statistics

__all__ = ["ExcitementFeatures", "extract_excitement_features"]

#: Names of the audio features in the paper's f-numbering.
AUDIO_FEATURE_NAMES = ("f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10")


@dataclass
class ExcitementFeatures:
    """Per-clip excited-speech features plus the endpoint mask.

    Attributes:
        streams: feature name ("f2"..."f10") -> array (n_clips,) in [0, 1].
        endpoint: the endpoint detection result the masking came from.
    """

    streams: dict[str, np.ndarray]
    endpoint: EndpointResult

    @property
    def n_clips(self) -> int:
        return next(iter(self.streams.values())).shape[0]

    def matrix(self) -> np.ndarray:
        """Features stacked as (n_clips, 9) in f2..f10 order."""
        return np.stack([self.streams[name] for name in AUDIO_FEATURE_NAMES], axis=1)


def _normalize_unit(values: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Map a non-negative feature to [0, 1] by a robust scale (99th pct)."""
    if scale is None:
        scale = float(np.percentile(values, 99.0))
    if scale <= 0:
        return np.zeros_like(values)
    return np.clip(values / scale, 0.0, 1.0)


def extract_excitement_features(
    signal: AudioSignal,
    endpoint_config: EndpointConfig | None = None,
) -> ExcitementFeatures:
    """Compute the f2..f10 per-clip streams for one audio track.

    Clips classified non-speech by the endpoint detector get zero for every
    excitement feature (the paper computes them "only ... on speech
    segments"); pause rate is computed everywhere since it measures the
    quantity of speech itself. The track is transformed once: the endpoint
    detector and the features below share one :class:`BandSplit`.
    """
    bands = BandSplit(signal)
    # The excitement band is needed for its STE alone: take that first and
    # let the band go before the endpoint band is filtered.
    ste = short_time_energy(bands.band(*EXCITEMENT_BAND))
    bands.drop(*EXCITEMENT_BAND)
    endpoint = detect_speech(signal, endpoint_config, bands)
    low = bands.band(*ENDPOINT_BAND)

    ste_stats = clip_statistics(signal, ste)
    pitch = pitch_track(low)
    pitch_stats = clip_statistics(signal, pitch)
    coefficients = np.abs(cepstrum(bands.mel_log_energies(*ENDPOINT_BAND))).mean(axis=1)
    mfcc_stats = clip_statistics(signal, coefficients)
    pauses = pause_rate(signal)

    n = endpoint.is_speech.shape[0]
    mask = endpoint.is_speech.astype(np.float64)

    def masked(values: np.ndarray, scale: float | None = None) -> np.ndarray:
        return _normalize_unit(values[:n], scale) * mask

    streams = {
        "f2": np.clip(pauses[:n], 0.0, 1.0),
        "f3": masked(ste_stats["average"]),
        "f4": masked(ste_stats["dynamic_range"]),
        "f5": masked(ste_stats["maximum"]),
        "f6": masked(pitch_stats["average"], scale=500.0),
        "f7": masked(pitch_stats["dynamic_range"], scale=500.0),
        "f8": masked(pitch_stats["maximum"], scale=500.0),
        "f9": masked(mfcc_stats["average"]),
        "f10": masked(mfcc_stats["maximum"]),
    }
    return ExcitementFeatures(streams, endpoint)
