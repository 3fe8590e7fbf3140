"""Frequency-band filtering.

The paper computes different features on different bands: STE for endpoint
detection on 0-882 Hz, STE for excitement on 882-2205 Hz, MFCCs and pitch
on the low-passed 0-882 Hz signal, and notes that "indicative bands for
speech characterization are lower sub-bands ... below 2.5 kHz". The band
edges here default to those values.

Filtering is done with an FFT brick-wall band-pass — simple, linear-phase
and exactly reproducible, which matters more for a reproduction than
matched roll-off. The forward transform does not depend on the band, so a
:class:`BandSplit` takes it once per track. A band is one contiguous run of
bins, so no per-bin frequency array or mask is kept; what stays at the
length of the track is the spectrum and the bands still wanted.
"""

from __future__ import annotations

import bisect
from functools import cached_property

import numpy as np

from repro.audio.features import mel_log_energies
from repro.audio.signal import AudioSignal
from repro.errors import SignalError

__all__ = [
    "BandSplit",
    "bandpass",
    "ENDPOINT_BAND",
    "EXCITEMENT_BAND",
    "SPEECH_BAND_LIMIT",
]

#: Band used for endpoint-detection STE, "because this bandwidth diminishes
#: car noises, and various background noises as well" (§5.2).
ENDPOINT_BAND = (0.0, 882.0)
#: Band used for excited-speech STE (§5.2).
EXCITEMENT_BAND = (882.0, 2205.0)
#: "indicative bands for speech characterization are ... below 2.5 kHz".
SPEECH_BAND_LIMIT = 2500.0


class BandSplit:
    """One track's spectrum and what the front end derives from it per band.

    The endpoint detector and the excited-speech features filter the same
    signal, two of their three bands being the same one. A ``BandSplit``
    transforms the signal once, inverts once per distinct band and frames
    each band's mel log energies once; the results are what separate
    ``bandpass`` / ``mfcc`` calls would return.

    What it holds at the length of the track is the spectrum and the bands
    not yet dropped (:meth:`drop`); a band's masked copy of the spectrum
    lives only while that band is inverted.
    """

    def __init__(self, signal: AudioSignal):
        self.signal = signal
        self._bands: dict[tuple[float, float], AudioSignal] = {}
        self._mel: dict[tuple[float, float], np.ndarray] = {}

    @cached_property
    def _spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.signal.samples)

    def _bins(self, low_hz: float, high_hz: float) -> tuple[int, int]:
        """The bins ``[first, stop)`` whose frequency lies in [low_hz,
        high_hz]. Bin ``k`` is at ``k * (1 / (n * d))``, the float
        ``np.fft.rfftfreq`` computes; that is non-decreasing in ``k``, so
        the bins passing the comparison are one contiguous run, found by
        bisection on that same comparison."""
        n = self.signal.samples.shape[0]
        step = 1.0 / (n * (1.0 / self.signal.sample_rate))
        bins = range(n // 2 + 1)
        first = bisect.bisect_left(bins, low_hz, key=lambda k: k * step)
        stop = bisect.bisect_right(bins, high_hz, key=lambda k: k * step)
        return first, stop

    def band(self, low_hz: float, high_hz: float) -> AudioSignal:
        """The signal with spectral content outside [low_hz, high_hz] zeroed.

        Args:
            low_hz: lower edge (inclusive); 0 gives a low-pass.
            high_hz: upper edge (inclusive); must not exceed Nyquist.

        Returns:
            An :class:`AudioSignal` with the same length and sample rate,
            shared by every caller asking for this band until it is dropped.
        """
        key = (float(low_hz), float(high_hz))
        if key not in self._bands:
            signal = self.signal
            nyquist = signal.sample_rate / 2
            if not 0 <= low_hz < high_hz:
                raise SignalError(f"bad band [{low_hz}, {high_hz}]")
            if high_hz > nyquist:
                raise SignalError(
                    f"band edge {high_hz} Hz exceeds Nyquist {nyquist} Hz"
                )
            # ``spectrum * mask`` for a boolean mask that is True on
            # [first, stop): the same products, signed zeros included
            first, stop = self._bins(low_hz, high_hz)
            masked = np.multiply(self._spectrum, False)
            np.multiply(self._spectrum[first:stop], True, out=masked[first:stop])
            filtered = np.fft.irfft(masked, n=signal.samples.shape[0])
            self._bands[key] = AudioSignal(filtered, signal.sample_rate)
        return self._bands[key]

    def drop(self, low_hz: float, high_hz: float) -> None:
        """Forget a band (its mel log energies stay): the next
        :meth:`band` call for it filters it again."""
        self._bands.pop((float(low_hz), float(high_hz)), None)

    def mel_log_energies(self, low_hz: float, high_hz: float) -> np.ndarray:
        """Framed mel log energies of one band (see
        :func:`repro.audio.features.mel_log_energies`)."""
        key = (float(low_hz), float(high_hz))
        if key not in self._mel:
            self._mel[key] = mel_log_energies(self.band(low_hz, high_hz))
        return self._mel[key]


def bandpass(signal: AudioSignal, low_hz: float, high_hz: float) -> AudioSignal:
    """Zero out spectral content outside [low_hz, high_hz] (a
    :class:`BandSplit` used for one band)."""
    return BandSplit(signal).band(low_hz, high_hz)
