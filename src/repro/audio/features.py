"""Frame-level audio features: STE, pitch, MFCCs, pause rate.

Implements the feature set of §5.2:

* **Short time energy** — average windowed waveform power per 10 ms frame;
  Hamming window by default (the paper's pick among four candidates).
* **Pitch** — fundamental frequency by autocorrelation analysis, searched
  below 1 kHz ("human speech is usually under 1 kHz").
* **MFCCs** — mel filterbank log-energies followed by a cosine transform;
  12 coefficients of which the paper uses the first three for endpoint
  detection. The two steps are separate functions so that both projections
  of one band come from one filterbank pass.
* **Pause rate** — fraction of silent frames per clip, "intended to
  determine the quantity of speech in an audio clip".

All functions are vectorized over frames. The framed passes over a whole
track (STE, mel log energies, pitch) take a block of frame rows at a time,
so what they hold beyond their input and output is one block's windows
and spectra; every row is computed as in a whole-track pass, so the
results do not depend on the block.
"""

from __future__ import annotations

import numpy as np

from repro.audio.signal import AudioSignal, window_function
from repro.errors import SignalError

__all__ = [
    "short_time_energy",
    "pitch_track",
    "mel_filterbank",
    "mel_log_energies",
    "cepstrum",
    "mfcc",
    "pause_rate",
    "zero_crossing_rate",
    "frame_entropy",
]


#: Frame rows per block of :func:`pitch_track`'s autocorrelation (~11 MB of
#: windows, spectra and autocorrelations at 16 kHz).
PITCH_BLOCK_ROWS = 256

#: Frame rows per block of the framed STE and mel passes (~2.6 MB of
#: windowed frames, ~4 MB of spectra at 16 kHz). Keep it at a few hundred
#: rows or more: on fewer rows BLAS may multiply by the mel filterbank with
#: a small-matrix kernel whose sums round differently.
FRAME_BLOCK_ROWS = 2048


def _row_blocks(count: int, rows: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` blocks of ``rows`` rows out of ``count``; the last block
    takes the remainder, so no block is shorter than ``rows`` unless the
    whole is."""
    bounds = [i * rows for i in range(max(count // rows, 1))] + [count]
    return list(zip(bounds[:-1], bounds[1:]))


def short_time_energy(signal: AudioSignal, window: str = "hamming") -> np.ndarray:
    """Per-frame short time energy: mean of the windowed squared samples.

    Returns:
        Array of shape (n_frames,).
    """
    frames = signal.frames()
    w = window_function(window, frames.shape[1])
    energy = np.empty(frames.shape[0])
    for lo, hi in _row_blocks(frames.shape[0], FRAME_BLOCK_ROWS):
        energy[lo:hi] = np.mean((frames[lo:hi] * w) ** 2, axis=1)
    return energy


def pitch_track(
    signal: AudioSignal,
    fmin: float = 50.0,
    fmax: float = 1000.0,
    energy_floor: float = 1e-7,
) -> np.ndarray:
    """Per-frame fundamental frequency by autocorrelation analysis.

    Frames whose energy is below ``energy_floor`` (or whose autocorrelation
    peak is unconvincing) get pitch 0 — the conventional "unvoiced" marker.

    Args:
        fmin: lowest admissible pitch in Hz.
        fmax: highest admissible pitch in Hz; the paper restricts the
            search to below 1 kHz.

    Returns:
        Array of shape (n_frames,) in Hz.
    """
    if not 0 < fmin < fmax:
        raise SignalError(f"bad pitch range [{fmin}, {fmax}]")
    base = signal.frames()
    rows = base.shape[0]
    fs = signal.sample_rate
    # Pitch needs more than one period in view: analyse a 30 ms window
    # centred on each 10 ms frame (previous + current + next frame; the
    # first and last frame stand in for their missing neighbours).
    n = 3 * base.shape[1]
    lag_min = max(int(fs / fmax), 1)
    lag_max = min(int(fs / fmin), n - 1)
    if lag_max <= lag_min:
        raise SignalError(
            "frames too short for the requested pitch range; "
            "lower fmin or raise the sample rate"
        )
    size = 1 << int(np.ceil(np.log2(2 * n)))
    overlap = (n - np.arange(n)).astype(np.float64)
    pitch = np.empty(rows)
    # Every row's autocorrelation is independent of the others, so the
    # windows, spectra and autocorrelations exist for one block of rows at
    # a time instead of for the whole track.
    for lo in range(0, rows, PITCH_BLOCK_ROWS):
        hi = min(lo + PITCH_BLOCK_ROWS, rows)
        near = base[np.clip(np.arange(lo - 1, hi + 1), 0, rows - 1)]
        frames = np.hstack([near[:-2], near[1:-1], near[2:]])
        centered = frames - frames.mean(axis=1, keepdims=True)
        # Autocorrelation via FFT, per frame; unbiased normalization so long
        # lags (low pitch) compete fairly with short lags.
        spectra = np.fft.rfft(centered, n=size, axis=1)
        autocorr = np.fft.irfft(spectra * np.conj(spectra), n=size, axis=1)[:, :n]
        unbiased = autocorr / overlap
        r0 = unbiased[:, 0]
        window = unbiased[:, lag_min : lag_max + 1]
        peak_val = window.max(axis=1)
        # A periodic signal peaks equally at every multiple of its period;
        # take the SMALLEST near-maximal lag so subharmonics don't halve
        # the pitch.
        near_peak = window >= 0.93 * np.maximum(peak_val[:, None], 1e-12)
        best_lag = np.argmax(near_peak, axis=1) + lag_min
        best_val = window[np.arange(window.shape[0]), best_lag - lag_min]
        energies = np.mean(centered**2, axis=1)
        voiced = (energies > energy_floor) & (best_val > 0.3 * np.maximum(r0, 1e-12))
        pitch[lo:hi] = np.where(voiced, fs / best_lag, 0.0)
    return pitch


def mel_filterbank(
    n_filters: int, n_fft: int, sample_rate: int, fmax: float | None = None
) -> np.ndarray:
    """Triangular mel-spaced filterbank, shape (n_filters, n_fft // 2 + 1).

    "Mel-scale is gradually warped linear spectrum, with coarser resolution
    on higher, and finer resolution on lower frequencies" (§5.2).
    """
    fmax = fmax or sample_rate / 2

    def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(fmax), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    bank = np.zeros((n_filters, n_fft // 2 + 1))
    for i in range(n_filters):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        center = max(center, left + 1)
        right = max(right, center + 1)
        for k in range(left, min(center, bank.shape[1])):
            bank[i, k] = (k - left) / (center - left)
        for k in range(center, min(right, bank.shape[1])):
            bank[i, k] = (right - k) / (right - center)
    return bank


def mel_log_energies(
    signal: AudioSignal, n_filters: int = 24, window: str = "hamming"
) -> np.ndarray:
    """Per-frame log energies of the mel filterbank, shape (n_frames,
    n_filters) — the framed spectral pass every cepstral projection of a
    signal shares."""
    frames = signal.frames()
    w = window_function(window, frames.shape[1])
    n_fft = 1 << int(np.ceil(np.log2(frames.shape[1])))
    bank = mel_filterbank(n_filters, n_fft, signal.sample_rate)
    log_energies = np.empty((frames.shape[0], n_filters))
    for lo, hi in _row_blocks(frames.shape[0], FRAME_BLOCK_ROWS):
        spectra = np.abs(np.fft.rfft(frames[lo:hi] * w, n=n_fft, axis=1)) ** 2
        energies = spectra @ bank.T
        log_energies[lo:hi] = np.log(np.maximum(energies, 1e-12))
    return log_energies


def cepstrum(log_energies: np.ndarray, n_coefficients: int = 12) -> np.ndarray:
    """DCT-II of mel log energies over the filter axis, shape (n_frames,
    n_coefficients); coefficient 0 is the first (index 0 = C1 in the
    paper's counting of "first three")."""
    n_filters = log_energies.shape[1]
    k = np.arange(n_coefficients)[:, None]
    j = np.arange(n_filters)[None, :]
    dct = np.cos(np.pi * (k + 1) * (j + 0.5) / n_filters)
    return log_energies @ dct.T


def mfcc(
    signal: AudioSignal,
    n_coefficients: int = 12,
    n_filters: int = 24,
    window: str = "hamming",
) -> np.ndarray:
    """Per-frame mel-frequency cepstral coefficients.

    "MFCCs are a simple cosine transform of the Mel-scale energy for
    different filtered sub-bands" (§5.2).

    Returns:
        Array of shape (n_frames, n_coefficients).
    """
    return cepstrum(mel_log_energies(signal, n_filters, window), n_coefficients)


def pause_rate(
    signal: AudioSignal, silence_threshold: float | None = None
) -> np.ndarray:
    """Per-clip fraction of silent frames.

    Args:
        silence_threshold: STE below this marks a frame silent; defaults to
            10 % of the median frame energy (adaptive, robust to gain).

    Returns:
        Array of shape (n_clips,), values in [0, 1].
    """
    energy = short_time_energy(signal)
    if silence_threshold is None:
        silence_threshold = 0.1 * float(np.median(energy) + 1e-12)
    silent = (energy < silence_threshold).astype(np.float64)
    return signal.clip_view(silent).mean(axis=1)


def zero_crossing_rate(signal: AudioSignal) -> np.ndarray:
    """Per-frame zero-crossing rate.

    Kept as the paper keeps it: tried for endpoint detection, "showed
    powerless when applied in a noisy environment such as ours" — the
    endpoint bench demonstrates exactly that.
    """
    frames = signal.frames()
    signs = np.sign(frames)
    signs[signs == 0] = 1
    return np.mean(np.abs(np.diff(signs, axis=1)) > 0, axis=1)


def frame_entropy(signal: AudioSignal, n_bins: int = 16) -> np.ndarray:
    """Per-frame amplitude-histogram entropy (the other rejected endpoint
    feature)."""
    frames = signal.frames()
    lo = frames.min(axis=1, keepdims=True)
    hi = frames.max(axis=1, keepdims=True)
    span = np.maximum(hi - lo, 1e-12)
    normalized = (frames - lo) / span
    bins = np.minimum((normalized * n_bins).astype(int), n_bins - 1)
    out = np.zeros(frames.shape[0])
    for b in range(n_bins):
        p = (bins == b).mean(axis=1)
        mask = p > 0
        out[mask] -= p[mask] * np.log2(p[mask])
    return out
