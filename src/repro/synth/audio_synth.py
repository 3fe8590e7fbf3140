"""Audio synthesis for a race timeline.

Produces the broadcast soundtrack the paper's §5.2 analyses: announcer
speech (excited speech with raised pitch and energy — "whenever something
important happens the announcer raises his voice due to his excitement"),
Formula 1 engine noise, crowd bursts at events, plus the true phone stream
for the simulated keyword-spotting front-end.

Everything is seeded and vectorized; the defaults (16 kHz) trade the
paper's 22 kHz for speed while keeping every analysis band below Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.keywords import F1_KEYWORDS, PHONES, PHONE_SECONDS
from repro.audio.signal import AudioSignal
from repro.errors import SynthesisError
from repro.synth.annotations import Interval, raster
from repro.synth.race import RaceTimeline

__all__ = ["RaceAudio", "synthesize_audio", "smooth_slots"]

#: Neutral and excited announcer pitch (Hz).
NEUTRAL_PITCH = 135.0
EXCITED_PITCH = 255.0


@dataclass
class RaceAudio:
    """The synthesized soundtrack and its hidden ground truth.

    Attributes:
        signal: the mixed mono waveform.
        phone_slots: true phone per 0.1 s slot (None = no speech) — input
            to the simulated acoustic front-end.
        speech_intervals: when the announcer is talking at all.
    """

    signal: AudioSignal
    phone_slots: list[str | None]
    speech_intervals: list[Interval]


def synthesize_audio(
    timeline: RaceTimeline, sample_rate: int = 16000
) -> RaceAudio:
    """Render the soundtrack of a race timeline."""
    rng = np.random.default_rng(timeline.spec.seed + 1)
    duration = timeline.duration
    n = int(duration * sample_rate)
    t = np.arange(n) / sample_rate

    speech_intervals = _speech_plan(rng, timeline)
    n_slots = int(round(duration / PHONE_SECONDS))
    speech_mask = raster(speech_intervals, n_slots, PHONE_SECONDS)

    # Excitement is not all-or-nothing: every burst gets its own intensity,
    # and mild bursts (an announcer only half carried away) are genuinely
    # hard to separate from ordinary speech — the source of the paper's
    # missed detections.
    excited_mask = np.zeros(n_slots)
    for interval in timeline.excitement:
        lo = max(int(interval.start / PHONE_SECONDS), 0)
        hi = min(int(np.ceil(interval.end / PHONE_SECONDS)), n_slots)
        intensity = float(rng.uniform(0.35, 1.0))
        if lo < hi:
            excited_mask[lo:hi] = np.maximum(excited_mask[lo:hi], intensity)

    # "Hype": short bursts of genuinely excited-SOUNDING delivery (a name
    # shouted, a one-liner) that are not annotated excitement because they
    # are over in a couple of seconds. Acoustically they carry almost the
    # full excitement signature; only their brevity gives them away — the
    # false-positive source a per-step classifier cannot reject.
    hype_mask = np.zeros(n_slots)
    n_hype = int(rng.poisson(duration / 40.0))
    for _ in range(n_hype):
        begin = rng.uniform(5.0, duration - 6.0)
        lo = int(begin / PHONE_SECONDS)
        hi = min(lo + int(rng.uniform(1.2, 2.5) / PHONE_SECONDS), n_slots)
        hype_mask[lo:hi] = np.maximum(hype_mask[lo:hi], float(rng.uniform(0.6, 0.95)))

    # Each component is built in its own helper, in the order the seeded
    # generator has always been drawn from, so a component's full-length
    # temporaries are gone before the next one allocates its own.
    samples_per_slot = int(sample_rate * PHONE_SECONDS)
    samples = _speech(speech_mask, excited_mask, hype_mask, samples_per_slot, t, sample_rate)
    samples += _engine(rng, t, sample_rate)
    samples += _crowd(rng, timeline, n, sample_rate)
    samples += _flutter(rng, duration, n_slots, samples_per_slot, t)
    samples += _surges(rng, duration, n, sample_rate)
    peak = np.abs(samples).max()
    if peak > 1.0:
        samples = samples / (peak * 1.05)

    phone_slots = _phone_plan(rng, timeline, speech_mask, n_slots)
    return RaceAudio(
        AudioSignal(samples, sample_rate), phone_slots, speech_intervals
    )


def smooth_slots(
    slot_values: np.ndarray, samples_per_slot: int, n: int, width: int
) -> np.ndarray:
    """Box-smoothed slot envelope, evaluated only where it varies.

    Equals ``np.convolve(np.repeat(slot_values, samples_per_slot)[:n],
    np.ones(width) / width, mode="same")`` bit for bit. Inside a run of
    equal slots, further than half a kernel from either end of the run,
    every output is the same dot product of a constant window; that value
    is computed once per distinct slot value. The same ``np.convolve`` runs
    only on the windows around slot-value changes and the two ends of the
    signal, where the kernel straddles a step.
    """
    slot_values = np.asarray(slot_values, dtype=np.float64)
    n = min(n, slot_values.shape[0] * samples_per_slot)
    if n < width:
        raise SynthesisError(
            f"envelope of {n} samples is shorter than its {width}-tap kernel"
        )
    kernel = np.ones(width) / width
    values, inverse = np.unique(slot_values, return_inverse=True)
    plateaus = np.array(
        [np.convolve(np.full(width, v), kernel, mode="valid")[0] for v in values]
    )
    out = np.repeat(plateaus[inverse], samples_per_slot)[:n]

    # Outputs whose window straddles a step at sample p: [p - before, p + after).
    before, after = (width - 1) // 2, width // 2
    changed = np.flatnonzero(slot_values[1:] != slot_values[:-1]) + 1
    steps = [0, *(p for p in (changed * samples_per_slot).tolist() if p < n), n]

    def convolve_into(lo: int, hi: int) -> None:
        """``out[lo:hi]`` from the samples those outputs read (at least a
        kernel's worth, so that numpy does not swap signal and kernel)."""
        a = max(lo - after, 0)
        b = min(hi + before, n)
        if b - a < width:
            a = max(b - width, 0)
            b = a + width
        raw = slot_values[np.arange(a, b) // samples_per_slot]
        out[lo:hi] = np.convolve(raw, kernel, mode="same")[lo - a : hi - a]

    lo, hi = 0, 0
    for p in steps:
        if p - before > hi:
            convolve_into(lo, hi)
            lo = p - before
        hi = min(p + after, n)
    convolve_into(lo, hi)
    return out


def _speech(
    speech_mask: np.ndarray,
    excited_mask: np.ndarray,
    hype_mask: np.ndarray,
    samples_per_slot: int,
    t: np.ndarray,
    sample_rate: int,
) -> np.ndarray:
    """Announcer speech: five harmonics of a pitch contour, syllable-
    modulated, under the slot envelopes with softened boundaries."""
    n = t.shape[0]
    width = samples_per_slot // 4
    speech_env = smooth_slots(speech_mask, samples_per_slot, n, width)
    excited_env = smooth_slots(excited_mask, samples_per_slot, n, width)
    hype_env = smooth_slots(hype_mask, samples_per_slot, n, width)

    pitch_drive = np.maximum(excited_env, 0.85 * hype_env)
    f0 = NEUTRAL_PITCH + (EXCITED_PITCH - NEUTRAL_PITCH) * pitch_drive
    f0 = f0 * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t))  # vibrato
    phase = 2 * np.pi * np.cumsum(f0) / sample_rate
    voice = np.zeros(n)
    # Excited voices are not just higher: their spectral tilt flattens
    # (pressed phonation pushes energy into the upper harmonics), which is
    # what gives the MFCC features genuine excitement information.
    tilt_drive = np.maximum(excited_env, 0.8 * hype_env)
    amplitude, partial = np.empty(n), np.empty(n)
    for harmonic, neutral_amp, excited_amp in (
        (1, 1.0, 0.95),
        (2, 0.6, 0.7),
        (3, 0.4, 0.55),
        (4, 0.25, 0.45),
        (5, 0.15, 0.35),
    ):
        # amplitude * sin(harmonic * phase), in two buffers for all five
        np.multiply(tilt_drive, excited_amp - neutral_amp, out=amplitude)
        amplitude += neutral_amp
        np.multiply(phase, harmonic, out=partial)
        np.sin(partial, out=partial)
        partial *= amplitude
        voice += partial
    drive = np.maximum(excited_env, hype_env)
    syllable_rate = 3.5 + 2.5 * drive
    syllables = 0.55 + 0.45 * np.sin(
        2 * np.pi * np.cumsum(syllable_rate) / sample_rate
    )
    loudness = 0.18 + 0.30 * drive
    return voice * syllables * loudness * speech_env


def _engine(rng: np.random.Generator, t: np.ndarray, sample_rate: int) -> np.ndarray:
    """Formula 1 engine: low-passed noise plus two rpm harmonics."""
    engine_noise = rng.standard_normal(t.shape[0])
    # crude low-pass via cumulative smoothing
    engine_noise = np.convolve(engine_noise, np.ones(8) / 8, mode="same")
    rpm = 110.0 + 60.0 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, np.pi))
    engine_phase = 2 * np.pi * np.cumsum(rpm) / sample_rate
    return 0.05 * engine_noise + 0.04 * np.sin(engine_phase) + 0.02 * np.sin(
        2 * engine_phase
    )


def _crowd(
    rng: np.random.Generator, timeline: RaceTimeline, n: int, sample_rate: int
) -> np.ndarray:
    """Crowd bursts at events and at random."""
    crowd = np.zeros(n)
    duration = timeline.duration
    burst_windows = [
        (event.time, event.time + event.duration)
        for event in timeline.events
        if event.kind != "pit_stop"
    ]
    for _ in range(int(rng.poisson(duration / 70.0))):
        begin = rng.uniform(5.0, duration - 8.0)
        burst_windows.append((begin, begin + float(rng.uniform(2.0, 5.0))))
    for begin, end in burst_windows:
        lo = int(begin * sample_rate)
        hi = min(int(end * sample_rate), n)
        if lo < hi:
            burst = rng.standard_normal(hi - lo)
            envelope = np.hanning(hi - lo)
            crowd[lo:hi] += 0.17 * burst * envelope
    return crowd


def _flutter(
    rng: np.random.Generator,
    duration: float,
    n_slots: int,
    samples_per_slot: int,
    t: np.ndarray,
) -> np.ndarray:
    """Flutter artifacts.

    Brief intermittent whistles / close-by engine pops: they land in the
    speech analysis bands and fool any per-step (atemporal) classifier,
    but they lack the sustained build-up of genuine excitement — exactly
    the noise a DBN's temporal model integrates away (Fig. 9).
    """
    n = t.shape[0]
    flutter = np.zeros(n)
    for _ in range(int(rng.poisson(duration / 45.0))):
        begin = rng.uniform(4.0, duration - 5.0)
        length = float(rng.uniform(0.8, 2.0))
        tone_hz = float(rng.uniform(300.0, 480.0))
        lo_slot = int(begin / PHONE_SECONDS)
        hi_slot = min(int((begin + length) / PHONE_SECONDS), n_slots)
        for slot in range(lo_slot, hi_slot):
            if rng.random() > 0.55:
                continue
            a = slot * samples_per_slot
            b = min(a + samples_per_slot, n)
            if a >= b:
                continue
            tt = t[a:b]
            whistle = 0.3 * np.sin(2 * np.pi * tone_hz * tt)
            pop = 0.2 * rng.standard_normal(b - a) * np.hanning(b - a)
            flutter[a:b] += whistle + pop
    return flutter


def _surges(
    rng: np.random.Generator, duration: float, n: int, sample_rate: int
) -> np.ndarray:
    """Engine surges.

    A car sweeping past the commentary box: a strong, SHORT broadband
    burst inside the 882-2205 Hz excitement band. Frequent enough that a
    per-step classifier keeps tripping over them; too brief to build up
    through a temporal model.
    """
    surges = np.zeros(n)
    for _ in range(int(rng.poisson(duration / 22.0))):
        begin = rng.uniform(3.0, duration - 3.0)
        length = float(rng.uniform(0.3, 1.0))
        a = int(begin * sample_rate)
        b = min(int((begin + length) * sample_rate), n)
        if a >= b:
            continue
        burst = rng.standard_normal(b - a)
        # shape the noise toward the 0.8-2.5 kHz band with a crude
        # differencing high-pass followed by smoothing
        burst = np.diff(burst, prepend=burst[0])
        burst = np.convolve(burst, np.ones(4) / 4, mode="same")
        surges[a:b] += 0.5 * burst * np.hanning(b - a)
    return surges


def _speech_plan(
    rng: np.random.Generator, timeline: RaceTimeline
) -> list[Interval]:
    """Alternating talk/pause plan; excitement forces talk on."""
    out: list[Interval] = []
    time = float(rng.uniform(0.0, 1.0))
    while time < timeline.duration - 1.0:
        talk = float(rng.uniform(2.0, 6.0))
        end = min(time + talk, timeline.duration)
        out.append(Interval(time, end, "talk"))
        time = end + float(rng.uniform(0.4, 1.8))
    # announcer always talks through his excitement
    out.extend(
        Interval(i.start, min(i.end, timeline.duration), "talk")
        for i in timeline.excitement
        if i.start < timeline.duration
    )
    return out


def _pronounce(word: str) -> list[str]:
    """Phone spelling: lexicon entry, else letter-by-letter fallback."""
    if word in F1_KEYWORDS:
        return list(F1_KEYWORDS[word])
    return [c for c in word.lower() if c in set(p for p in PHONES if len(p) == 1)]


def _phone_plan(
    rng: np.random.Generator,
    timeline: RaceTimeline,
    speech_mask: np.ndarray,
    n_slots: int,
) -> list[str | None]:
    """True phone per 0.1 s slot: keywords at their times, filler elsewhere."""
    single = [p for p in PHONES if len(p) == 1]
    slots: list[str | None] = [
        (single[int(rng.integers(len(single)))] if speech_mask[i] else None)
        for i in range(n_slots)
    ]
    for time, word in timeline.keywords:
        phones = _pronounce(word)
        start = int(time / PHONE_SECONDS)
        for offset, phone in enumerate(phones):
            index = start + offset
            if 0 <= index < n_slots:
                slots[index] = phone
    return slots
