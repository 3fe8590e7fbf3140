"""Audio synthesis for a race timeline.

Produces the broadcast soundtrack the paper's §5.2 analyses: announcer
speech (excited speech with raised pitch and energy — "whenever something
important happens the announcer raises his voice due to his excitement"),
Formula 1 engine noise, crowd bursts at events, plus the true phone stream
for the simulated keyword-spotting front-end.

Everything is seeded and vectorized; the defaults (16 kHz) trade the
paper's 22 kHz for speed while keeping every analysis band below Nyquist.

The track is rendered one block of ``SYNTH_BLOCK_SAMPLES`` samples at a
time into the one output array: the slot envelopes, phases, engine noise
and mix exist for a block only, the sparse bursts (crowd, flutter, surges)
are drawn up front and held for the stretches they cover. Every sample
equals the whole-track computation bit for bit, whatever the block size.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.audio.keywords import F1_KEYWORDS, PHONES, PHONE_SECONDS
from repro.audio.signal import AudioSignal
from repro.errors import SynthesisError
from repro.synth.annotations import Interval, raster
from repro.synth.race import RaceTimeline

__all__ = ["RaceAudio", "SlotEnvelope", "synthesize_audio", "smooth_slots"]

#: Neutral and excited announcer pitch (Hz).
NEUTRAL_PITCH = 135.0
EXCITED_PITCH = 255.0

#: Samples per block of :func:`synthesize_audio` (~4 s at 16 kHz; ~0.5 MB
#: per float64 temporary of a block).
SYNTH_BLOCK_SAMPLES = 1 << 16


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

    # The components are set up in the order the seeded generator has always
    # been drawn from; while the blocks are rendered only the engine's copy
    # of it is drawn, and the phone plan draws from it last.
    samples_per_slot = int(sample_rate * PHONE_SECONDS)
    speech = _Speech(speech_mask, excited_mask, hype_mask, samples_per_slot, n, sample_rate)
    engine = _Engine(rng, n, sample_rate)
    crowd = _crowd(rng, timeline, n, sample_rate)
    flutter = _flutter(rng, duration, n_slots, samples_per_slot, n, sample_rate)
    surges = _surges(rng, duration, n, sample_rate)

    # Every sample is the same sum, added in the same order, whatever the
    # block: ((((speech + engine) + crowd) + flutter) + surges).
    samples = np.empty(n)
    peak = 0.0
    for a in range(0, n, SYNTH_BLOCK_SAMPLES):
        b = min(a + SYNTH_BLOCK_SAMPLES, n)
        block = samples[a:b]
        speech.render(a, b, out=block)
        block += engine.render(a, b)
        for bursts in (crowd, flutter, surges):
            block += bursts.render(a, b)
        peak = max(peak, np.abs(block).max())
    if peak > 1.0:
        samples /= peak * 1.05

    phone_slots = _phone_plan(rng, timeline, speech_mask, n_slots)
    return RaceAudio(
        AudioSignal(samples, sample_rate), phone_slots, speech_intervals
    )


class SlotEnvelope:
    """Box-smoothed slot envelope, computed one block of samples at a time.

    ``block(lo, hi)`` equals ``np.convolve(held, np.ones(width) / width,
    mode="same")[lo:hi]`` bit for bit, where ``held`` is the ``n`` samples
    ``np.repeat(slot_values, samples_per_slot)`` with the last slot held
    over any samples past the end of the slots. Inside a run of equal
    slots, further than half a kernel from either end of the run, every
    output is the same dot product of a constant window; that value is
    computed once per distinct slot value. The same ``np.convolve`` runs
    only on the windows around slot-value changes and the two ends of the
    signal, where the kernel straddles a step.
    """

    def __init__(
        self, slot_values: np.ndarray, samples_per_slot: int, n: int, width: int
    ):
        slot_values = np.asarray(slot_values, dtype=np.float64)
        if n < width:
            raise SynthesisError(
                f"envelope of {n} samples is shorter than its {width}-tap kernel"
            )
        self._values = slot_values
        self._samples_per_slot = samples_per_slot
        self._n = n
        self._width = width
        self._kernel = np.ones(width) / width
        values, inverse = np.unique(slot_values, return_inverse=True)
        plateaus = np.array(
            [np.convolve(np.full(width, v), self._kernel, mode="valid")[0] for v in values]
        )
        self._plateaus = plateaus[inverse]
        # Outputs whose window straddles a step at sample p: [p - before, p + after).
        self._before, self._after = (width - 1) // 2, width // 2
        changed = np.flatnonzero(slot_values[1:] != slot_values[:-1]) + 1
        steps = changed * samples_per_slot
        self._steps = np.concatenate([[0], steps[steps < n], [n]])

    def _slots(self, lo: int, hi: int) -> np.ndarray:
        """The slot each sample in [lo, hi) takes its value from."""
        return np.minimum(
            np.arange(lo, hi) // self._samples_per_slot, self._values.shape[0] - 1
        )

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The smoothed envelope over samples [lo, hi)."""
        out = self._plateaus[self._slots(lo, hi)]
        before, after, n = self._before, self._after, self._n
        # Steps straddled by some output in [lo, hi), merged into runs whose
        # windows touch, each run convolved once and clipped to the block.
        first = int(np.searchsorted(self._steps, lo - after, side="right"))
        last = int(np.searchsorted(self._steps, hi + before, side="left"))
        run: tuple[int, int] | None = None
        for p in self._steps[first:last].tolist():
            if run is not None and p - before <= run[1]:
                run = (run[0], min(p + after, n))
                continue
            if run is not None:
                self._convolve_into(out, lo, hi, *run)
            run = (max(p - before, 0), min(p + after, n))
        if run is not None:
            self._convolve_into(out, lo, hi, *run)
        return out

    def _convolve_into(
        self, out: np.ndarray, lo: int, hi: int, run_lo: int, run_hi: int
    ) -> None:
        """Outputs [run_lo, run_hi) that fall in the block [lo, hi), from the
        samples they read (at least a kernel's worth, so that numpy does not
        swap signal and kernel)."""
        start, stop = max(run_lo, lo), min(run_hi, hi)
        if start >= stop:
            return
        a = max(start - self._after, 0)
        b = min(stop + self._before, self._n)
        if b - a < self._width:
            a = max(b - self._width, 0)
            b = a + self._width
        raw = self._values[self._slots(a, b)]
        smoothed = np.convolve(raw, self._kernel, mode="same")
        out[start - lo : stop - lo] = smoothed[start - a : stop - a]


def smooth_slots(
    slot_values: np.ndarray, samples_per_slot: int, n: int, width: int
) -> np.ndarray:
    """Box-smoothed slot envelope of the whole track (a :class:`SlotEnvelope`
    read in one block).

    Equals ``np.convolve(np.repeat(slot_values, samples_per_slot)[:n],
    np.ones(width) / width, mode="same")`` bit for bit: ``n`` past the end
    of the slots is cut back to it, like ``np.repeat(...)[:n]``.
    """
    n = min(n, np.shape(slot_values)[0] * samples_per_slot)
    return SlotEnvelope(slot_values, samples_per_slot, n, width).block(0, n)


class _RunningSum:
    """``np.cumsum`` over a track taken one block at a time: each block's
    first value is added to the total carried from the block before — the
    addition the whole-track ``cumsum`` makes there — and the rest of the
    block is summed on from it."""

    def __init__(self) -> None:
        self._total: float | None = None

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Replace ``values`` by the running sum through its last value."""
        if self._total is not None:
            values[0] += self._total
        np.cumsum(values, out=values)
        self._total = values[-1]
        return values


class _Speech:
    """Announcer speech: five harmonics of a pitch contour, syllable-
    modulated, under the slot envelopes with softened boundaries."""

    def __init__(
        self,
        speech_mask: np.ndarray,
        excited_mask: np.ndarray,
        hype_mask: np.ndarray,
        samples_per_slot: int,
        n: int,
        sample_rate: int,
    ):
        width = samples_per_slot // 4
        self._speech = SlotEnvelope(speech_mask, samples_per_slot, n, width)
        self._excited = SlotEnvelope(excited_mask, samples_per_slot, n, width)
        self._hype = SlotEnvelope(hype_mask, samples_per_slot, n, width)
        self._sample_rate = sample_rate
        self._phase = _RunningSum()
        self._syllable_clock = _RunningSum()

    def render(self, a: int, b: int, out: np.ndarray) -> None:
        """Samples [a, b) into ``out``."""
        sample_rate = self._sample_rate
        t = np.arange(a, b) / sample_rate
        excited_env = self._excited.block(a, b)
        hype_env = self._hype.block(a, b)

        pitch_drive = np.maximum(excited_env, 0.85 * hype_env)
        f0 = NEUTRAL_PITCH + (EXCITED_PITCH - NEUTRAL_PITCH) * pitch_drive
        f0 = f0 * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t))  # vibrato
        phase = 2 * np.pi * self._phase(f0) / sample_rate
        voice = np.zeros(b - a)
        # Excited voices are not just higher: their spectral tilt flattens
        # (pressed phonation pushes energy into the upper harmonics), which is
        # what gives the MFCC features genuine excitement information.
        tilt_drive = np.maximum(excited_env, 0.8 * hype_env)
        amplitude, partial = np.empty(b - a), np.empty(b - a)
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
            2 * np.pi * self._syllable_clock(syllable_rate) / sample_rate
        )
        loudness = 0.18 + 0.30 * drive
        voice *= syllables
        voice *= loudness
        np.multiply(voice, self._speech.block(a, b), out=out)


#: The engine's crude low-pass: an 8-tap box over its noise.
_ENGINE_SMOOTHING = np.ones(8) / 8


class _Engine:
    """Formula 1 engine: low-passed noise plus two rpm harmonics.

    The generator draws the whole track's noise and only then the rpm
    phase. So the engine keeps a copy of the generator where the noise
    starts, draws the main one past the noise to reach the phase, and
    re-draws the noise from the copy a block at a time — the same values,
    since ``standard_normal`` drawn in pieces is the same sequence.
    """

    def __init__(self, rng: np.random.Generator, n: int, sample_rate: int):
        self._noise = copy.deepcopy(rng)
        _skip_standard_normals(rng, n)
        self._offset = rng.uniform(0, np.pi)
        self._n = n
        self._sample_rate = sample_rate
        self._phase = _RunningSum()
        # Noise drawn so far: samples [self._drawn_lo, self._drawn_lo + len).
        self._drawn = np.empty(0)
        self._drawn_lo = 0

    def _noise_window(self, lo: int, hi: int) -> np.ndarray:
        """Noise samples [lo, hi), lo and hi never moving backwards."""
        drawn_hi = self._drawn_lo + self._drawn.shape[0]
        fresh = self._noise.standard_normal(hi - drawn_hi)
        self._drawn = np.concatenate([self._drawn[lo - self._drawn_lo :], fresh])
        self._drawn_lo = lo
        return self._drawn

    def render(self, a: int, b: int) -> np.ndarray:
        """Samples [a, b)."""
        # the smoothing reads 4 samples before and 3 after each output; a
        # kernel's width either side of the block covers them
        margin = _ENGINE_SMOOTHING.shape[0]
        lo, hi = max(a - margin, 0), min(b + margin, self._n)
        smoothed = np.convolve(self._noise_window(lo, hi), _ENGINE_SMOOTHING, mode="same")
        engine_noise = smoothed[a - lo : b - lo]
        t = np.arange(a, b) / self._sample_rate
        rpm = 110.0 + 60.0 * np.sin(2 * np.pi * 0.05 * t + self._offset)
        engine_phase = 2 * np.pi * self._phase(rpm) / self._sample_rate
        return 0.05 * engine_noise + 0.04 * np.sin(engine_phase) + 0.02 * np.sin(
            2 * engine_phase
        )


def _skip_standard_normals(rng: np.random.Generator, count: int) -> None:
    """Advance ``rng`` past ``count`` standard normals, a block at a time."""
    buffer = np.empty(min(count, SYNTH_BLOCK_SAMPLES))
    for done in range(0, count, buffer.shape[0]):
        rng.standard_normal(out=buffer[: min(buffer.shape[0], count - done)])


class _Bursts:
    """Sparse additions to the track, drawn up front: ``(start, samples)``
    pairs in draw order."""

    def __init__(self, bursts: list[tuple[int, np.ndarray]]):
        self._bursts = bursts
        self._starts = np.array([start for start, _ in bursts], dtype=np.int64)
        self._stops = self._starts + np.array(
            [values.shape[0] for _, values in bursts], dtype=np.int64
        )

    def render(self, a: int, b: int) -> np.ndarray:
        """Samples [a, b): zero plus every burst overlapping them, in draw
        order — what a whole-track ``zeros(n)`` accumulated them into."""
        out = np.zeros(b - a)
        for index in np.flatnonzero((self._starts < b) & (self._stops > a)).tolist():
            start, values = self._bursts[index]
            lo, hi = max(start, a), min(start + values.shape[0], b)
            out[lo - a : hi - a] += values[lo - start : hi - start]
        return out


def _crowd(
    rng: np.random.Generator, timeline: RaceTimeline, n: int, sample_rate: int
) -> _Bursts:
    """Crowd bursts at events and at random."""
    crowd: list[tuple[int, np.ndarray]] = []
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
            crowd.append((lo, 0.17 * burst * envelope))
    return _Bursts(crowd)


def _flutter(
    rng: np.random.Generator,
    duration: float,
    n_slots: int,
    samples_per_slot: int,
    n: int,
    sample_rate: int,
) -> _Bursts:
    """Flutter artifacts.

    Brief intermittent whistles / close-by engine pops: they land in the
    speech analysis bands and fool any per-step (atemporal) classifier,
    but they lack the sustained build-up of genuine excitement — exactly
    the noise a DBN's temporal model integrates away (Fig. 9).
    """
    flutter: list[tuple[int, np.ndarray]] = []
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
            tt = np.arange(a, b) / sample_rate
            whistle = 0.3 * np.sin(2 * np.pi * tone_hz * tt)
            pop = 0.2 * rng.standard_normal(b - a) * np.hanning(b - a)
            flutter.append((a, whistle + pop))
    return _Bursts(flutter)


def _surges(
    rng: np.random.Generator, duration: float, n: int, sample_rate: int
) -> _Bursts:
    """Engine surges.

    A car sweeping past the commentary box: a strong, SHORT broadband
    burst inside the 882-2205 Hz excitement band. Frequent enough that a
    per-step classifier keeps tripping over them; too brief to build up
    through a temporal model.
    """
    surges: list[tuple[int, np.ndarray]] = []
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
        surges.append((a, 0.5 * burst * np.hanning(b - a)))
    return _Bursts(surges)


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
