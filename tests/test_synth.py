"""Synthetic race substrate: timelines, annotations, audio, video."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.synth.annotations import GroundTruth, Interval, merge_intervals, raster
from repro.synth.audio_synth import SlotEnvelope, _Engine, smooth_slots, synthesize_audio
from repro.synth.grandprix import BELGIAN_GP, GERMAN_GP, USA_GP
from repro.synth.race import RaceSpec, generate_timeline
from repro.synth.text_synth import draw_overlay
from repro.synth.video_synth import RaceVideoRenderer

SPEC = RaceSpec(
    name="unit",
    duration=200.0,
    n_passings=2,
    n_fly_outs=1,
    n_pit_stops=1,
    seed=4,
)


class TestIntervals:
    def test_empty_interval_rejected(self):
        with pytest.raises(SynthesisError):
            Interval(5, 5)

    def test_overlap_seconds(self):
        assert Interval(0, 4).overlap_seconds(Interval(2, 6)) == 2.0
        assert Interval(0, 1).overlap_seconds(Interval(2, 3)) == 0.0

    def test_merge_with_gap(self):
        merged = merge_intervals([Interval(0, 1), Interval(1.4, 2)], gap=0.5)
        assert len(merged) == 1
        merged = merge_intervals([Interval(0, 1), Interval(2, 3)], gap=0.5)
        assert len(merged) == 2

    def test_raster(self):
        r = raster([Interval(0.5, 1.0)], 20, 0.1)
        assert r[5] == 1.0 and r[4] == 0.0 and r[10] == 0.0
        assert r.sum() == pytest.approx(5.0)

    def test_ground_truth_kinds(self):
        truth = GroundTruth(duration=10.0)
        with pytest.raises(SynthesisError):
            truth.of_kind("nonsense")


class TestTimeline:
    def test_event_counts_match_spec(self):
        timeline = generate_timeline(SPEC)
        kinds = [e.kind for e in timeline.events]
        assert kinds.count("start") == 1
        assert kinds.count("passing") == SPEC.n_passings
        assert kinds.count("fly_out") == SPEC.n_fly_outs
        assert kinds.count("pit_stop") == SPEC.n_pit_stops

    def test_deterministic_given_seed(self):
        a = generate_timeline(SPEC)
        b = generate_timeline(SPEC)
        assert [e.time for e in a.events] == [e.time for e in b.events]

    def test_events_inside_race(self):
        timeline = generate_timeline(SPEC)
        for event in timeline.events:
            assert 0 <= event.time < SPEC.duration
            assert event.time + event.duration <= SPEC.duration

    def test_events_well_separated(self):
        timeline = generate_timeline(SPEC)
        times = sorted(e.time for e in timeline.events if e.kind != "start")
        gaps = np.diff(times)
        assert gaps.min() >= 17.9

    def test_replays_follow_events(self):
        timeline = generate_timeline(SPEC)
        for interval, event in timeline.replays:
            assert interval.start >= event.time + event.duration

    def test_ground_truth_highlights_cover_events(self):
        timeline = generate_timeline(SPEC)
        truth = timeline.ground_truth()
        for event in timeline.events:
            if event.kind in ("start", "passing", "fly_out"):
                assert any(
                    event.interval.overlaps(h) for h in truth.highlights
                ), event

    def test_usa_has_no_flyouts(self):
        truth = generate_timeline(USA_GP).ground_truth()
        assert truth.fly_outs == []

    def test_german_passings_visible(self):
        timeline = generate_timeline(GERMAN_GP)
        passings = [e for e in timeline.events if e.kind == "passing"]
        assert np.mean([e.visibility for e in passings]) > 0.7
        timeline_b = generate_timeline(BELGIAN_GP)
        passings_b = [e for e in timeline_b.events if e.kind == "passing"]
        assert np.mean([e.visibility for e in passings_b]) < 0.5

    def test_too_short_race_rejected(self):
        with pytest.raises(SynthesisError):
            RaceSpec(name="x", duration=60.0)

    def test_overlays_fit_frame(self):
        from repro.text.patterns import render_text

        timeline = generate_timeline(SPEC)
        for _, words in timeline.overlays:
            width = render_text(" ".join(words), scale=1, spacing=1).shape[1]
            assert width + 6 <= 192, words


class TestAudioSynth:
    def test_signal_shape_and_range(self):
        timeline = generate_timeline(SPEC)
        audio = synthesize_audio(timeline)
        assert audio.signal.duration == pytest.approx(SPEC.duration)
        assert np.abs(audio.signal.samples).max() <= 1.0

    def test_phone_slots_align(self):
        timeline = generate_timeline(SPEC)
        audio = synthesize_audio(timeline)
        assert len(audio.phone_slots) == int(SPEC.duration * 10)

    def test_keywords_planted_in_phone_stream(self):
        timeline = generate_timeline(SPEC)
        audio = synthesize_audio(timeline)
        from repro.audio.keywords import F1_KEYWORDS

        for time, word in timeline.keywords[:3]:
            slot = int(time / 0.1)
            phones = audio.phone_slots[slot : slot + len(F1_KEYWORDS.get(word, ()))]
            if word in F1_KEYWORDS and all(p is not None for p in phones):
                assert tuple(phones) == F1_KEYWORDS[word]

    @pytest.mark.parametrize("duration", [200.04, 200.05])
    def test_duration_between_slots(self, duration):
        """The slot count rounds down, so the track runs past its last
        0.1 s slot; the envelopes hold that slot over the extra samples."""
        audio = synthesize_audio(generate_timeline(replace(SPEC, duration=duration)))
        samples = audio.signal.samples
        assert samples.shape == (int(duration * 16000),)
        assert len(audio.phone_slots) == 2000
        assert np.isfinite(samples).all() and np.abs(samples).max() <= 1.0

    def test_excitement_louder_than_neutral(self):
        timeline = generate_timeline(SPEC)
        audio = synthesize_audio(timeline)
        fs = audio.signal.sample_rate
        truth = timeline.ground_truth()
        r = raster(truth.excited_speech, int(SPEC.duration * 10))
        env = audio.signal.samples**2
        per_clip = env[: len(r) * fs // 10].reshape(len(r), -1).mean(axis=1)
        assert per_clip[r > 0].mean() > 1.5 * per_clip[r == 0].mean()


def full_smoothing(values, samples_per_slot, n, width):
    """What ``smooth_slots`` replaces: the whole envelope convolved."""
    envelope = np.repeat(np.asarray(values, dtype=np.float64), samples_per_slot)[:n]
    return np.convolve(envelope, np.ones(width) / width, mode="same")


class TestSmoothSlots:
    """``smooth_slots`` is the full box convolution, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 0.35]),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        samples_per_slot=st.integers(1, 48),
        width=st.integers(1, 40),
        cut=st.integers(0, 47),
    )
    # adjacent slots that all differ, first and last non-zero
    @example(values=[0.3, 0.9, 0.1, 0.7, 0.2], samples_per_slot=16, width=4, cut=0)
    # slots narrower than the kernel: every window straddles several steps
    @example(values=[0.3, 0.9, 0.1, 0.7, 0.2, 0.5], samples_per_slot=3, width=8, cut=1)
    # a single slot
    @example(values=[0.6], samples_per_slot=20, width=5, cut=0)
    # n not a multiple of the slot length
    @example(values=[0.0, 1.0, 1.0, 0.0], samples_per_slot=16, width=4, cut=7)
    # all-zero and all-equal envelopes
    @example(values=[0.0] * 6, samples_per_slot=16, width=4, cut=0)
    @example(values=[0.8] * 6, samples_per_slot=16, width=4, cut=3)
    # the signal is exactly one kernel long
    @example(values=[0.2, 0.4], samples_per_slot=4, width=8, cut=0)
    def test_equals_full_convolution(self, values, samples_per_slot, width, cut):
        n = len(values) * samples_per_slot - min(cut, samples_per_slot - 1)
        if n < width:
            with pytest.raises(SynthesisError):
                smooth_slots(np.array(values), samples_per_slot, n, width)
            return
        smoothed = smooth_slots(np.array(values), samples_per_slot, n, width)
        expected = full_smoothing(values, samples_per_slot, n, width)
        assert smoothed.shape == expected.shape
        assert np.array_equal(smoothed, expected)

    def test_at_synthesis_scale(self):
        """16 kHz slots and the 400-tap kernel ``synthesize_audio`` uses,
        on an envelope with bursts of distinct intensities."""
        rng = np.random.default_rng(5)
        values = np.zeros(300)
        for start in rng.integers(0, 280, size=12):
            values[start : start + int(rng.integers(1, 20))] = rng.uniform(0.35, 1.0)
        values[0], values[-1] = 0.5, 0.9
        smoothed = smooth_slots(values, 1600, 300 * 1600 - 123, 400)
        assert np.array_equal(smoothed, full_smoothing(values, 1600, 300 * 1600 - 123, 400))

    def test_longer_request_than_slots_is_clipped_like_repeat(self):
        values = np.array([0.0, 1.0, 0.5])
        assert np.array_equal(
            smooth_slots(values, 10, 1000, 4), full_smoothing(values, 10, 1000, 4)
        )


class TestSlotEnvelope:
    """A ``SlotEnvelope`` read in blocks of any size is the full box
    convolution of its slots, with the last slot held over any samples
    past them."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 0.35]),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
        samples_per_slot=st.integers(1, 24),
        width=st.integers(1, 30),
        extra=st.integers(-23, 40),
        block=st.integers(1, 60),
    )
    # blocks shorter than the kernel, and a held tail longer than it
    @example(values=[0.3, 0.9, 0.1], samples_per_slot=16, width=12, extra=25, block=5)
    # a held tail inside the last window of a step
    @example(values=[0.0, 1.0], samples_per_slot=8, width=8, extra=2, block=3)
    def test_blocks_equal_full_convolution(
        self, values, samples_per_slot, width, extra, block
    ):
        n = len(values) * samples_per_slot + max(extra, 1 - samples_per_slot)
        slots = np.minimum(np.arange(n) // samples_per_slot, len(values) - 1)
        held = np.asarray(values, dtype=np.float64)[slots]
        if n < width:
            with pytest.raises(SynthesisError):
                SlotEnvelope(np.array(values), samples_per_slot, n, width)
            return
        envelope = SlotEnvelope(np.array(values), samples_per_slot, n, width)
        blocks = [envelope.block(lo, min(lo + block, n)) for lo in range(0, n, block)]
        expected = np.convolve(held, np.ones(width) / width, mode="same")
        assert np.array_equal(np.concatenate(blocks), expected)


def whole_track_engine(rng, n, sample_rate):
    """The engine as one whole-track expression: the oracle for ``_Engine``."""
    engine_noise = rng.standard_normal(n)
    engine_noise = np.convolve(engine_noise, np.ones(8) / 8, mode="same")
    t = np.arange(n) / sample_rate
    rpm = 110.0 + 60.0 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, np.pi))
    engine_phase = 2 * np.pi * np.cumsum(rpm) / sample_rate
    return 0.05 * engine_noise + 0.04 * np.sin(engine_phase) + 0.02 * np.sin(
        2 * engine_phase
    )


@pytest.mark.parametrize("block", [1, 3, 7, 8, 1601, 5000])
def test_engine_blocks_equal_the_whole_track(block):
    """Blocks shorter than the 8-tap noise smoothing read their neighbours'
    noise; the generator is left where the whole-track draws leave it."""
    n, sample_rate = 5000, 16000
    oracle_rng = np.random.default_rng(9)
    expected = whole_track_engine(oracle_rng, n, sample_rate)
    rng = np.random.default_rng(9)
    engine = _Engine(rng, n, sample_rate)
    rendered = [engine.render(lo, min(lo + block, n)) for lo in range(0, n, block)]
    assert np.concatenate(rendered).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestVideoSynth:
    def test_frame_index_outside_the_race_rejected(self):
        renderer = RaceVideoRenderer(generate_timeline(SPEC))
        assert renderer.frame(renderer.n_frames - 1).shape == (144, 192, 3)
        for index in (-1, renderer.n_frames, renderer.n_frames + 50):
            with pytest.raises(SynthesisError, match="outside"):
                renderer.frame(index)

    def test_frames_deterministic(self):
        timeline = generate_timeline(SPEC)
        renderer = RaceVideoRenderer(timeline)
        assert np.array_equal(renderer.frame(100), renderer.frame(100))

    def test_stream_replayable(self):
        timeline = generate_timeline(SPEC)
        stream = RaceVideoRenderer(timeline).stream()
        first = next(iter(stream))
        again = next(iter(stream))
        assert np.array_equal(first, again)

    def test_semaphore_present_before_start(self):
        from repro.video.semaphore import red_rectangle

        timeline = generate_timeline(SPEC)
        renderer = RaceVideoRenderer(timeline, noise=0)
        start = next(e for e in timeline.events if e.kind == "start")
        frame = renderer.frame(int((start.time - 1.0) * 10))
        assert red_rectangle(frame) is not None
        frame_after = renderer.frame(int((start.time + 2.0) * 10))
        assert red_rectangle(frame_after) is None

    def test_sand_during_flyout(self):
        from repro.video.flyout import sand_fraction

        timeline = generate_timeline(SPEC)
        renderer = RaceVideoRenderer(timeline, noise=0)
        fly = next(e for e in timeline.events if e.kind == "fly_out")
        mid = renderer.frame(int((fly.time + fly.duration / 2) * 10))
        before = renderer.frame(int((fly.time - 5.0) * 10))
        assert sand_fraction(mid) > sand_fraction(before) + 0.02

    def test_overlay_rendered(self):
        timeline = generate_timeline(SPEC)
        renderer = RaceVideoRenderer(timeline, noise=0)
        interval, words = timeline.overlays[0]
        frame = renderer.frame(int((interval.start + 1.0) * 10))
        strip = frame[int(144 * 0.8) :]
        assert (strip > 200).any()  # bright characters present

    def test_draw_overlay_too_wide_rejected(self):
        frame = np.zeros((72, 60, 3), dtype=np.uint8)
        with pytest.raises(SynthesisError):
            draw_overlay(frame, ["CLASSIFICATION", "CLASSIFICATION"])


class TestPresets:
    @pytest.mark.parametrize("spec", [GERMAN_GP, BELGIAN_GP, USA_GP])
    def test_presets_generate(self, spec):
        timeline = generate_timeline(spec)
        assert timeline.duration == spec.duration
        truth = timeline.ground_truth()
        assert truth.highlights
