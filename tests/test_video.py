"""Visual substrate: histograms, shots, motion, semaphore, DVE, fly-out."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.video.flyout import dust_fraction, sand_fraction
from repro.video.frames import FrameStream, check_frame
from repro.video.histogram import color_histogram, histogram_difference
from repro.video.motion import frame_difference, motion_histogram, passing_score
from repro.video.replay import DveDetector, ReplaySegmenter, wipe_band_score
from repro.video.semaphore import SemaphoreTracker, red_rectangle, semaphore_score
from repro.video.shots import ShotDetector

H, W = 72, 96


def flat(value, h=H, w=W):
    return np.full((h, w, 3), value, dtype=np.uint8)


def noisy(base, rng, amplitude=5):
    return np.clip(
        base.astype(np.int16) + rng.integers(-amplitude, amplitude + 1, base.shape),
        0,
        255,
    ).astype(np.uint8)


class TestFrames:
    def test_check_frame_shape(self):
        with pytest.raises(SignalError):
            check_frame(np.zeros((10, 10)))

    def test_check_frame_range(self):
        with pytest.raises(SignalError):
            check_frame(np.full((4, 4, 3), 300.0))

    def test_stream_length_enforced(self):
        stream = FrameStream(lambda: iter([flat(10)]), fps=10, n_frames=2, height=H, width=W)
        with pytest.raises(SignalError):
            list(stream)

    def test_stream_replayable(self):
        stream = FrameStream.from_frames([flat(10), flat(20)], fps=10)
        assert len(list(stream)) == 2
        assert len(list(stream)) == 2  # second pass works

    def test_duration(self):
        stream = FrameStream.from_frames([flat(0)] * 30, fps=10)
        assert stream.duration == pytest.approx(3.0)

    def test_chunks_cover_the_stream_in_order(self, monkeypatch):
        monkeypatch.setattr("repro.video.frames.CHUNK_FRAMES", 4)
        stream = FrameStream.from_frames([flat(i) for i in range(10)], fps=10)
        assert (stream.height, stream.width) == (H, W)
        chunks = list(stream.chunks())
        assert [(start, c.shape) for start, c in chunks] == [
            (0, (4, H, W, 3)),
            (4, (4, H, W, 3)),
            (8, (2, H, W, 3)),
        ]
        assert all(c.dtype == np.uint8 for _, c in chunks)
        assert [int(f[0, 0, 0]) for _, c in chunks for f in c] == list(range(10))
        assert [int(f[0, 0, 0]) for f in stream] == list(range(10))

    def test_chunks_validate_every_frame(self):
        bad_value = [flat(10), np.full((H, W, 3), 300.0)]
        with pytest.raises(SignalError):
            list(FrameStream(lambda: iter(bad_value), 10, 2, H, W).chunks())
        floats = FrameStream(lambda: iter([np.full((H, W, 3), 7.0)]), 10, 1, H, W)
        (_, chunk), = floats.chunks()
        assert chunk.dtype == np.uint8 and chunk[0, 0, 0, 0] == 7

    def test_frame_of_another_size_rejected(self):
        stream = FrameStream(lambda: iter([flat(10), flat(10, h=H // 2)]), 10, 2, H, W)
        with pytest.raises(SignalError, match="differ in shape"):
            list(stream.chunks())

    def test_stream_overproduction_rejected(self):
        stream = FrameStream(lambda: iter([flat(10)] * 3), fps=10, n_frames=2, height=H, width=W)
        with pytest.raises(SignalError, match="promised 2"):
            list(stream.chunks())


class TestHistograms:
    def test_histogram_normalized(self):
        h = color_histogram(flat(100))
        assert h.shape == (3, 8)
        assert np.allclose(h.sum(axis=1), 1.0)

    def test_difference_zero_for_identical(self):
        h = color_histogram(flat(100))
        assert histogram_difference(h, h) == 0.0

    def test_difference_max_for_disjoint(self):
        d = histogram_difference(color_histogram(flat(0)), color_histogram(flat(255)))
        assert d == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(SignalError):
            histogram_difference(np.ones((3, 8)), np.ones((3, 4)))


class TestShots:
    def test_detects_single_cut(self, rng):
        frames = [noisy(flat(60), rng) for _ in range(20)]
        frames += [noisy(flat(180), rng) for _ in range(20)]
        cuts = ShotDetector().cuts(FrameStream.from_frames(frames, 10))
        assert cuts == [20]

    def test_no_cut_in_static_scene(self, rng):
        frames = [noisy(flat(90), rng) for _ in range(30)]
        assert ShotDetector().cuts(FrameStream.from_frames(frames, 10)) == []

    def test_gradual_motion_not_a_cut(self, rng):
        frames = []
        for i in range(40):
            f = flat(90)
            x = (i * 3) % (W - 10)
            f[30:40, x : x + 10] = 200
            frames.append(noisy(f, rng))
        assert ShotDetector().cuts(FrameStream.from_frames(frames, 10)) == []

    def test_shots_partition_stream(self, rng):
        frames = [noisy(flat(60), rng) for _ in range(15)]
        frames += [noisy(flat(190), rng) for _ in range(15)]
        shots = ShotDetector().shots(FrameStream.from_frames(frames, 10))
        assert shots[0].start_frame == 0
        assert shots[-1].end_frame == 30
        assert sum(s.n_frames for s in shots) == 30

    def test_debounce(self, rng):
        # two "cuts" 1 frame apart: only the first counts
        frames = [noisy(flat(60), rng)] * 10 + [noisy(flat(180), rng)] + [
            noisy(flat(60), rng)
        ] * 10
        cuts = ShotDetector(min_shot_frames=3).cuts(
            FrameStream.from_frames(frames, 10)
        )
        assert len(cuts) <= 2


class TestMotion:
    def test_frame_difference_gated(self, rng):
        a = noisy(flat(100), rng)
        b = noisy(flat(100), rng)
        assert frame_difference(a, b) == pytest.approx(0.0, abs=1e-4)

    def test_frame_difference_detects_change(self):
        a = flat(100)
        b = flat(100)
        b[:, : W // 2] = 200
        assert frame_difference(a, b) > 0.1

    def test_motion_histogram_uniform_for_static(self):
        h = motion_histogram(flat(50), flat(50))
        assert np.allclose(h, 1.0 / len(h))

    def test_motion_histogram_localizes(self):
        a = flat(50)
        b = flat(50)
        b[:, :8] = 250
        h = motion_histogram(a, b, n_bands=12)
        assert h[0] > 0.9

    def test_passing_score_high_for_sweep(self):
        hists = []
        prev = None
        for i in range(6):
            f = flat(80)
            x = 10 + i * 12
            f[30:50, x : x + 14] = 230
            if prev is not None:
                hists.append(motion_histogram(prev, f))
            prev = f
        assert passing_score(np.stack(hists)) > 0.3

    def test_passing_score_low_for_static_blob(self):
        hists = []
        prev = None
        for i in range(6):
            f = flat(80)
            f[30:50, 40:54] = 230 if i % 2 else 210
            if prev is not None:
                hists.append(motion_histogram(prev, f))
            prev = f
        assert passing_score(np.stack(hists)) < 0.15

    def test_passing_score_needs_three(self):
        with pytest.raises(SignalError):
            passing_score(np.ones((2, 12)) / 12)


class TestSemaphore:
    def _semaphore_frame(self, width):
        f = flat(40)
        f[10:16, 20 : 20 + width, 0] = 220
        f[10:16, 20 : 20 + width, 1] = 30
        f[10:16, 20 : 20 + width, 2] = 30
        return f

    def test_red_rectangle_found(self):
        rect = red_rectangle(self._semaphore_frame(24))
        assert rect is not None
        assert rect.width == 24
        assert rect.fill > 0.9

    def test_no_rectangle_on_plain(self):
        assert red_rectangle(flat(90)) is None

    def test_semaphore_score_prefers_wide(self):
        wide = semaphore_score(self._semaphore_frame(32))
        # a tall-thin red blob is not a semaphore
        f = flat(40)
        f[10:40, 20:26, 0] = 220
        f[10:40, 20:26, 1] = 30
        f[10:40, 20:26, 2] = 30
        assert wide > semaphore_score(f)

    def test_tracker_rewards_regular_growth(self):
        tracker = SemaphoreTracker()
        score = 0.0
        for i in range(30):
            score = tracker.update(self._semaphore_frame(8 + 4 * (i // 5)))
        assert score > 0.6

    def test_tracker_low_without_semaphore(self, rng):
        tracker = SemaphoreTracker()
        scores = [tracker.update(noisy(flat(90), rng)) for _ in range(20)]
        assert max(scores) < 0.2

    def test_tracker_reset(self):
        tracker = SemaphoreTracker()
        tracker.update(self._semaphore_frame(16))
        tracker.reset()
        assert tracker.score() == 0.0


class TestFlyout:
    def test_sand_fraction(self):
        sand = flat(0)
        sand[:, :, 0] = 194
        sand[:, :, 1] = 178
        sand[:, :, 2] = 128
        assert sand_fraction(sand) > 0.95
        assert sand_fraction(flat(90)) == 0.0

    def test_dust_needs_low_saturation(self):
        dust = flat(0)
        dust[:, :, 0] = 170
        dust[:, :, 1] = 160
        dust[:, :, 2] = 140
        assert dust_fraction(dust) > 0.95
        saturated = flat(0)
        saturated[:, :, 0] = 170
        saturated[:, :, 1] = 160
        saturated[:, :, 2] = 40  # not dust: too colorful
        assert dust_fraction(saturated) == 0.0


class TestDve:
    def _wipe_frames(self, steps=10):
        frames = [flat(50)]
        for i in range(1, steps):
            f = flat(50)
            f[:, : int(W * i / steps)] = 200
            frames.append(f)
        return frames

    def test_wipe_band_score_concentrated(self):
        frames = self._wipe_frames()
        concentration, _ = wipe_band_score(frames[3], frames[4])
        assert concentration > 0.5

    def test_detector_fires_on_wipe(self):
        detector = DveDetector()
        scores = [detector.update(f) for f in self._wipe_frames(12)]
        assert max(scores) > 0.6

    def test_detector_quiet_on_noise(self, rng):
        detector = DveDetector()
        scores = [detector.update(noisy(flat(90), rng)) for _ in range(20)]
        assert max(scores) == 0.0

    def test_hard_cut_is_not_a_dve(self, rng):
        detector = DveDetector()
        scores = [detector.update(noisy(flat(60), rng)) for _ in range(5)]
        scores.append(detector.update(noisy(flat(200), rng)))
        scores += [detector.update(noisy(flat(200), rng)) for _ in range(5)]
        assert max(scores) == 0.0

    def test_replay_segmenter_pairs_dves(self):
        fps = 10.0
        scores = np.zeros(200)
        scores[20:24] = 0.9   # DVE in at ~2.2 s
        scores[80:84] = 0.9   # DVE out at ~8.2 s
        segments = ReplaySegmenter(fps).segments(scores)
        assert len(segments) == 1
        assert segments[0].start_time == pytest.approx(2.15, abs=0.3)
        assert segments[0].end_time == pytest.approx(8.15, abs=0.3)

    def test_replay_indicator_raster(self):
        scores = np.zeros(100)
        scores[10:12] = 1.0
        scores[50:52] = 1.0
        indicator = ReplaySegmenter(10.0).indicator(scores)
        assert indicator[30] == 1.0
        assert indicator[80] == 0.0

    def test_unpaired_dve_gives_no_replay(self):
        scores = np.zeros(100)
        scores[10:12] = 1.0
        assert ReplaySegmenter(10.0).segments(scores) == []
