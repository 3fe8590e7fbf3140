"""The single chunked ingest pass.

Exactness (stream digests and overlays pinned at the per-frame extractor),
chunk-size invariance of everything that carries state across chunk
boundaries, one render per ingested frame, cancellation within one chunk,
and the OCR fallback for feature sets that carry no text scan.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import RequestCancelled
from repro.faults import FaultPlan, FaultSpec
from repro.fusion.features import FeatureSet, extract_feature_set
from repro.fusion.pipeline import RaceData, prepare_race
from repro.resilience import CancellationToken, cancel_scope
from repro.retrieval.system import FormulaOneSystem
from repro.synth.grandprix import synthesize_race
from repro.synth.race import RaceSpec
from repro.synth.video_synth import RaceVideoRenderer
from repro.text.pipeline import TextScan, extract_overlays
from repro.video import frames as frames_module
from repro.video.features import extract_visual_features
from repro.video.flyout import dust_fraction, sand_fraction
from repro.video.frames import FrameStream
from repro.video.motion import frame_difference, motion_histogram, passing_score
from repro.video.replay import DveDetector, ReplaySegmenter
from repro.video.semaphore import SemaphoreTracker

STREAMS = tuple(f"f{i}" for i in range(1, 18)) + ("passing", "dve")
VISUAL = tuple(f"f{i}" for i in range(11, 18)) + ("passing", "dve")

#: Captured at commit 73322ab — one Python iteration per frame, OCR on its
#: own second pass — before the chunked extractor existed. The races are
#: the repo benchmark's (125 s is the shortest a RaceSpec with one event of
#: each kind allows), so the digests are also the ``streams_sha256`` notes
#: ``benchmarks/pipeline/run.py --workload ingest_cold --seed 1`` prints.
PINNED = {
    200107: {
        "sha256": "5a98b741f7aed2a6ec137fe70f754e5b00fd8c02a1482f64a9ac0e234b7ef156",
        "overlays": [
            (40.0, 44.0, ["1", "RALF", "2", "SCHUMACHER"], "classification"),
            (44.5, 47.0, ["LAP", "1"], "lap"),
            (84.8, 91.5, ["PIT", "STOP", "COULTHARD"], "pit_stop"),
            (110.0, 115.0, ["FINAL", "LAP"], "final_lap"),
            (117.0, 122.0, ["WINNER", "RALF"], "winner"),
        ],
    },
    1: {
        "sha256": "f987b78b8e10f1303f4262ff3bcc2b3fe56821c672838df9e1ec0bc5950fc63c",
        "overlays": [
            (40.0, 44.0, ["1", "MONTOYA", "2", "SCHUMACHER"], "classification"),
            (44.5, 47.0, ["LAP", "1"], "lap"),
            (94.9, 101.2, ["PIT", "STOP", "RALF"], "pit_stop"),
            (110.0, 115.0, ["FINAL", "LAP"], "final_lap"),
            (117.0, 122.0, ["WINNER", "MONTOYA"], "winner"),
        ],
    },
}


def spec_for(seed: int, name: str | None = None) -> RaceSpec:
    return RaceSpec(
        name or f"race{seed}",
        duration=125.0,
        n_passings=1,
        n_fly_outs=1,
        n_pit_stops=1,
        seed=seed,
    )


def streams_sha256(features: FeatureSet) -> str:
    """The recipe of ``benchmarks/pipeline/ingest.py:check_streams``."""
    digest = hashlib.sha256()
    for name in STREAMS:
        digest.update(np.ascontiguousarray(features.streams[name], dtype=np.float64).tobytes())
    return digest.hexdigest()


def overlay_rows(overlays) -> list[tuple]:
    return [(o.start_time, o.end_time, o.words, o.event.kind) for o in overlays]


def text_events(document) -> list[tuple]:
    return [
        (e.kind, e.interval.start, e.interval.end, sorted(e.roles))
        for e in document.events.values()
        if e.source == "text"
    ]


class RenderCount:
    """Counts ``RaceVideoRenderer.frame`` calls while installed."""

    def __init__(self, patch: pytest.MonkeyPatch):
        self.calls = 0
        original = RaceVideoRenderer.frame

        def frame(renderer, index):
            self.calls += 1
            return original(renderer, index)

        patch.setattr(RaceVideoRenderer, "frame", frame)


@pytest.fixture(scope="module")
def ingested():
    """Both pinned races extracted, the training-seed one ingested, with
    the renders each step cost."""
    with pytest.MonkeyPatch.context() as patch:
        renders = RenderCount(patch)
        data = {seed: prepare_race(spec_for(seed)) for seed in PINNED}
        after_extraction = renders.calls
        system = FormulaOneSystem(data[200107])
        after_ingest = renders.calls
    yield {
        "data": data,
        "system": system,
        "renders": (after_extraction, after_ingest),
    }
    system.db.close()


class TestExactness:
    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_streams_bit_identical_to_per_frame_extractor(self, ingested, seed):
        features = ingested["data"][seed].features
        assert not features.dropped
        assert streams_sha256(features) == PINNED[seed]["sha256"]

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_scan_of_the_visual_pass_recognizes_the_pinned_overlays(self, ingested, seed):
        scan = ingested["data"][seed].features.text_scan
        assert overlay_rows(scan.overlays()) == PINNED[seed]["overlays"]

    def test_extract_overlays_unchanged(self, ingested):
        video = ingested["data"][1].race.video
        assert overlay_rows(extract_overlays(video)) == PINNED[1]["overlays"]


class TestOneRender:
    def test_each_frame_rendered_once_per_ingest(self, ingested):
        frames = sum(d.race.video.n_frames for d in ingested["data"].values())
        after_extraction, after_ingest = ingested["renders"]
        assert after_extraction == frames
        # OCR at ingest reads the scan: not one more frame is rendered
        assert after_ingest == frames

    def test_ingest_stores_the_scanned_text_events(self, ingested):
        document = ingested["system"].db.document("race200107")
        kinds = [row[0] for row in text_events(document)]
        for _, _, _, kind in PINNED[200107]["overlays"]:
            assert kind in kinds
        assert "driver_mention" in kinds

    def test_degraded_visual_chain_falls_back_to_its_own_ocr_pass(
        self, ingested, monkeypatch
    ):
        clean = ingested["data"][200107]
        race = replace(clean.race, spec=replace(clean.race.spec, name="blind"))
        plan = FaultPlan(
            seed=5,
            name="visual-dead",
            specs=(FaultSpec(site="extract.visual", kind="fail", transient=False),),
        )
        renders = RenderCount(monkeypatch)
        features = extract_feature_set(race, faults=plan, on_error="degrade")
        assert features.text_scan is None and "f13" in features.dropped
        assert renders.calls == 0
        document = ingested["system"].ingest(RaceData(race, features))
        assert renders.calls == race.video.n_frames
        reference = ingested["system"].db.document("race200107")
        assert text_events(document) == text_events(reference)

    def test_raw_video_takes_its_size_from_the_stream(self, ingested):
        clean = ingested["data"][200107]
        small = FrameStream.from_frames([np.full((72, 96, 3), 90, np.uint8)] * 12, 10.0)
        race = replace(clean.race, spec=replace(clean.race.spec, name="small"), video=small)
        hand_built = FeatureSet("small", dict(clean.features.streams))
        document = ingested["system"].ingest(RaceData(race, hand_built))
        assert (document.raw.width, document.raw.height) == (96, 72)
        full = ingested["system"].db.document("race200107").raw
        assert (full.width, full.height) == (192, 144)


# ----------------------------------------------------------------------
# chunk-size invariance
# ----------------------------------------------------------------------
def frame_by_frame(stream: FrameStream) -> dict[str, np.ndarray]:
    """The extractor as it was written before chunking: one Python
    iteration per frame over the single-frame detector functions."""
    n = stream.n_frames
    color_diff, semaphore, dust, sand, dve_scores, passing = (np.zeros(n) for _ in range(6))
    tracker, dve = SemaphoreTracker(), DveDetector()
    histogram_buffer: list[np.ndarray] = []
    previous = None
    for i, frame in enumerate(stream):
        semaphore[i] = tracker.update(frame)
        dve_scores[i] = dve.update(frame)
        dust[i] = dust_fraction(frame)
        sand[i] = sand_fraction(frame)
        if previous is not None:
            color_diff[i] = frame_difference(previous, frame)
            histogram_buffer.append(motion_histogram(previous, frame))
            if len(histogram_buffer) > 20:
                histogram_buffer.pop(0)
            if len(histogram_buffer) >= 3:
                passing[i] = passing_score(np.stack(histogram_buffer))
        previous = frame
    motion = np.convolve(color_diff, np.ones(5) / 5, mode="same")
    return {
        "f11": np.linspace(0.0, 1.0, n),
        "f12": ReplaySegmenter(stream.fps).indicator(dve_scores),
        "f13": np.clip(color_diff / 0.25, 0.0, 1.0),
        "f14": semaphore,
        "f15": np.clip(dust / 0.25, 0.0, 1.0),
        "f16": np.clip(sand / 0.25, 0.0, 1.0),
        "f17": np.clip(motion / 0.25, 0.0, 1.0),
        "passing": passing,
        "dve": dve_scores,
    }


def visual_pass(stream: FrameStream):
    scan = TextScan(stream.fps)
    features = extract_visual_features(stream, observer=scan.observe)
    return features.streams, overlay_rows(scan.overlays())


@pytest.fixture(scope="module")
def glitched():
    """A half-height race whose broadcast loses 3 % of its frames, held as
    frames so that every chunk size sees the same material."""
    plan = FaultPlan(
        seed=11,
        name="frame-loss",
        specs=(FaultSpec(site="synth.video", kind="corrupt", severity=0.03),),
    )
    spec = spec_for(3, "glitched")
    clean = synthesize_race(spec, frame_height=72)
    lossy = synthesize_race(spec, frame_height=72, faults=plan)
    return clean.video, lossy.video, FrameStream.from_frames(lossy.video.materialize(), 10.0)


class TestChunkSizeInvariance:
    def test_frame_loss_freezes_the_same_frames_at_any_chunk_size(self, glitched, monkeypatch):
        clean, lossy, held = glitched
        monkeypatch.setattr(frames_module, "CHUNK_FRAMES", 7)
        frozen = 0
        previous = None
        for original, shown, kept in zip(clean, lossy, held):
            assert np.array_equal(shown, kept)
            if not np.array_equal(shown, original):
                assert np.array_equal(shown, previous)
                frozen += 1
            previous = shown
        assert frozen >= int(0.03 * clean.n_frames) - 2

    def test_streams_and_overlays_do_not_depend_on_the_chunk_size(self, glitched, monkeypatch):
        held = glitched[2]
        reference_streams, reference_overlays = visual_pass(held)
        # the material exercises every piece of carried state
        for name in ("f12", "f14", "f15", "passing", "dve"):
            assert reference_streams[name].max() > 0, name
        assert len(reference_overlays) >= 4
        for size in (1, 7, held.n_frames):
            monkeypatch.setattr(frames_module, "CHUNK_FRAMES", size)
            assert [c.shape[0] for _, c in held.chunks()][0] == size
            streams, overlays = visual_pass(held)
            for name in VISUAL:
                assert np.array_equal(streams[name], reference_streams[name]), (size, name)
            assert overlays == reference_overlays, size

    def test_single_frame_functions_are_the_chunk_kernels(self, glitched):
        held = glitched[2]
        chunked = extract_visual_features(held).streams
        looped = frame_by_frame(held)
        for name in VISUAL:
            assert np.array_equal(chunked[name], looped[name]), name


class TestCancellation:
    def test_cancelled_token_stops_extraction_within_one_chunk(self):
        token = CancellationToken()
        produced = []

        def source():
            for index in range(400):
                if index == 150:
                    token.cancel("client went away")
                produced.append(index)
                yield np.full((24, 32, 3), index % 200, np.uint8)

        stream = FrameStream(source, 10.0, 400, 24, 32)
        with cancel_scope(token), pytest.raises(RequestCancelled) as raised:
            extract_visual_features(stream)
        assert raised.value.site == "extract.frame"
        assert 150 < len(produced) <= 150 + frames_module.CHUNK_FRAMES
