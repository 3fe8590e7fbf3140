"""ingest_cold — the offline regime and the first query on a new video.

Set-up synthesizes and extracts the training race and builds
``FormulaOneSystem(train)`` (both DBNs trained, the training race
ingested). The measured round takes fresh races from ``RaceSpec`` to a
registered document (``synthesize_race`` → ``extract_feature_set`` →
``FormulaOneSystem.ingest``: OCR + transactional ``register_document``),
then asks ``RETRIEVE highlight FROM v`` and ``RETRIEVE excited_speech FROM
v`` cold — the preprocessor finds no events, runs ``hard_evidence`` → DBN
inference → ``store_event`` — and once more warm, on every race and on
``clone_positions`` cheap documents per pass that carry the training race's feature
tracks under new ids.

``repro.synth`` / ``audio`` / ``video`` / ``text`` / ``dbn`` do nearly all
the work here; ``monet`` / ``cobra`` stay under 1 %.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from harness import Run, percentile
from layers import write_layers
from spans import Summary, med

NAME = "ingest_cold"
GOLDEN = Path(__file__).with_name("golden.json")
STREAMS = tuple(f"f{i}" for i in range(1, 18)) + ("passing", "dve")
#: Cold-query op kinds on the clone documents (repeated, reported) and on
#: the races themselves (issued once, only checked).
COLD = {"highlight": "cold_av", "excited_speech": "cold_audio"}
ONCE = {"highlight": "race_av", "excited_speech": "race_audio"}


def _spec(name: str, seed: int, seconds: float):
    from repro.synth.race import RaceSpec

    return RaceSpec(
        name, duration=seconds, n_passings=1, n_fly_outs=1, n_pit_stops=1, seed=seed
    )


def _prepare(spec):
    """RaceSpec → extracted race; looked up on the modules so that the
    traced pass sees ``fusion.extract`` and the spans beneath it."""
    from repro.fusion import features
    from repro.fusion.pipeline import RaceData
    from repro.synth import grandprix

    race = grandprix.synthesize_race(spec)
    return RaceData(race, features.extract_feature_set(race))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def write_golden(observed: dict) -> None:
    """``--regen-golden``: what this run saw becomes what later runs expect."""
    golden = _golden()
    golden["train"] = observed["train"]
    golden.setdefault("races", {}).update(
        {seed: entry for seed, entry in observed.items() if seed != "train"}
    )
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def check_streams(run: Run, data, golden: dict) -> dict:
    """All 19 streams present, none dropped, 10 Hz long, inside [0, 1];
    per-stream means equal the golden ones when this race has an entry."""
    features, name = data.features, data.name
    steps = int(data.race.duration * 10)
    run.attempted += 1
    run.expect(not features.dropped, f"{name}: dropped streams {features.dropped}")
    digest = hashlib.sha256()
    means = {}
    for stream in STREAMS:
        values = features.streams.get(stream)
        if values is None:
            run.fail(f"{name}: stream {stream} missing")
            continue
        run.expect(values.shape == (steps,), f"{name}: {stream} has shape {values.shape}")
        run.expect(
            0.0 <= values.min() and values.max() <= 1.0, f"{name}: {stream} leaves [0, 1]"
        )
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        means[stream] = float(values.mean())
    run.notes[f"streams_sha256.{name}"] = digest.hexdigest()
    for stream, expected in golden.get("means", {}).items():
        run.expect(
            abs(means.get(stream, -1.0) - expected) <= 1e-9,
            f"{name}: mean of {stream} is {means.get(stream)}, golden {expected}",
        )
    return {"means": means, "sha256": digest.hexdigest()}


def setup(run: Run):
    from repro.retrieval.system import FormulaOneSystem

    sizes = run.sizes
    train = _prepare(_spec("train", sizes.train_seed, sizes.race_seconds))
    return FormulaOneSystem(train), train


def _clone(train, video: str, steps: int):
    """A cheap new video: the first ``steps`` of the training race's tracks
    under a new id."""
    from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument, VideoObject
    from repro.text.recognition import DRIVER_NAMES

    document = VideoDocument(
        raw=RawVideo(video, f"synthetic://{video}", steps / 10, 10.0, 192, 144, 16000)
    )
    for name, values in train.features.streams.items():
        document.add_feature(FeatureTrack(name, values[:steps]))
    for index, driver in enumerate(DRIVER_NAMES):
        document.add_object(VideoObject(f"{video}/driver{index}", "driver", driver))
    return document


def _first_queries(run: Run, system, video: str, ops=ONCE) -> dict[str, list[tuple]]:
    """Both kinds cold then warm on one video; returns kind -> intervals."""
    found = {}
    for kind, op in ops.items():
        text = f"RETRIEVE {kind} FROM {video}"
        cold = run.timed(op, system.query, text)
        if cold is None:
            continue
        run.expect(cold.report.ran_extraction, f"{text!r} was not cold")
        ids = [record["event_id"] for record in cold.records]
        found[kind] = [(record["start"], record["end"]) for record in cold.records]
        warm = run.timed("warm", system.query, text)
        if warm is None:
            continue
        run.expect(not warm.report.ran_extraction, f"{text!r} extracted twice")
        run.expect(
            [record["event_id"] for record in warm.records] == ids,
            f"{text!r}: warm answer differs from cold",
        )
    return found


def measure(run: Run, state) -> None:
    from repro.retrieval.system import DOMAIN_NAME

    system, train = state
    sizes = run.sizes
    golden = _golden()
    observed = run.observed
    observed["train"] = check_streams(run, train, golden.get("train", {}))

    # the training race first: it is the fixed point the clones must match,
    # and it guarantees both kinds exist somewhere before any empty answer
    reference = _first_queries(run, system, "train")
    if run.sabotage == "oracle":
        reference["highlight"] = reference["highlight"][1:]
    observed["train"]["events"] = {kind: len(found) for kind, found in reference.items()}
    for kind, count in golden.get("train", {}).get("events", {}).items():
        run.expect(
            len(reference.get(kind, ())) == count, f"train: {kind} count is not golden {count}"
        )

    full = train.features.n_steps
    first_issue: dict[int, dict] = {}

    def clone_pass(issue: int) -> None:
        """The same cold queries on one more set of clones; end_to_end()
        keeps each position's fastest issue. Positions differ in length —
        from half the training race up to all of it — so the percentiles
        across positions say how the first query grows with the video."""
        for position in range(sizes.clone_positions):
            video = f"clone{issue}_{position}"
            steps = full * (sizes.clone_positions + position + 1) // (2 * sizes.clone_positions)
            document = _clone(train, video, steps)
            run.timed("clone_register", system.db.register_document, document, DOMAIN_NAME)
            found = _first_queries(run, system, video, COLD)
            expected = reference if steps == full else first_issue.setdefault(position, found)
            run.expect(found == expected, f"{video}: events differ from its other issues")

    # Repeats are spread over the round — a clone pass before, between and
    # after the ingests — so that a slow spell of the sandbox has to outlast
    # the round to reach every issue of an op. The ingests are of the same
    # broadcast (one seed, two video ids): the faster one is reported.
    expected = golden.get("races", {}).get(str(run.seed), {})
    clone_pass(0)
    for index in range(sizes.races_per_round):
        spec = _spec(f"race{run.seed}_{index}", run.seed, sizes.race_seconds)

        def ingest(spec=spec):
            data = _prepare(spec)
            system.ingest(data)
            return data

        data = run.timed("ingest", ingest)
        if data is None:
            continue
        observed[str(run.seed)] = check_streams(run, data, expected)
        found = _first_queries(run, system, data.name)
        observed[str(run.seed)]["events"] = {kind: len(v) for kind, v in found.items()}
        for kind, count in expected.get("events", {}).items():
            run.expect(
                len(found.get(kind, ())) == count,
                f"{data.name}: {kind} count is not golden {count}",
            )
        clone_pass(index + 1)


def teardown(run: Run, state) -> None:
    state[0].db.close()


def _cold(run: Run, op: str) -> list[float]:
    """Cold-query latency per clone position: the fastest of its issues."""
    positions = run.sizes.clone_positions
    return [min(run.samples[op][position::positions]) for position in range(positions)]


def end_to_end(run: Run) -> dict[str, float]:
    cold = _cold(run, "cold_av")
    return {
        "op_p50_ms": percentile(cold, 50) * 1e3,
        "op_p95_ms": percentile(cold, 95) * 1e3,
        # media seconds ingested per wall second: the real-time factor
        "work_per_s": run.sizes.race_seconds / min(run.samples["ingest"]),
    }


def per_layer(untraced: Run, traced: Run, trace: Summary) -> dict[str, float]:
    ingest = ("ingest",)
    cold = tuple(COLD.values())
    ingests = trace.ops(ingest)
    setups = trace.ops(("setup",))
    steps = int(traced.sizes.race_seconds * 10)
    infer_steps = steps * 3 // 4  # the clones average three quarters of a race
    visual_s = med(trace.self_times("video.visual", ingest))
    infer_s = med(trace.durations("dbn.infer", cold))
    out = write_layers(trace, ingest, "cobra.register")
    out.update(
        {
            "synth.audio_s": med(trace.durations("synth.audio", ingest)),
            "synth.render_s": sum(trace.durations("synth.frame", ingest, under="video.visual"))
            / ingests,
            "audio.excitement_s": med(trace.durations("audio.excitement", ingest)),
            "audio.pitch_s": med(trace.durations("audio.pitch", ingest)),
            "audio.keywords_s": sum(trace.durations("audio.keywords", ingest)) / ingests,
            "video.visual_s": visual_s,
            "video.frames_per_s": steps / visual_s,
            "text.ocr_s": med(trace.self_times("text.ocr", ingest)),
            "fusion.extract_s": med(trace.durations("fusion.extract", ingest)),
            "cobra.preprocess_ms": med(trace.durations("cobra.preprocess", cold), 1e3),
            "fusion.evidence_ms": med(trace.durations("fusion.evidence", cold), 1e3),
            "dbn.infer_ms": infer_s * 1e3,
            "dbn.steps_per_s": infer_steps / infer_s,
            "fusion.segments_ms": med(trace.durations("fusion.segments", cold), 1e3),
            "cobra.store_event_ms": med(trace.durations("cobra.store_event", cold), 1e3),
            "cobra.q_cold_audio_ms": med(_cold(untraced, "cold_audio"), 1e3),
            "cobra.q_warm_ms": med(untraced.samples["warm"], 1e3),
            "fusion.train_s": sum(trace.durations("fusion.train", ("setup",))) / setups,
            "check.model_ms": med(trace.durations("check.model", ("setup",)), 1e3),
        }
    )
    return out
