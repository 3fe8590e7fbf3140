"""Perf microbenchmark harness: the interpreter's baseline trajectory.

ROADMAP item 1 (compiled/fused MIL execution) needs a measured baseline
before any speedup can be claimed. This harness times the four layers a
fused compiler would accelerate —

* ``select_chain`` — two chained ``mselect`` scans plus an aggregate (the
  exact shape PERF002 flags and the PR 7 fusion compiler will collapse);
* ``join_aggregate`` — a semijoin feeding an aggregate;
* ``dbn_inference`` — filtered posterior of the two-node H→O DBN over a
  symbol stream;
* ``end_to_end_query`` — a full COQL round through :class:`CobraVDBMS`
  (parse → preprocess → execute) against a synthetic document;
* ``replicated_read_fanout`` — aggregate reads routed across a replicated
  kernel group (one primary + two WAL-shipped replicas), each to the
  least-lagged reachable replica;
* ``sharded_scatter_gather`` — COQL gathers across a three-shard
  consistent-hash fleet, mixing fan-out scatters (every shard answers,
  results merged with a coverage report) with shard-local routed queries;
* ``migration_throughput`` — a third shard joins a live two-shard fleet
  and the remapped documents run the full five-phase online migration
  (plan → copy → catch-up → fenced cutover → verified retire); rows/s is
  event rows physically moved, journaling and verification included;
* ``query_latency_during_split`` — the same gather mix with a migration
  held open in its copy phase, so every query pays the in-flight
  ownership merge and dual-read coverage accounting;
* ``check_whole_program`` — cold + memoized whole-program analysis
  (call-graph summaries, SCC propagation) over a layered synthetic call
  graph, the overhead every registration pays;
* ``equivcheck_certify`` — Moa→MIL translation validation of every
  built-in plan: compile, symbolically execute both sides, normalize,
  compare

— and writes per-benchmark mean/min/max seconds plus derived rows/s into a
``BENCH_perf.json`` document (schema ``repro-bench-perf/1``). CI uploads
the file on every run so the perf trajectory is a recorded series, not a
claim.

Usage::

    PYTHONPATH=src python benchmarks/perf/harness.py \
        --rows 10000 --repeats 3 --out BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

SCHEMA = "repro-bench-perf/1"

SELECT_CHAIN_PROC = """
PROC benchSelectChain(BAT[void,dbl] f) : any := {
  VAR a := mselect(f, ">", 0.25);
  VAR b := mselect(a, "<", 0.75);
  VAR c := maggr(b, "count");
  RETURN c;
}
"""

JOIN_AGGREGATE_PROC = """
PROC benchJoinAggregate(BAT[void,dbl] a, BAT[void,dbl] b) : any := {
  VAR j := a.semijoin(b);
  VAR s := maggr(j, "sum");
  RETURN s;
}
"""


def _feature_bat(rows: int, seed: int):
    from repro.monet.bat import BAT

    rng = np.random.default_rng(seed)
    bat = BAT("void", "dbl")
    bat.insert_bulk(None, [float(v) for v in rng.random(rows)])
    return bat


def _time(fn, repeats: int) -> list[float]:
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - start)
    return durations


def _summary(durations: list[float], rows: int) -> dict:
    mean = sum(durations) / len(durations)
    return {
        "mean_s": mean,
        "min_s": min(durations),
        "max_s": max(durations),
        "rows_per_s": rows / mean if mean > 0 else None,
        "repeats": len(durations),
    }


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def bench_select_chain(rows: int, repeats: int) -> dict:
    from repro.moa.rewrite import BulkModule
    from repro.monet.kernel import MonetKernel

    kernel = MonetKernel(check="off")
    kernel.load_module(BulkModule())
    kernel.run(SELECT_CHAIN_PROC)
    bat = _feature_bat(rows, seed=1)
    return _summary(
        _time(lambda: kernel.call("benchSelectChain", [bat]), repeats), rows
    )


def bench_join_aggregate(rows: int, repeats: int) -> dict:
    from repro.moa.rewrite import BulkModule
    from repro.monet.kernel import MonetKernel

    kernel = MonetKernel(check="off")
    kernel.load_module(BulkModule())
    kernel.run(JOIN_AGGREGATE_PROC)
    left = _feature_bat(rows, seed=2)
    right = _feature_bat(rows, seed=3)
    return _summary(
        _time(lambda: kernel.call("benchJoinAggregate", [left, right]), repeats),
        rows,
    )


def bench_dbn_inference(rows: int, repeats: int) -> dict:
    from repro.dbn.compiled import CompiledDbn
    from repro.dbn.evidence import EvidenceSequence
    from repro.dbn.template import DbnTemplate

    template = DbnTemplate()
    template.add_node("H", 2)
    template.add_node("O", 2, observed=True)
    template.add_intra_edge("H", "O")
    template.add_inter_edge("H", "H")
    template.randomize(np.random.default_rng(0))
    engine = CompiledDbn(template)
    steps = max(rows // 10, 10)
    observations = np.random.default_rng(4).integers(0, 2, size=steps)
    evidence = EvidenceSequence(template, hard={"O": observations})
    return _summary(
        _time(lambda: engine.posterior_series(evidence, "H"), repeats), steps
    )


def bench_end_to_end_query(rows: int, repeats: int) -> dict:
    from repro.cobra.catalog import DomainKnowledge
    from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument
    from repro.cobra.vdbms import CobraVDBMS
    from repro.synth.annotations import Interval

    db = CobraVDBMS(check="off")
    db.register_domain(DomainKnowledge("bench"))
    doc = VideoDocument(
        raw=RawVideo("bench1", "synthetic://bench", 100.0, 10.0, 192, 144, 16000)
    )
    doc.add_feature(
        FeatureTrack(
            "excitement", np.random.default_rng(5).random(max(rows, 10))
        )
    )
    for index in range(20):
        doc.new_event(
            "fly_out", Interval(index * 4, index * 4 + 3), 0.9, source="dbn"
        )
    db.register_document(doc, "bench")
    return _summary(
        _time(lambda: db.query("RETRIEVE fly_out FROM bench1"), repeats), 20
    )


def bench_replicated_read_fanout(rows: int, repeats: int) -> dict:
    import tempfile

    from repro.monet.kernel import MonetKernel
    from repro.replication import GroupConfig, KernelGroup

    reads_per_repeat = 30
    with tempfile.TemporaryDirectory(prefix="repro-bench-repl-") as scratch:
        base = Path(scratch)
        # fsync off: this measures routing + replica-read overhead, not
        # disk latency
        from repro.durability.store import DurableStore

        primary = MonetKernel(
            threads=1,
            check="off",
            store=DurableStore(base / "primary", fsync=False),
        )
        primary.persist("bench_f", _feature_bat(rows, seed=6))
        group = KernelGroup(
            primary,
            base,
            replicas=("replica-0", "replica-1"),
            config=GroupConfig(fsync=False),
        )
        group.pump()

        def fanout() -> None:
            for _ in range(reads_per_repeat):
                routed = group.route_read()
                routed.kernel.bat("bench_f").tail_array().sum()

        summary = _summary(
            _time(fanout, repeats), rows * reads_per_repeat
        )
        group.close()
        return summary


def bench_sharded_scatter_gather(rows: int, repeats: int) -> dict:
    import tempfile

    from repro.cobra.model import RawVideo, VideoDocument, VideoObject
    from repro.sharding import ShardConfig, ShardedKernel
    from repro.synth.annotations import Interval

    n_documents = 6
    queries_per_repeat = 10
    events_per_doc = max(1, rows // n_documents)
    with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as scratch:
        # fsync off: this measures scatter/gather + merge overhead, not
        # disk latency
        fleet = ShardedKernel(
            Path(scratch),
            shards=3,
            config=ShardConfig(fsync=False),
        )
        for index in range(n_documents):
            video_id = f"bench{index}"
            doc = VideoDocument(
                raw=RawVideo(
                    video_id,
                    "synthetic://bench",
                    float(events_per_doc + 2),
                    10.0,
                    192,
                    144,
                    16000,
                )
            )
            doc.add_object(VideoObject(f"{video_id}/d1", "driver", "DRIVER"))
            for step in range(events_per_doc):
                doc.new_event(
                    "fly_out",
                    Interval(step, step + 1),
                    0.9,
                    {"driver": f"{video_id}/d1"},
                    "dbn",
                )
            fleet.register_document(doc, "bench")

        def gather() -> None:
            for index in range(queries_per_repeat):
                if index % 2 == 0:
                    fleet.query("RETRIEVE fly_out")
                else:
                    fleet.query(f"RETRIEVE fly_out FROM bench{index % n_documents}")

        summary = _summary(
            _time(gather, repeats), rows * queries_per_repeat
        )
        fleet.close()
        return summary


def _split_corpus(base: Path, n_documents: int, events_per_doc: int):
    from repro.cobra.model import RawVideo, VideoDocument, VideoObject
    from repro.sharding import ShardConfig, ShardedKernel
    from repro.synth.annotations import Interval

    fleet = ShardedKernel(base, shards=2, config=ShardConfig(fsync=False))
    for index in range(n_documents):
        video_id = f"bench{index}"
        doc = VideoDocument(
            raw=RawVideo(
                video_id,
                "synthetic://bench",
                float(events_per_doc + 2),
                10.0,
                192,
                144,
                16000,
            )
        )
        doc.add_object(VideoObject(f"{video_id}/d1", "driver", "DRIVER"))
        for step in range(events_per_doc):
            doc.new_event(
                "fly_out",
                Interval(step, step + 1),
                0.9,
                {"driver": f"{video_id}/d1"},
                "dbn",
            )
        fleet.register_document(doc, "bench")
    return fleet


def bench_migration_throughput(rows: int, repeats: int) -> dict:
    """Online split cost: a third shard joins a live two-shard fleet and
    the remapped documents run the full five-phase migration protocol
    (plan, bulk copy, catch-up, fenced cutover, verified retire).

    The corpus build is per-repeat setup and untimed; only
    ``fleet.split`` is measured. The rows figure is the event rows the
    split physically moved, so rows/s is migration copy throughput
    including journaling and the byte-for-byte retire verification.
    """
    import tempfile

    n_documents = 10
    events_per_doc = max(1, rows // 100)
    durations = []
    moved_rows = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-bench-mig-") as scratch:
            fleet = _split_corpus(Path(scratch), n_documents, events_per_doc)
            start = time.perf_counter()
            report = fleet.split("shard-2")
            durations.append(time.perf_counter() - start)
            moved_rows = len(report.moves) * events_per_doc
            fleet.close()
    return _summary(durations, moved_rows)


def bench_query_latency_during_split(rows: int, repeats: int) -> dict:
    """Gather latency while a migration is held open in its copy phase:
    every query pays the in-flight-ownership merge (the dual-read
    bookkeeping and the migrating/dual_read coverage accounting) on top
    of the plain scatter-gather cost of ``sharded_scatter_gather``.
    """
    import tempfile

    n_documents = 10
    queries_per_repeat = 10
    events_per_doc = max(1, rows // 100)
    with tempfile.TemporaryDirectory(prefix="repro-bench-split-") as scratch:
        fleet = _split_corpus(Path(scratch), n_documents, events_per_doc)
        remapped = fleet.add_shard("shard-2")
        pilot = remapped[0]
        fleet.migrations.plan(pilot)
        fleet.migrations.copy(pilot)  # held open: reads stay dual-routed

        def gather() -> None:
            for index in range(queries_per_repeat):
                if index % 2 == 0:
                    fleet.query("RETRIEVE fly_out")
                else:
                    fleet.query(
                        f"RETRIEVE fly_out FROM bench{index % n_documents}"
                    )

        summary = _summary(
            _time(gather, repeats), rows * queries_per_repeat
        )
        fleet.migrations.resume(pilot)  # finish cleanly
        fleet.close()
        return summary


def bench_check_whole_program(rows: int, repeats: int) -> dict:
    """Whole-program analysis cost over a synthetic call-graph of PROCs.

    Builds a layered program (``rows / 500`` procedures, each calling the
    previous layer) and measures a full ProgramChecker pass — summary
    computation and SCC propagation — followed by a fully-memoized re-run, so the measured number is the
    cold cost the registration choke points pay and the cache makes
    repeatable registrations cheap.
    """
    from repro.check.programcheck import ProgramChecker
    from repro.monet.kernel import MonetKernel

    n_procs = max(4, min(64, rows // 500))
    lines = ["PROC layer0(BAT[void,dbl] x) : dbl := { RETURN x.sum(); }"]
    for index in range(1, n_procs):
        lines.append(
            f"PROC layer{index}(BAT[void,dbl] x) : dbl := {{\n"
            f"  VAR a := x.select(0.0, 1.0);\n"
            f"  RETURN layer{index - 1}(a);\n"
            f"}}"
        )
    source = "\n".join(lines)
    kernel = MonetKernel(check="off")
    interp = kernel.interpreter
    env = dict(
        commands=interp._commands,
        signatures=interp._signatures,
        globals_names=list(interp._globals.variables),
        procedures=dict(interp._procs),
    )

    def check() -> None:
        checker = ProgramChecker(**env)
        checker.check_source(source, name="<bench>")
        checker.check_source(source, name="<bench>")  # memoized re-run

    return _summary(_time(check, repeats), n_procs)


def bench_equivcheck_certify(rows: int, repeats: int) -> dict:
    """Translation-validation cost: compile + certify every built-in plan.

    Measures the full ``MoaCompiler.compile`` path with checking on —
    precheck, emission, symbolic execution of both sides, normalization —
    for each plan in ``builtin_moa_plans()``. One EQ001 per plan is
    asserted so the benchmark cannot silently measure an unvalidated path.
    """
    from repro.moa.rewrite import MoaCompiler, builtin_moa_plans
    from repro.monet.kernel import MonetKernel

    kernel = MonetKernel(check="off")
    plans = builtin_moa_plans()

    def certify() -> None:
        compiler = MoaCompiler(kernel, check="warn")
        for name, expr in plans.items():
            compiler.compile(expr)
        eq001 = [d for d in compiler.diagnostics if d.code == "EQ001"]
        assert len(eq001) == len(plans), [d.code for d in compiler.diagnostics]

    return _summary(_time(certify, repeats), len(plans))


BENCHMARKS = {
    "select_chain": bench_select_chain,
    "join_aggregate": bench_join_aggregate,
    "dbn_inference": bench_dbn_inference,
    "end_to_end_query": bench_end_to_end_query,
    "replicated_read_fanout": bench_replicated_read_fanout,
    "sharded_scatter_gather": bench_sharded_scatter_gather,
    "migration_throughput": bench_migration_throughput,
    "query_latency_during_split": bench_query_latency_during_split,
    "check_whole_program": bench_check_whole_program,
    "equivcheck_certify": bench_equivcheck_certify,
}


def run(rows: int, repeats: int) -> dict:
    results = {}
    for name, bench in BENCHMARKS.items():
        results[name] = bench(rows, repeats)
        mean = results[name]["mean_s"]
        print(f"{name:20s} mean {mean * 1e3:9.2f} ms over {repeats} run(s)")
    return {
        "schema": SCHEMA,
        "executor": "interpreter",
        "rows": rows,
        "repeats": repeats,
        "benchmarks": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_perf.json"))
    args = parser.parse_args(argv)
    document = run(args.rows, args.repeats)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
