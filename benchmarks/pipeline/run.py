"""Run the pipeline benchmark: one command, every metric, every answer checked.

    python3 benchmarks/pipeline/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]

One workload runs in this process (the harness calls it that way, a fresh
interpreter per run); several are run one after the other, each in a fresh
interpreter of its own, so peak RSS and import cost are per workload. Load
comes from one single-threaded closed-loop client. Every metric is printed
as ``workload metric value unit``; the last line is the result as JSON. The
exit code is non-zero when any answer was wrong or any op failed.

``--trace 0`` (default) measures for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` measures half that long untraced, then
half with span recorders wrapped around the layer boundaries (spans.py),
and reports the per-layer metrics; ``--out FILE`` then also writes the
spans to ``trace.json`` beside FILE. Metric names, units and bounds come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MODULES = {
    "ingest_cold": "ingest",
    "query_serve": "serve",
    "register_durable": "durable",
    "fleet_mixed": "fleet",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=list(MODULES), default=list(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="one small round per workload")
    parser.add_argument("--out", type=Path, help="append this run's results to FILE")
    parser.add_argument(
        "--regen-golden", action="store_true", help="rewrite golden.json from ingest_cold"
    )
    parser.add_argument(
        "--sabotage",
        choices=("oracle", "wal"),
        help="self-test: corrupt one expected answer / delete the WAL before "
        "the restart check; the run must then exit non-zero",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative: it seeds numpy generators and names videos")
    return args


def import_seconds(repeats: int) -> float:
    """Median wall time of ``import repro`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return median(
        float(
            subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            ).stdout
        )
        for _ in range(repeats)
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def measure(workload, args: argparse.Namespace, workdir: Path) -> tuple[list, dict, dict]:
    """Run the passes; returns the runs, the metrics and the printed notes."""
    from harness import Run, run_pass
    from sizes import FULL, SMOKE
    from spans import Summary, Tracer

    sizes = SMOKE if args.smoke else FULL
    seconds = 0.0 if args.smoke else args.seconds
    untraced = Run(args.seed, sizes, workdir, None, args.sabotage)
    if not args.trace:
        run_pass(workload, untraced, seconds)
        metrics = {} if untraced.failures else workload.end_to_end(untraced)
        metrics["setup_s"] = median(untraced.setup_seconds)
        metrics["peak_rss_mb"] = peak_rss_mb()
        return [untraced], metrics, {}

    run_pass(workload, untraced, seconds / 2)
    tracer = Tracer()
    traced = Run(args.seed, sizes, workdir, tracer, args.sabotage)
    tracer.install()
    try:
        run_pass(workload, traced, seconds / 2)
    finally:
        tracer.uninstall()
    if args.out:
        fields = ("name", "start", "end", "parent", "op")
        spans = [dict(zip(fields, span)) for span in tracer.spans]
        (args.out.parent / "trace.json").write_text(json.dumps(spans))
    if untraced.failures or traced.failures:
        return [untraced, traced], {}, {}
    summary = Summary(tracer)
    metrics = workload.per_layer(untraced, traced, summary)
    metrics["bench.trace_overhead"] = sum(traced.pooled()) / sum(untraced.pooled())
    metrics["repro.import_s"] = import_seconds(sizes.import_repeats)
    low, high = summary.self_time_coverage()
    if not (0.9 <= low and high <= 1.1):
        traced.failures.append(f"self times cover {low:.3f}..{high:.3f} of an op's span")
    return [untraced, traced], metrics, {"self_time_coverage": f"{low:.4f}..{high:.4f}"}


def run_workload(name: str, args: argparse.Namespace, manifest: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - imports are warmed before anything is timed

    workdir = ROOT / ".bench_build" / f"pipeline-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = importlib.import_module(MODULES[name])
    try:
        runs, metrics, notes = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"{name} reports metrics BENCHMARK.json does not declare: {unknown}")
    if args.trace:  # a layer this workload never enters reads 0
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in declared}
    for run in runs:
        notes.update(run.notes)
    failures = [message for run in runs for message in run.failures]
    result = {
        "correct": not failures,
        "attempted": sum(run.attempted for run in runs),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }

    if args.regen_golden and name == "ingest_cold":
        workload.write_golden(runs[0].observed)
    for key, entry in result["metrics"].items():
        if entry["value"] or not args.trace:
            print(f"{name} {key} {entry['value']:.6g} {entry['unit']}")
    for key, value in sorted(notes.items()):
        print(f"{name} note {key} {value}")
    for message in failures[:20]:
        print(f"{name} FAILED {message}", file=sys.stderr)
    if args.out:
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
        append_result(args.out, {**record, **result})
    print(json.dumps(result))
    return result


def append_result(path: Path, record: dict) -> None:
    document = json.loads(path.read_text()) if path.exists() else {"runs": []}
    document["runs"].append(record)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {SRC / 'repro'} does not exist")
    from steady import steady_process

    steady_process()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if len(args.workload) == 1:
        return 0 if run_workload(args.workload[0], args, manifest)["correct"] else 1
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    flags += ["--smoke"] * args.smoke + ["--regen-golden"] * args.regen_golden
    flags += ["--out", str(args.out)] if args.out else []
    flags += ["--sabotage", args.sabotage] if args.sabotage else []
    status = 0
    for name in args.workload:
        done = subprocess.run([sys.executable, __file__, "--workload", name, *flags])
        status = status or done.returncode
    return status


if __name__ == "__main__":
    raise SystemExit(main())
