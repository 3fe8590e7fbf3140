"""Compare two result files written by ``run.py --out``: A is the parent.

    python3 benchmarks/pipeline/compare.py A.json B.json

Each file holds any number of runs; the more runs per side, the tighter the
medians. One row per workload × metric with the verdict

* ``better`` / ``worse`` — B's median moved past the metric's bound, in the
  metric's direction (BENCHMARK.json gives both);
* ``same`` — B's median is within the bound of A's;
* ``unresolved`` — on either side the runs spread (first to third quartile,
  as a share of the median) wider than the bound, so neither ``same`` nor a
  change can be claimed. Per-layer metrics have no bound and are listed
  with their medians only.

Exits non-zero when any end-to-end metric is ``worse`` or B failed more
ops than A on any workload.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]


def load(path: str):
    """(workload, metric) -> values, and workload -> failed ops."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    failed: dict[str, int] = defaultdict(int)
    for run in json.loads(Path(path).read_text())["runs"]:
        failed[run["workload"]] += run["failed"]
        for name, entry in run["metrics"].items():
            values[run["workload"], name].append(entry["value"])
    return values, failed


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2 or not median(values):
        return 0.0
    first, _, third = quantiles(values, n=4)
    return (third - first) / abs(median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base = median(a)
    change = (median(b) - base) / abs(base) if base else 0.0
    gain = change if better == "higher" else -change
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    (a_values, a_failed), (b_values, b_failed) = load(argv[0]), load(argv[1])
    status = 0
    for workload, name in sorted(a_values.keys() & b_values.keys()):
        a, b = a_values[workload, name], b_values[workload, name]
        if not (median(a) or median(b)):
            continue  # a layer this workload never enters
        metric = declared[name]
        if "bound" in metric:
            outcome = verdict(a, b, metric["better"], metric["bound"])
            status |= outcome == "worse"
        else:
            outcome = "-"
        print(
            f"{workload:17s} {name:30s} {median(a):12.6g} -> {median(b):12.6g} "
            f"{metric['unit']:7s} spread {spread(a):6.1%} {spread(b):6.1%}  {outcome}"
        )
    for workload in sorted(a_failed.keys() | b_failed.keys()):
        if b_failed[workload] > a_failed[workload]:
            print(f"{workload:17s} failed ops {a_failed[workload]} -> {b_failed[workload]}  worse")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
