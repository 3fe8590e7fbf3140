"""Smoke test of the pipeline benchmark — run by hand until CI may change:

    PYTHONPATH=src python3 -m pytest benchmarks/pipeline/test_smoke.py -q

It sits outside the tier-1 ``testpaths`` on purpose (about two minutes,
most of them races going through the extraction chain).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
MANIFEST = json.loads((RUN.parents[2] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", *flags], capture_output=True, text=True
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_declared_metric(workload: str, trace: str) -> None:
    done = run("--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, sabotage",
    [("query_serve", "oracle"), ("fleet_mixed", "oracle"), ("register_durable", "wal")],
)
def test_a_wrong_answer_or_a_lost_write_fails_the_run(workload: str, sabotage: str) -> None:
    done = run("--workload", workload, "--sabotage", sabotage)
    assert done.returncode != 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
