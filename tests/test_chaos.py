"""The chaos harness: every scenario reproduces the reports its per-layer
predecessors wrote (``tests/data/chaos_reports.json``), the CLI's exit
codes, and the fault-site table covering every kill site."""

import json
import re
from pathlib import Path

import pytest

from repro.chaos import SCENARIOS, ChaosReport, kill_sweep
from repro.chaos.__main__ import main
from repro.chaos.durability import CRASH_SITES
from repro.chaos.replication import KILL_SWEEP_SITES
from repro.chaos.sharding import MIGRATION_KILL_SITES, PLACEMENT_KILL_SITES
from repro.errors import SimulatedCrash
from repro.faults.plans import SITE_FAMILIES

DATA = Path(__file__).parent / "data" / "chaos_reports.json"
SRC = Path(__file__).parent.parent / "src" / "repro"


def without_seed(value):
    """The old reports echoed a ``seed`` that changed nothing."""
    if isinstance(value, dict):
        return {k: without_seed(v) for k, v in value.items() if k != "seed"}
    if isinstance(value, list):
        return [without_seed(v) for v in value]
    return value


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("chaos")
    out = base / "CHAOS.json"
    code = main(["--dir", str(base / "scratch"), "--out", str(out), "--no-fsync"])
    return code, out


class TestReports:
    def test_every_scenario_passes_and_exits_zero(self, full_run):
        code, out = full_run
        assert code == 0
        document = json.loads(out.read_text())
        assert document["ok"]
        assert list(document["scenarios"]) == sorted(SCENARIOS)
        for scenario in document["scenarios"].values():
            assert scenario["ok"] and scenario["deterministic"]

    @pytest.mark.parametrize(
        "scenario, section",
        [
            ("shard-death", "scenario"),
            ("shard-death", "sweep"),
            ("migration", "split"),
            ("migration", "migration_sweep"),
            ("replication", "scenario"),
            ("replication", "sweep"),
        ],
    )
    def test_section_reproduces_the_parent_report(
        self, full_run, scenario, section
    ):
        oracle = json.loads(DATA.read_text())
        document = json.loads(full_run[1].read_text())
        got = document["scenarios"][scenario][section]
        assert got == without_seed(oracle[scenario][section])

    def test_durability_sweep_reproduces_every_site(self, full_run):
        oracle = json.loads(DATA.read_text())["durability"]
        document = json.loads(full_run[1].read_text())
        sweep = document["scenarios"]["durability"]["sweep"]
        assert sweep["results"] == oracle and sweep["ok"]

    def test_overload_reproduces_the_service_report(self, full_run):
        oracle = json.loads(DATA.read_text())["overload"]
        document = json.loads(full_run[1].read_text())
        scenario = document["scenarios"]["overload"]["scenario"]
        assert scenario["report"] == oracle["report"]
        assert scenario["committed"] == oracle["committed"]

    def test_fresh_directories_write_byte_identical_reports(
        self, full_run, tmp_path
    ):
        rerun = tmp_path / "CHAOS.json"
        code = main(["--dir", str(tmp_path / "scratch"), "--out", str(rerun), "--no-fsync"])
        assert code == 0
        assert rerun.read_bytes() == full_run[1].read_bytes()


class TestKillSweep:
    @staticmethod
    def two_phase(scratch, label, faults, fsync):
        appended = []
        try:
            for record in ("prepare", "commit"):
                appended.append(record)
                faults.on_call("journal.append:mid")
        except SimulatedCrash:
            return ChaosReport({"killed_in": appended[-1], "dir": scratch.name})
        return ChaosReport({"killed_in": None, "dir": scratch.name})

    def test_a_record_label_kills_inside_that_append(self, tmp_path):
        labels = ["journal.append:mid@prepare", "journal.append:mid@commit"]
        reports = kill_sweep(tmp_path, labels, self.two_phase, False)
        assert [r.payload for r in reports] == [
            {"killed_in": "prepare", "dir": "journal_append__mid__prepare"},
            {"killed_in": "commit", "dir": "journal_append__mid__commit"},
        ]
        assert all(r.ok for r in reports)

    def test_a_kill_that_never_fired_fails_the_site(self, tmp_path):
        [report] = kill_sweep(tmp_path, ["wal.commit:mid"], self.two_phase, False)
        assert report.payload["killed_in"] is None
        assert report.failures == ["kill at wal.commit:mid never fired"]


class TestCli:
    def test_a_failure_exits_one(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(
            SCENARIOS,
            "durability",
            {"sweep": lambda base, fsync: [ChaosReport({"site": "x"}, ["boom"])]},
        )
        out = tmp_path / "report.json"
        assert main(["durability", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "FAIL  site=x" in text and "boom" in text
        assert "chaos: FAILED" in text
        section = json.loads(out.read_text())["scenarios"]["durability"]
        assert section["deterministic"] and not section["ok"]
        assert section["sweep"] == {
            "results": [{"site": "x", "failures": ["boom"], "ok": False}],
            "ok": False,
        }

    def test_diverging_runs_exit_one(self, monkeypatch, capsys):
        # the run directory leaks into the payload: run-1 != run-2
        monkeypatch.setitem(
            SCENARIOS,
            "overload",
            {"scenario": lambda base, fsync: ChaosReport({"run": base.parent.name})},
        )
        assert main(["overload"]) == 1
        text = capsys.readouterr().out
        assert "NON-DETERMINISTIC: two runs of overload diverged" in text
        assert "chaos: FAILED" in text

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["durability", "meltdown"])
        assert exc.value.code == 2
        assert "unknown scenario(s) meltdown" in capsys.readouterr().err

    def test_a_reused_dir_is_a_usage_error(self, tmp_path, capsys):
        scratch = tmp_path / "scratch"
        assert main(["replication", "--dir", str(scratch), "--no-fsync"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["replication", "--dir", str(scratch), "--no-fsync"])
        assert exc.value.code == 2
        assert "is not empty" in capsys.readouterr().err


def family_pattern(family: str) -> re.Pattern:
    """``wal.append:<point>`` / ``migration:planned|copied`` as a regex:
    ``<name>`` is any segment, ``a|b`` alternates the last segment."""
    prefix, last = re.fullmatch(r"(.*?[.:]?)([^.:]*)", family).groups()

    def literal(text: str) -> str:
        return re.sub(r"<\w+>", r"[^:]+", re.escape(text))

    alternatives = "|".join(literal(option) for option in last.split("|"))
    return re.compile(f"{literal(prefix)}(?:{alternatives})")


class TestSiteFamilies:
    @pytest.mark.parametrize(
        "label",
        [
            *CRASH_SITES,
            *KILL_SWEEP_SITES,
            *PLACEMENT_KILL_SITES,
            *MIGRATION_KILL_SITES,
        ],
    )
    def test_every_kill_site_is_a_listed_family(self, label):
        site = label.partition("@")[0]
        families = [
            family
            for family in SITE_FAMILIES
            if family_pattern(family).fullmatch(site)
        ]
        assert families, f"{site} matches no SITE_FAMILIES entry"

    def test_the_pattern_reading_is_strict(self):
        assert family_pattern("migration:planned|copied").fullmatch("migration:copied")
        assert not family_pattern("migration:planned|copied").fullmatch("migration:x")
        assert family_pattern("moa.invoke:<ext>.<op>").fullmatch("moa.invoke:dbn.infer")
        assert not family_pattern("wal.append:<point>").fullmatch("wal.commit:mid")


def test_no_layer_imports_the_harness():
    """The harness sits above every layer it drives."""
    importers = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "chaos" not in path.relative_to(SRC).parts
        and re.search(r"^\s*(from|import) repro\.chaos\b", path.read_text(), re.M)
    ]
    assert importers == []
