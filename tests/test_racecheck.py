"""Racecheck (static) and the runtime sanitizer (dynamic) — same defects."""

import threading
from pathlib import Path

import pytest

from repro.check.racecheck import RaceChecker
from repro.errors import MilCheckError, SanitizerError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.mil import parse
from repro.monet.module import MonetModule, command

REPO_ROOT = Path(__file__).resolve().parents[1]

TWO_BRANCH_PERSIST = """
PROC bad(BAT[void,dbl] a) : int := {
  PARALLEL {
    persist("scores", a);
    persist("scores", a);
  }
  RETURN 1;
}
"""


def feature_bat(values=(0.1, 0.2, 0.3)):
    bat = BAT("void", "dbl")
    bat.insert_bulk(None, list(values))
    return bat


def define_unchecked(kernel, source):
    """Register a PROC bypassing the static passes (sanitizer-only path)."""
    (definition,) = parse(source)
    return kernel.interpreter.define_proc(definition, check="off")


# ---------------------------------------------------------------------------
# static analysis
# ---------------------------------------------------------------------------


class TestRaceChecker:
    def test_fig4_parallel_hmm_idiom_is_clean(self):
        source = (REPO_ROOT / "examples/procedures/parallel_hmm.mil").read_text()
        assert not RaceChecker().check_source(source)

    def test_append_append_is_exempt(self):
        report = RaceChecker().check_source(
            """
            PROC p(BAT[str,flt] acc) : int := {
              PARALLEL {
                acc.insert("a", 0.1);
                acc.insert("b", 0.2);
              }
              RETURN acc.count;
            }
            """
        )
        assert not report, report.format()

    def test_write_write_on_one_bat(self):
        report = RaceChecker().check_source(
            """
            PROC p(BAT[void,dbl] b) : int := {
              PARALLEL {
                b.replace(0, 0.1);
                b.delete(1);
              }
              RETURN 1;
            }
            """
        )
        assert [d.code for d in report] == ["RACE001"]

    def test_branch_local_bats_do_not_conflict(self):
        report = RaceChecker().check_source(
            """
            PROC p() : int := {
              PARALLEL {
                IF (true) { VAR u := new(void, dbl); u.replace(0, 0.1); }
                IF (true) { VAR v := new(void, dbl); v.replace(0, 0.2); }
              }
              RETURN 1;
            }
            """
        )
        assert not report, report.format()

    def test_single_branch_parallel_is_clean(self):
        report = RaceChecker().check_source(
            """
            PROC p(BAT[void,dbl] b) : int := {
              PARALLEL {
                b.replace(0, 0.1);
              }
              RETURN 1;
            }
            """
        )
        assert not report, report.format()

    def test_two_branch_persist_is_race001(self):
        report = RaceChecker().check_source(TWO_BRANCH_PERSIST)
        assert [d.code for d in report] == ["RACE001"]

    def test_race004_suppressed_when_race001_fires(self):
        # the conflicting persists must yield one finding, not three
        report = RaceChecker().check_source(TWO_BRANCH_PERSIST)
        assert "RACE004" not in report.codes()

    def test_constructor_mirrors_other_checkers(self):
        checker = RaceChecker(
            commands={"persist"}, signatures={}, globals_names=["g"], procedures={}
        )
        assert not checker.check_source("PROC p() : int := { RETURN 1; }")


# ---------------------------------------------------------------------------
# the runtime sanitizer
# ---------------------------------------------------------------------------


class RangeModule(MonetModule):
    name = "rng"

    @command(args=("dbl",), returns="dbl", arg_ranges=((0.0, 1.0),))
    def clamp(self, value: float) -> float:
        return value

    @command(args=("dbl",), returns="dbl", returns_range=(0.0, 1.0))
    def leak(self, value: float) -> float:
        return value + 1.0


class TestSanitizer:
    def test_off_by_default(self):
        assert MonetKernel().sanitizer is None

    def test_sanitize_mode_still_rejects_statically(self):
        kernel = MonetKernel(check="sanitize")
        with pytest.raises(MilCheckError) as err:
            kernel.run(TWO_BRANCH_PERSIST)
        assert any(d.code == "RACE001" for d in err.value.diagnostics)

    def test_catalog_race_caught_dynamically(self):
        kernel = MonetKernel(threads=3, check="sanitize")
        define_unchecked(kernel, TWO_BRANCH_PERSIST)
        with pytest.raises(SanitizerError):
            kernel.call("bad", [feature_bat()])
        assert any(d.code == "RACE001" for d in kernel.sanitizer.findings)

    def test_distinct_catalog_names_run_clean(self):
        kernel = MonetKernel(threads=3, check="sanitize")
        define_unchecked(
            kernel,
            """
            PROC ok(BAT[void,dbl] a) : int := {
              PARALLEL {
                persist("left", a);
                persist("right", a);
              }
              RETURN 1;
            }
            """,
        )
        assert kernel.call("ok", [feature_bat()]) == 1
        assert not kernel.sanitizer.findings
        assert kernel.bat("left").owner_tag is not None

    def test_txn_mutation_from_foreign_thread_is_race005(self):
        kernel = MonetKernel(check="sanitize")
        caught: list[SanitizerError] = []

        def worker():
            try:
                kernel.persist("stolen", feature_bat())
            except SanitizerError as exc:
                caught.append(exc)

        with kernel.transaction():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert caught
        assert any(d.code == "RACE005" for d in kernel.sanitizer.findings)
        assert "stolen" not in kernel.catalog_names()

    def test_arg_range_contract_enforced_dynamically(self):
        kernel = MonetKernel(check="sanitize")
        kernel.load_module(RangeModule())
        kernel.run("PROC p(dbl v) : dbl := { RETURN clamp(v); }")
        assert kernel.call("p", [0.5]) == 0.5
        # statically silent (a scalar parameter has no known interval);
        # the sanitizer catches the residue at runtime
        with pytest.raises(SanitizerError):
            kernel.call("p", [1.5])
        assert any(d.code == "FLOW005" for d in kernel.sanitizer.findings)

    def test_returns_range_contract_enforced_dynamically(self):
        kernel = MonetKernel(check="sanitize")
        kernel.load_module(RangeModule())
        kernel.run("PROC q(dbl v) : dbl := { RETURN leak(v); }")
        with pytest.raises(SanitizerError):
            kernel.call("q", [0.5])

    def test_unarmed_kernel_does_not_enforce(self):
        kernel = MonetKernel(check="error")
        kernel.load_module(RangeModule())
        kernel.run("PROC p(dbl v) : dbl := { RETURN clamp(v); }")
        assert kernel.call("p", [1.5]) == 1.5
