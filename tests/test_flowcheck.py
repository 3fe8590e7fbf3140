"""Flowcheck: the type × interval × rate abstract interpretation."""

import json
import math
from pathlib import Path

import pytest

from repro.check.__main__ import main as check_main
from repro.check.absint import MoaInterpreter
from repro.check.flowcheck import (
    FlowChecker,
    Interval,
    check_feature_set,
    check_moa_flow,
)
from repro.errors import MilCheckError, MoaError
from repro.moa.algebra import Apply, Arith, Cmp, Const, Map, Select, Var
from repro.monet.kernel import MonetKernel
from repro.monet.module import CommandSignature

BADPLANS = Path(__file__).resolve().parent / "data" / "badplans"


# ---------------------------------------------------------------------------
# the interval lattice
# ---------------------------------------------------------------------------


class TestInterval:
    def test_hull_and_empty(self):
        empty = Interval(math.inf, -math.inf)
        assert empty.is_empty
        assert empty.hull(Interval(0.0, 1.0)) == Interval(0.0, 1.0)
        assert Interval(0.0, 0.5).hull(Interval(0.3, 2.0)) == Interval(0.0, 2.0)

    def test_escapes_requires_known_bounds(self):
        assert Interval(0.0, 2.0).escapes(0.0, 1.0)
        assert not Interval(0.0, 1.0).escapes(0.0, 1.0)
        # TOP and half-open intervals are over-approximations: silent
        assert not Interval().escapes(0.0, 1.0)
        assert not Interval(0.0, math.inf).escapes(0.0, 1.0)

    def test_within_treats_empty_as_vacuous(self):
        assert Interval(math.inf, -math.inf).within(0.0, 1.0)


# ---------------------------------------------------------------------------
# MIL flow analysis against a tiny signature table
# ---------------------------------------------------------------------------

SIGS = {
    "quant": CommandSignature(
        "quant",
        ("BAT[void,dbl]",),
        "BAT[void,int]",
        module="m",
        arg_ranges=((0.0, 1.0),),
    ),
    "score": CommandSignature(
        "score", ("BAT[void,int]",), "flt", module="m"
    ),
    "prob": CommandSignature(
        "prob", (), "dbl", module="m", returns_range=(0.0, 1.0)
    ),
    "mmap": CommandSignature("mmap", ("BAT", "str", "dbl"), "BAT", module="bulk"),
    "mselect": CommandSignature(
        "mselect", ("BAT", "str", "any"), "BAT", module="bulk"
    ),
}


def flow(source):
    return FlowChecker(commands=set(SIGS), signatures=SIGS).check_source(source)


class TestMilFlow:
    def test_feature_param_satisfies_contract(self):
        report = flow(
            """
            PROC p(BAT[void,dbl] f1) : int := {
              VAR q := quant(f1);
              RETURN q.count;
            }
            """
        )
        assert not report, report.format()

    def test_mmap_widening_escapes_contract(self):
        report = flow(
            """
            PROC p(BAT[void,dbl] f1) : int := {
              VAR g := mmap(f1, "*", 3.0);
              VAR q := quant(g);
              RETURN q.count;
            }
            """
        )
        assert [d.code for d in report] == ["FLOW005"]
        assert report.errors

    def test_mselect_narrowing_restores_contract(self):
        report = flow(
            """
            PROC p(BAT[void,dbl] f1) : int := {
              VAR g := mmap(f1, "*", 3.0);
              VAR s := mselect(g, "<=", 1.0);
              VAR q := quant(s);
              RETURN q.count;
            }
            """
        )
        assert not report, report.format()

    def test_select_method_narrows(self):
        report = flow(
            """
            PROC p(BAT[void,dbl] f1) : int := {
              VAR g := mmap(f1, "+", 1.0);
              VAR s := g.select(0.0, 1.0);
              VAR q := quant(s);
              RETURN q.count;
            }
            """
        )
        assert not report, report.format()

    def test_boundary_type_mismatch_is_flow004(self):
        report = flow(
            """
            PROC p(BAT[void,dbl] f1) : flt := {
              VAR s := score(f1);
              RETURN s;
            }
            """
        )
        assert [d.code for d in report] == ["FLOW004"]

    def test_returns_range_seeds_then_arith_escapes(self):
        report = flow(
            """
            PROC p() : int := {
              VAR x := prob() + 1.0;
              VAR b := new(void, dbl);
              b.insert(x);
              VAR q := quant(b);
              RETURN q.count;
            }
            """
        )
        assert [d.code for d in report] == ["FLOW005"]

    def test_maybe_assigned_is_a_warning(self):
        report = flow(
            """
            PROC p(int n) : int := {
              VAR x;
              IF (n > 0) { x := 1; }
              RETURN x;
            }
            """
        )
        assert [d.code for d in report] == ["FLOW001"]
        assert report.warnings and not report.errors

    def test_loop_carried_store_is_not_dead(self):
        report = flow(
            """
            PROC p(int n) : int := {
              VAR x := 0;
              WHILE (n > 0) {
                x := x + 1;
                n := n - 1;
              }
              RETURN x;
            }
            """
        )
        assert not report, report.format()

    def test_syntax_error_is_left_to_milcheck(self):
        assert not flow("PROC broken( := {}")


# ---------------------------------------------------------------------------
# Moa expression flow
# ---------------------------------------------------------------------------


class TestMoaFlow:
    def test_map_multiply_escapes_evidence_contract(self):
        expr = Apply(
            "dbn",
            "infer",
            [Map("x", Arith("*", Var("x"), Const(2.0)), Var("f1"))],
        )
        report = check_moa_flow(MoaInterpreter().run(expr))
        assert [d.code for d in report] == ["FLOW005"]

    def test_select_keeps_element_range(self):
        expr = Apply(
            "dbn",
            "infer",
            [Select("x", Cmp(">", Var("x"), Const(0.5)), Var("f1"))],
        )
        assert not check_moa_flow(MoaInterpreter().run(expr))

    def test_explicit_ranges_override_seeding(self):
        expr = Apply("hmm", "evaluate", [Var("raw")])
        report = check_moa_flow(MoaInterpreter({"raw": (0.0, 255.0)}).run(expr))
        assert [d.code for d in report] == ["FLOW005"]

    def test_non_evidence_extension_is_not_checked(self):
        expr = Apply(
            "videoproc",
            "features",
            [Map("x", Arith("*", Var("x"), Const(9.0)), Var("f1"))],
        )
        assert not check_moa_flow(MoaInterpreter().run(expr))

    def test_compiler_collects_flow_findings(self):
        from repro.moa.rewrite import MoaCompiler

        compiler = MoaCompiler(MonetKernel(check="off"), check="warn")
        expr = Apply(
            "dbn",
            "infer",
            [Map("x", Arith("*", Var("x"), Const(2.0)), Var("f1"))],
        )
        # Apply is outside the MIL-compilable subset, but the precheck runs
        # (and collects) before the rewrite rejects the shape.
        with pytest.raises(MoaError):
            compiler.compile(expr)
        assert any(d.code == "FLOW005" for d in compiler.diagnostics)


# ---------------------------------------------------------------------------
# feature-set profile checks
# ---------------------------------------------------------------------------


class TestFeatureSet:
    def test_clean_streams_pass(self):
        streams = {"f1": [0.1] * 20, "f2": [0.9] * 20}
        assert not check_feature_set(streams, duration=2.0)

    def test_nan_is_flow005(self):
        report = check_feature_set({"f1": [0.1, math.nan, 0.2]})
        assert [d.code for d in report] == ["FLOW005"]

    def test_one_finding_per_stream(self):
        report = check_feature_set({"f1": [1.5, 2.5, 3.5]})
        assert [d.code for d in report] == ["FLOW005"]

    def test_length_disagreement_is_flow006(self):
        report = check_feature_set({"f1": [0.1] * 10, "f2": [0.1] * 12})
        assert [d.code for d in report] == ["FLOW006"]

    def test_duration_rate_mismatch_is_flow006(self):
        report = check_feature_set({"f1": [0.1] * 15}, duration=2.0)
        assert [d.code for d in report] == ["FLOW006"]


# ---------------------------------------------------------------------------
# the define_proc choke point
# ---------------------------------------------------------------------------


class TestChokePoints:
    def test_define_proc_rejects_flow_errors(self):
        kernel = MonetKernel(check="error")
        with pytest.raises(MilCheckError) as err:
            kernel.run("PROC bad() : int := { VAR x; RETURN x; }")
        assert any(d.code == "FLOW001" for d in err.value.diagnostics)

    def test_define_proc_rejects_race_errors(self):
        kernel = MonetKernel(check="error")
        with pytest.raises(MilCheckError) as err:
            kernel.run(
                """
                PROC bad(BAT[void,dbl] a) : int := {
                  PARALLEL {
                    persist("x", a);
                    persist("x", a);
                  }
                  RETURN 1;
                }
                """
            )
        assert any(d.code == "RACE001" for d in err.value.diagnostics)

    def test_warn_mode_collects_without_raising(self):
        kernel = MonetKernel(check="warn")
        kernel.run("PROC shaky() : int := { VAR x; RETURN x; }")
        assert any(
            d.code == "FLOW001" for d in kernel.interpreter.diagnostics
        )


# ---------------------------------------------------------------------------
# CLI formats
# ---------------------------------------------------------------------------


class TestCli:
    def test_json_output_round_trips(self, capsys):
        path = BADPLANS / "flow001_uninit.mil"
        code = check_main(["--format", "json", str(path)])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["tool"] == "repro.check"
        assert document["errors"] >= 1
        assert any(d["code"] == "FLOW001" for d in document["diagnostics"])

    def test_sarif_output_structure(self, capsys):
        path = BADPLANS / "race001_parallel_persist.mil"
        code = check_main(["--format", "sarif", str(path)])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.check"
        assert any(r["ruleId"] == "RACE001" for r in run["results"])
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".mil")

    def test_strict_promotes_warnings(self, capsys):
        path = BADPLANS / "flow002_dead_store.mil"
        assert check_main([str(path)]) == 0
        capsys.readouterr()
        assert check_main(["--strict", str(path)]) == 1

    def test_builtins_lint_clean_under_strict(self, capsys):
        assert check_main(["--strict"]) == 0
