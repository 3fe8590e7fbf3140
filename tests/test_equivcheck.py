"""Moa→MIL translation validation: abstract semantics and EQnnn.

The validator must certify every built-in plan (including the Fig. 4
``parallelHmm``-path gate), catch a deliberately mutated rewrite (EQ002),
and decline gracefully on constructs outside the abstract algebra (EQ003).
"""

import pytest

from repro.check.equivcheck import (
    abstract_mil,
    abstract_moa,
    normalize,
    validate_translation,
)
from repro.errors import MoaCheckError
from repro.moa.algebra import Aggregate, Cmp, Const, Join, Select, Var
from repro.moa.rewrite import MoaCompiler, builtin_moa_plans
from repro.monet.kernel import MonetKernel


@pytest.fixture()
def kernel():
    return MonetKernel(check="warn")


# ---------------------------------------------------------------------------
# the abstract semantics
# ---------------------------------------------------------------------------


class TestAbstraction:
    def test_moa_and_mil_sides_meet_in_the_same_term(self):
        expr = Select("e", Cmp(">", Var("e"), Const(0.6)), Var("excitement"))
        mil = (
            "PROC p(BAT[void,dbl] excitement) : any := {\n"
            '  VAR t0 := mselect(excitement, ">", 0.6);\n'
            "  RETURN t0;\n"
            "}\n"
        )
        assert abstract_moa(expr) == abstract_mil(mil, "p", ["excitement"])

    def test_adjacent_selections_commute_under_normalization(self):
        # moa applies (>0.2) then (<0.8); the plan emits them reversed —
        # multiset semantics says both keep exactly the same associations
        expr = Select(
            "e",
            Cmp("<", Var("e"), Const(0.8)),
            Select("e", Cmp(">", Var("e"), Const(0.2)), Var("x")),
        )
        mil = (
            "PROC p(BAT[void,dbl] x) : any := {\n"
            '  VAR t0 := mselect(x, "<", 0.8);\n'
            '  VAR t1 := mselect(t0, ">", 0.2);\n'
            "  RETURN t1;\n"
            "}\n"
        )
        assert normalize(abstract_moa(expr)) == normalize(
            abstract_mil(mil, "p", ["x"])
        )

    def test_map_does_not_commute_with_select(self):
        report = validate_translation(
            Select("e", Cmp(">", Var("e"), Const(0.5)), Var("x")),
            (
                "PROC p(BAT[void,dbl] x) : any := {\n"
                '  VAR t0 := mmap(x, "+", 0.0);\n'
                '  VAR t1 := mselect(t0, ">", 0.5);\n'
                "  RETURN t1;\n"
                "}\n"
            ),
            "p",
            ["x"],
        )
        assert [d.code for d in report] == ["EQ002"]

    def test_int_and_float_literals_are_quotiented(self):
        expr = Select("e", Cmp(">", Var("e"), Const(1)), Var("x"))
        mil = (
            "PROC p(BAT[void,dbl] x) : any := {\n"
            '  VAR t0 := mselect(x, ">", 1.0);\n'
            "  RETURN t0;\n"
            "}\n"
        )
        report = validate_translation(expr, mil, "p", ["x"])
        assert [d.code for d in report] == ["EQ001"]


# ---------------------------------------------------------------------------
# the compiler integration
# ---------------------------------------------------------------------------


class TestCompilerValidation:
    def test_every_builtin_plan_is_certified(self, kernel):
        compiler = MoaCompiler(kernel, check="warn")
        plans = builtin_moa_plans()
        assert "excitementGate" in plans  # the Fig. 4 parallelHmm path
        for name, expr in plans.items():
            before = len(compiler.diagnostics)
            compiler.compile(expr)
            codes = [d.code for d in compiler.diagnostics[before:]]
            assert codes.count("EQ001") == 1, name

    def test_mutated_select_emission_trips_eq002(self, kernel):
        class MutatedCompiler(MoaCompiler):
            def _emit_select(self, tmp, src, op, value):
                return super()._emit_select(tmp, src, "<", value)

        compiler = MutatedCompiler(kernel, check="error")
        with pytest.raises(MoaCheckError) as err:
            compiler.compile(builtin_moa_plans()["excitementGate"])
        assert "EQ002" in [d.code for d in err.value.diagnostics]

    def test_mutation_under_check_warn_yields_uncertified_plan(self, kernel):
        class MutatedCompiler(MoaCompiler):
            def _emit_select(self, tmp, src, op, value):
                return super()._emit_select(tmp, src, "<", value)

        compiler = MutatedCompiler(kernel, check="warn")
        compiler.compile(builtin_moa_plans()["excitementGate"])
        codes = [d.code for d in compiler.diagnostics]
        assert "EQ002" in codes
        assert "EQ001" not in codes

    def test_certified_plan_still_computes_the_right_answer(self, kernel):
        from repro.monet.bat import BAT

        compiler = MoaCompiler(kernel, check="error")
        plan = compiler.compile(builtin_moa_plans()["excitementGate"])
        bat = BAT("void", "dbl")
        bat.insert_bulk([0, 1, 2, 3], [0.2, 0.7, 0.9, 0.5])
        result = compiler.execute(plan, excitement=bat)
        assert sorted(result.tails()) == [0.7, 0.9]


# ---------------------------------------------------------------------------
# EQ003
# ---------------------------------------------------------------------------


class TestFallbackAndCertificates:
    def test_unsupported_moa_construct_is_advisory(self):
        join = Join(
            "a",
            "b",
            Cmp("=", Var("a"), Var("b")),
            Var("left"),
            Var("right"),
            Var("a"),
        )
        report = validate_translation(
            join, "PROC p() : any := { RETURN 0; }", "p"
        )
        codes = [(d.code, d.severity.name) for d in report]
        assert codes == [("EQ003", "WARNING")]

    def test_unsupported_mil_construct_is_advisory(self):
        report = validate_translation(
            Aggregate("sum", Var("x")),
            "PROC p(BAT[void,dbl] x) : any := {\n  VAR t0 := x.sum();\n  RETURN t0;\n}\n",
            "p",
            ["x"],
        )
        assert [d.code for d in report] == ["EQ003"]
