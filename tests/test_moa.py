"""Moa algebra: types, evaluation, extension dispatch, MIL rewriting."""

import pytest

from repro.errors import MoaError, MoaTypeError
from repro.moa.algebra import (
    Aggregate,
    Apply,
    Arith,
    BoolOp,
    Cmp,
    Const,
    Field,
    Join,
    MakeTuple,
    Map,
    Nest,
    Not,
    Select,
    Semijoin,
    SetOp,
    The,
    Unnest,
    Var,
    evaluate,
)
from repro.moa.extension import ExtensionRegistry, MoaExtension
from repro.moa.rewrite import MoaCompiler
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel

CARS = [
    {"driver": "SCHUMACHER", "speed": 320.0, "team": "ferrari"},
    {"driver": "HAKKINEN", "speed": 310.0, "team": "mclaren"},
    {"driver": "BARRICHELLO", "speed": 290.0, "team": "ferrari"},
]


class TestEvaluation:
    def test_select(self):
        expr = Select("c", Cmp(">", Field(Var("c"), "speed"), Const(300.0)), Var("cars"))
        out = evaluate(expr, {"cars": CARS})
        assert [c["driver"] for c in out] == ["SCHUMACHER", "HAKKINEN"]

    def test_map_maketuple(self):
        expr = Map(
            "c",
            MakeTuple.of(who=Field(Var("c"), "driver")),
            Var("cars"),
        )
        assert evaluate(expr, {"cars": CARS})[0] == {"who": "SCHUMACHER"}

    def test_join_on_team(self):
        teams = [{"team": "ferrari", "country": "it"}]
        expr = Join(
            "c",
            "t",
            Cmp("=", Field(Var("c"), "team"), Field(Var("t"), "team")),
            Var("cars"),
            Var("teams"),
            MakeTuple.of(
                driver=Field(Var("c"), "driver"),
                country=Field(Var("t"), "country"),
            ),
        )
        out = evaluate(expr, {"cars": CARS, "teams": teams})
        assert len(out) == 2 and all(r["country"] == "it" for r in out)

    def test_semijoin(self):
        fast = [{"team": "ferrari"}]
        expr = Semijoin(
            "c",
            "f",
            Cmp("=", Field(Var("c"), "team"), Field(Var("f"), "team")),
            Var("cars"),
            Var("fast"),
        )
        assert len(evaluate(expr, {"cars": CARS, "fast": fast})) == 2

    def test_nest_unnest_roundtrip(self):
        nested = evaluate(Nest(Var("cars"), ("team",), "members"), {"cars": CARS})
        assert {n["team"] for n in nested} == {"ferrari", "mclaren"}
        ferrari = next(n for n in nested if n["team"] == "ferrari")
        assert len(ferrari["members"]) == 2
        flat = evaluate(Unnest(Const(nested), "members"), {})
        assert len(flat) == 3

    def test_aggregates(self):
        speeds = Map("c", Field(Var("c"), "speed"), Var("cars"))
        assert evaluate(Aggregate("count", speeds), {"cars": CARS}) == 3
        assert evaluate(Aggregate("max", speeds), {"cars": CARS}) == 320.0
        assert evaluate(Aggregate("avg", speeds), {"cars": CARS}) == pytest.approx(
            306.666, abs=0.01
        )

    def test_empty_aggregate_raises(self):
        with pytest.raises(MoaError):
            evaluate(Aggregate("max", Const([])), {})

    def test_set_ops(self):
        a, b = Const([1, 2, 3]), Const([2, 3, 4])
        assert evaluate(SetOp("union", a, b), {}) == [1, 2, 3, 4]
        assert evaluate(SetOp("diff", a, b), {}) == [1]
        assert evaluate(SetOp("intersect", a, b), {}) == [2, 3]

    def test_the_singleton(self):
        assert evaluate(The(Const([42])), {}) == 42
        with pytest.raises(MoaError):
            evaluate(The(Const([1, 2])), {})

    def test_boolean_ops(self):
        expr = BoolOp("and", Const(True), Not(Const(False)))
        assert evaluate(expr, {}) is True

    def test_unbound_variable(self):
        with pytest.raises(MoaError):
            evaluate(Var("ghost"), {})

    def test_field_on_non_tuple(self):
        with pytest.raises(MoaTypeError):
            evaluate(Field(Const(3), "x"), {})


class TestExtensions:
    def test_apply_dispatch(self):
        class Doubler(MoaExtension):
            name = "doubler"

            def operators(self):
                return {"double": lambda x: x * 2}

        registry = ExtensionRegistry()
        registry.register(Doubler())
        expr = Apply("doubler", "double", (Const(21),))
        assert evaluate(expr, {}, registry) == 42

    def test_apply_without_registry(self):
        with pytest.raises(MoaError):
            evaluate(Apply("x", "y", ()), {})

    def test_unknown_operator(self):
        class Empty(MoaExtension):
            name = "empty"

            def operators(self):
                return {}

        registry = ExtensionRegistry()
        registry.register(Empty())
        with pytest.raises(MoaError):
            registry.invoke("empty", "ghost", [])

    def test_duplicate_extension(self):
        class E(MoaExtension):
            name = "e"

            def operators(self):
                return {}

        registry = ExtensionRegistry()
        registry.register(E())
        with pytest.raises(MoaError):
            registry.register(E())


class TestMilRewriting:
    def setup_method(self):
        self.kernel = MonetKernel()
        self.compiler = MoaCompiler(self.kernel)
        self.speeds = BAT("void", "dbl")
        self.speeds.insert_bulk(None, [0.1, 0.6, 0.9, 0.4, 0.7])

    def test_select_count_pipeline(self):
        expr = Aggregate(
            "count", Select("x", Cmp(">", Var("x"), Const(0.5)), Var("speeds"))
        )
        plan = self.compiler.compile(expr)
        assert "mselect" in plan.mil_source and "maggr" in plan.mil_source
        assert self.compiler.execute(plan, speeds=self.speeds) == 3

    def test_map_changes_values(self):
        expr = Aggregate(
            "max", Map("x", Arith("*", Var("x"), Const(10.0)), Var("speeds"))
        )
        assert self.compiler.run(expr, speeds=self.speeds) == pytest.approx(9.0)

    def test_setop_plan(self):
        other = BAT("void", "dbl")
        other.insert_bulk(None, [0.9, 0.9])
        expr = Aggregate(
            "count", SetOp("diff", Var("speeds"), Var("other"))
        )
        assert self.compiler.run(expr, speeds=self.speeds, other=other) == 3

    def test_uncompilable_falls_out(self):
        expr = Nest(Var("speeds"), ("x",), "g")
        with pytest.raises(MoaError):
            self.compiler.compile(expr)

    def test_missing_input(self):
        expr = Aggregate("count", Var("speeds"))
        plan = self.compiler.compile(expr)
        with pytest.raises(MoaError):
            self.compiler.execute(plan)

    def test_compiled_matches_evaluator(self):
        expr = Aggregate(
            "sum", Select("x", Cmp(">=", Var("x"), Const(0.4)), Var("speeds"))
        )
        compiled = self.compiler.run(expr, speeds=self.speeds)
        interpreted = evaluate(expr, {"speeds": self.speeds.tails()})
        assert compiled == pytest.approx(interpreted)
