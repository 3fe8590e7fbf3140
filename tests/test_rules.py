"""Rule engine + Allen interval algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import RuleError
from repro.rules.engine import Fact, Pattern, Rule, RuleEngine, Var
from repro.rules.temporal import (
    ALLEN_RELATIONS,
    INVERSES,
    allen_relation,
    holds,
    partner_bounds,
    partner_bounds_array,
)
from repro.synth.annotations import Interval


class TestAllen:
    CASES = [
        (Interval(0, 1), Interval(2, 3), "before"),
        (Interval(2, 3), Interval(0, 1), "after"),
        (Interval(0, 2), Interval(2, 3), "meets"),
        (Interval(2, 3), Interval(0, 2), "met_by"),
        (Interval(0, 3), Interval(2, 5), "overlaps"),
        (Interval(2, 5), Interval(0, 3), "overlapped_by"),
        (Interval(0, 2), Interval(0, 5), "starts"),
        (Interval(0, 5), Interval(0, 2), "started_by"),
        (Interval(1, 3), Interval(0, 5), "during"),
        (Interval(0, 5), Interval(1, 3), "contains"),
        (Interval(3, 5), Interval(0, 5), "finishes"),
        (Interval(0, 5), Interval(3, 5), "finished_by"),
        (Interval(1, 4), Interval(1, 4), "equals"),
    ]

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_all_thirteen_relations(self, a, b, expected):
        assert allen_relation(a, b) == expected

    def test_inverse_table_consistent(self):
        for a, b, expected in self.CASES:
            assert allen_relation(b, a) == INVERSES[expected]

    def test_tolerance(self):
        a = Interval(0, 2.0)
        b = Interval(2.05, 4.0)
        assert allen_relation(a, b, tolerance=0.1) == "meets"
        assert allen_relation(a, b, tolerance=0.0) == "before"

    def test_holds_disjunctions(self):
        a, b = Interval(1, 3), Interval(2, 6)
        assert holds("intersects", a, b)
        assert holds("within", Interval(3, 4), b)
        assert not holds("within", Interval(1, 7), b)

    def test_holds_unknown_relation(self):
        with pytest.raises(RuleError):
            holds("near", Interval(0, 1), Interval(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.floats(0, 100), st.floats(0.1, 10)),
    st.tuples(st.floats(0, 100), st.floats(0.1, 10)),
)
def test_property_exactly_one_allen_relation(a_spec, b_spec):
    a = Interval(a_spec[0], a_spec[0] + a_spec[1])
    b = Interval(b_spec[0], b_spec[0] + b_spec[1])
    relation = allen_relation(a, b)
    assert relation in ALLEN_RELATIONS
    # the inverse relation must hold in the other direction
    assert allen_relation(b, a) == INVERSES[relation]


# endpoints on a grid finer than the tolerance (ties and exact-tolerance
# gaps are the risky cases) mixed with arbitrary floats
_endpoint = st.one_of(st.integers(0, 80).map(lambda k: k * 0.125), st.floats(0, 10))
_duration = st.one_of(st.integers(1, 40).map(lambda k: k * 0.125), st.floats(0.01, 5))


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(_endpoint, _duration),
    st.tuples(_endpoint, _duration),
    st.sampled_from((0.0, 0.125, 0.3, 0.5)),
    st.booleans(),
)
def test_property_partner_bounds_never_exclude_a_true_partner(
    a_spec, b_spec, tolerance, know_longest
):
    """``partner_bounds`` is the pruning rule of the COQL interval join:
    whenever ``holds(relation, a, b)`` is true, b's endpoints must lie in
    the closed ranges it returns (necessity; ``holds`` decides the rest)."""
    a = Interval(a_spec[0], a_spec[0] + a_spec[1])
    b = Interval(b_spec[0], b_spec[0] + b_spec[1])
    longest = b.end - b.start if know_longest else float("inf")
    for relation in ALLEN_RELATIONS + ("intersects", "within"):
        if not holds(relation, a, b, tolerance):
            continue
        start_lo, start_hi, end_lo, end_hi = partner_bounds(
            relation, a, tolerance, longest=longest
        )
        assert start_lo <= b.start <= start_hi, (relation, a, b)
        assert end_lo <= b.end <= end_hi, (relation, a, b)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_endpoint, _duration), min_size=1, max_size=8),
    st.sampled_from((0.0, 0.125, 0.3, 0.5)),
    st.sampled_from((float("inf"), 0.25, 7.0)),
)
def test_property_partner_bounds_array_is_the_scalar_rule_elementwise(
    specs, tolerance, longest
):
    """The interval join computes a video's candidates' ranges at once with
    ``partner_bounds_array``; each row must be exactly what
    ``partner_bounds`` gives that interval (an open-ended one included)."""
    starts = np.array([start for start, _ in specs] + [1.0])
    ends = np.array([start + duration for start, duration in specs] + [float("inf")])
    for relation in ALLEN_RELATIONS + ("intersects", "within"):
        rows = zip(*partner_bounds_array(relation, starts, ends, tolerance, longest))
        for (start, end), row in zip(zip(starts.tolist(), ends.tolist()), rows):
            want = partner_bounds(relation, Interval(start, end), tolerance, longest)
            assert np.array_equal(row, want, equal_nan=True), (relation, start, end)


def test_partner_bounds_unknown_relation():
    with pytest.raises(RuleError):
        partner_bounds("near", Interval(0, 1))


class TestEngine:
    def test_fact_identity(self):
        assert Fact.of("e", a=1) == Fact.of("e", a=1)
        assert Fact.of("e", a=1) != Fact.of("e", a=2)

    def test_pattern_binding_and_unification(self):
        p1 = Pattern.of("pair", left=Var("x"))
        p2 = Pattern.of("pair", right=Var("x"))
        bindings = p1.match(Fact.of("pair", left=1, right=2), {})
        assert bindings == {"x": 1}
        assert p2.match(Fact.of("pair", left=0, right=1), bindings) == {"x": 1}
        assert p2.match(Fact.of("pair", left=0, right=9), bindings) is None

    def test_predicate_constraint(self):
        p = Pattern.of("n", value=lambda v: v > 3)
        assert p.match(Fact.of("n", value=5), {}) is not None
        assert p.match(Fact.of("n", value=1), {}) is None

    def test_forward_chaining_derives(self):
        engine = RuleEngine()
        engine.add_fact(Fact.of("event", kind="fly_out", start=10.0, end=16.0))
        engine.add_fact(Fact.of("event", kind="excited", start=11.0, end=14.0))
        engine.add_rule(
            Rule(
                name="announced_flyout",
                patterns=[
                    Pattern.of("event", kind="fly_out", start=Var("s1"), end=Var("e1")),
                    Pattern.of("event", kind="excited", start=Var("s2"), end=Var("e2")),
                ],
                guard=lambda b: holds(
                    "intersects",
                    Interval(b["s1"], b["e1"]),
                    Interval(b["s2"], b["e2"]),
                ),
                action=lambda b: [
                    Fact.of("event", kind="announced_flyout", start=b["s1"], end=b["e1"])
                ],
            )
        )
        derived = engine.run()
        assert derived == 1
        assert engine.facts("event")[-1].get("kind") == "announced_flyout"

    def test_fixpoint_terminates_on_duplicates(self):
        engine = RuleEngine()
        engine.add_fact(Fact.of("seed", v=1))
        engine.add_rule(
            Rule(
                "idempotent",
                [Pattern.of("seed", v=Var("v"))],
                action=lambda b: [Fact.of("derived", v=b["v"])],
            )
        )
        assert engine.run() == 1
        assert engine.run() == 0  # nothing new on the second run

    def test_transitive_closure(self):
        engine = RuleEngine()
        for a, b in (("a", "b"), ("b", "c"), ("c", "d")):
            engine.add_fact(Fact.of("edge", src=a, dst=b))
        engine.add_rule(
            Rule(
                "transitivity",
                [
                    Pattern.of("edge", src=Var("x"), dst=Var("y")),
                    Pattern.of("edge", src=Var("y"), dst=Var("z")),
                ],
                action=lambda b: [Fact.of("edge", src=b["x"], dst=b["z"])],
            )
        )
        engine.run()
        pairs = {(f.get("src"), f.get("dst")) for f in engine.facts("edge")}
        assert ("a", "d") in pairs

    def test_runaway_rule_detected(self):
        engine = RuleEngine(max_iterations=5)
        engine.add_fact(Fact.of("n", v=0))
        engine.add_rule(
            Rule(
                "grow",
                [Pattern.of("n", v=Var("v"))],
                action=lambda b: [Fact.of("n", v=b["v"] + 1)],
            )
        )
        with pytest.raises(RuleError):
            engine.run()

    def test_rule_without_patterns_rejected(self):
        with pytest.raises(RuleError):
            RuleEngine().add_rule(Rule("bad", [], action=lambda b: []))

    def test_distinct_facts_per_pattern(self):
        """A two-pattern rule must not match the same fact twice."""
        engine = RuleEngine()
        engine.add_fact(Fact.of("x", v=1))
        hits = []
        engine.add_rule(
            Rule(
                "pairs",
                [Pattern.of("x", v=Var("a")), Pattern.of("x", v=Var("b"))],
                action=lambda b: hits.append(b) or [],
            )
        )
        engine.run()
        assert hits == []
