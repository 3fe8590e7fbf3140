"""Bayesian networks: factors, DAG, CPDs, and the reference oracle's VE
inference, MLE and EM learning (``tests/reference_bn.py``)."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.bayes.cpd import TabularCpd
from repro.bayes.factor import Factor
from repro.bayes.graph import Dag
from repro.errors import (
    CpdError,
    GraphStructureError,
    InferenceError,
    LearningError,
)
from tests.reference_bn import (
    BayesianNetwork,
    ExpectationMaximization,
    Graph,
    VariableElimination,
    almost_equal,
    keep,
    marginalize,
    min_fill_order,
    mle,
    normalize,
    probability,
    weight,
)


def sprinkler() -> BayesianNetwork:
    net = BayesianNetwork()
    net.add_cpd(TabularCpd("Rain", 2, [0.8, 0.2]))
    net.add_cpd(
        TabularCpd(
            "Sprinkler", 2, [[0.6, 0.99], [0.4, 0.01]], ["Rain"], [2]
        )
    )
    net.add_cpd(
        TabularCpd(
            "Wet",
            2,
            np.array([[[1.0, 0.2], [0.1, 0.01]], [[0.0, 0.8], [0.9, 0.99]]]),
            ["Sprinkler", "Rain"],
            [2, 2],
        )
    )
    net.validate()
    return net


class TestFactor:
    def test_multiply_union_scope(self):
        a = Factor(["X"], [2], [0.4, 0.6])
        b = Factor(["X", "Y"], [2, 2], [[0.1, 0.9], [0.5, 0.5]])
        p = a * b
        assert sorted(p.variables) == ["X", "Y"]
        assert p.values[1, 0] == pytest.approx(0.6 * 0.5)

    def test_multiply_disjoint(self):
        a = Factor(["X"], [2], [0.5, 0.5])
        b = Factor(["Y"], [3], [0.2, 0.3, 0.5])
        assert (a * b).values.shape == (2, 3)

    def test_cardinality_mismatch(self):
        a = Factor(["X"], [2], [1, 1])
        b = Factor(["X"], [3], [1, 1, 1])
        with pytest.raises(InferenceError):
            a * b

    def test_marginalize(self):
        f = Factor(["X", "Y"], [2, 2], [[1, 2], [3, 4]])
        m = marginalize(f, ["Y"])
        assert m.values.tolist() == [3, 7]

    def test_marginalize_all_gives_scalar(self):
        f = Factor(["X"], [2], [1, 3])
        s = marginalize(f, ["X"])
        assert s.variables == [] and s.values.sum() == 4

    def test_reduce(self):
        f = Factor(["X", "Y"], [2, 2], [[1, 2], [3, 4]])
        r = f.reduce({"Y": 1})
        assert r.variables == ["X"]
        assert r.values.tolist() == [2, 4]

    def test_reduce_out_of_range(self):
        f = Factor(["X"], [2], [1, 1])
        with pytest.raises(InferenceError):
            f.reduce({"X": 5})

    def test_weight_virtual_evidence(self):
        f = Factor(["X"], [2], [0.5, 0.5])
        w = normalize(weight(f, "X", [1.0, 3.0]))
        assert w.values.tolist() == [0.25, 0.75]

    def test_normalize_zero_raises(self):
        with pytest.raises(InferenceError):
            normalize(Factor(["X"], [2], [0, 0]))

    def test_negative_rejected(self):
        with pytest.raises(InferenceError):
            Factor(["X"], [2], [-1, 2])

    def test_transpose(self):
        f = Factor(["A", "B"], [2, 3], np.arange(6).reshape(2, 3))
        t = f.transpose(["B", "A"])
        assert t.values.shape == (3, 2)
        assert t.values[2, 1] == f.values[1, 2]

    def test_duplicate_variables_rejected(self):
        with pytest.raises(InferenceError):
            Factor(["X", "X"], [2, 2], np.ones((2, 2)))

    def test_unit_is_identity(self):
        f = Factor(["X"], [2], [0.3, 0.7])
        assert almost_equal(Factor.unit() * f, f)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4),
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=2),
)
def test_property_multiply_then_marginalize_commutes(xy_values, y_values):
    """sum_Y (f(X,Y) * g(Y)) == matrix product — distributivity."""
    f = Factor(["X", "Y"], [2, 2], np.array(xy_values).reshape(2, 2))
    g = Factor(["Y"], [2], y_values)
    left = marginalize(f * g, ["Y"])
    expected = f.values @ np.array(y_values)
    assert np.allclose(left.transpose(["X"]).values, expected)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 5.0), min_size=8, max_size=8))
def test_property_reduce_commutes_with_marginalize_other_axis(values):
    f = Factor(["A", "B", "C"], [2, 2, 2], np.array(values).reshape(2, 2, 2))
    one = marginalize(f.reduce({"A": 1}), ["B"])
    other = marginalize(f, ["B"]).reduce({"A": 1})
    assert almost_equal(one, other)


class TestDag:
    def test_cycle_rejected(self):
        d = Dag()
        d.add_edge("a", "b")
        d.add_edge("b", "c")
        with pytest.raises(GraphStructureError):
            d.add_edge("c", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError):
            Dag().add_edge("a", "a")

    def test_topological_order(self):
        d = Dag()
        d.add_edge("a", "b")
        d.add_edge("b", "c")
        d.add_edge("a", "c")
        order = d.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_ancestors_descendants(self):
        d = Graph()
        d.add_edge("a", "b")
        d.add_edge("b", "c")
        assert d.ancestors("c") == {"a", "b"}
        assert d.descendants("a") == {"b", "c"}

    def test_roots_leaves(self):
        d = Graph()
        d.add_edge("a", "b")
        assert d.roots() == ["a"]
        assert d.leaves() == ["b"]

    def test_subgraph(self):
        d = Graph()
        d.add_edge("a", "b")
        d.add_edge("b", "c")
        s = d.subgraph(["a", "b"])
        assert s.edges() == [("a", "b")]

    def test_idempotent_edges(self):
        d = Dag()
        d.add_edge("a", "b")
        d.add_edge("a", "b")
        assert d.edges() == [("a", "b")]


class TestCpd:
    def test_columns_must_normalize(self):
        with pytest.raises(CpdError):
            TabularCpd("X", 2, [[0.5, 0.5], [0.6, 0.5]], ["P"], [2])

    def test_probability_lookup(self):
        cpd = TabularCpd("X", 2, [[0.9, 0.2], [0.1, 0.8]], ["P"], [2])
        assert probability(cpd, 1, {"P": 1}) == pytest.approx(0.8)

    def test_probability_missing_parent(self):
        cpd = TabularCpd("X", 2, [[0.9, 0.2], [0.1, 0.8]], ["P"], [2])
        with pytest.raises(CpdError):
            probability(cpd, 0, {})

    def test_random_is_normalized(self):
        cpd = TabularCpd.random("X", 3, ["P"], [4], rng=np.random.default_rng(0))
        assert np.allclose(cpd.table.sum(axis=0), 1.0)

    def test_to_factor_rename(self):
        cpd = TabularCpd("X", 2, [[0.9, 0.2], [0.1, 0.8]], ["P"], [2])
        f = cpd.to_factor({"X": "X@1", "P": "P@0"})
        assert f.variables == ["X@1", "P@0"]


class TestInference:
    def test_known_posterior(self):
        ve = VariableElimination(sprinkler())
        post = ve.query("Rain", {"Wet": 1})
        assert post.values[0] == pytest.approx(0.6423, abs=1e-3)

    def test_joint_query(self):
        ve = VariableElimination(sprinkler())
        joint = ve.query(["Rain", "Sprinkler"], {"Wet": 1})
        assert joint.values.shape == (2, 2)
        assert joint.values.sum() == pytest.approx(1.0)

    def test_no_evidence_matches_prior(self):
        ve = VariableElimination(sprinkler())
        assert ve.query("Rain").values[1] == pytest.approx(0.2)

    def test_evidence_probability(self):
        ve = VariableElimination(sprinkler())
        assert ve.evidence_probability({"Wet": 1}) == pytest.approx(0.44838)

    def test_virtual_evidence_one_hot_equals_hard(self):
        ve = VariableElimination(sprinkler())
        hard = ve.query("Rain", {"Wet": 1})
        soft = ve.query("Rain", virtual_evidence={"Wet": [0.0, 1.0]})
        assert almost_equal(soft, hard, atol=1e-9)

    def test_query_var_in_evidence_rejected(self):
        ve = VariableElimination(sprinkler())
        with pytest.raises(InferenceError):
            ve.query("Wet", {"Wet": 1})

    def test_evidence_on_unknown_node(self):
        ve = VariableElimination(sprinkler())
        with pytest.raises(InferenceError):
            ve.query("Rain", {"Ghost": 0})

    def test_map_state(self):
        ve = VariableElimination(sprinkler())
        assert ve.map_state("Rain", {"Wet": 1}) == 0

    def test_min_fill_covers_all(self):
        order = min_fill_order([["a", "b"], ["b", "c"]], ["a", "b", "c"])
        assert sorted(order) == ["a", "b", "c"]

    def test_ve_matches_brute_force_joint(self):
        net = sprinkler()
        ve = VariableElimination(net)
        joint = net.joint()
        brute = normalize(keep(joint.reduce({"Wet": 1}), ["Sprinkler"]))
        fast = ve.query("Sprinkler", {"Wet": 1})
        assert almost_equal(fast, brute, atol=1e-12)


class TestLearning:
    def test_mle_recovers_parameters(self, rng):
        net = sprinkler()
        data = net.sample(4000, rng)
        fit = mle(net, data)
        assert fit.cpd("Rain").table[1] == pytest.approx(0.2, abs=0.03)

    def test_mle_empty_rejected(self):
        with pytest.raises(LearningError):
            mle(sprinkler(), [])

    def test_mle_incomplete_rejected(self):
        with pytest.raises(LearningError):
            mle(sprinkler(), [{"Rain": 0}])

    def test_mle_pseudocount_smooths(self):
        net = sprinkler()
        data = [{"Rain": 0, "Sprinkler": 0, "Wet": 0}] * 3
        fit = mle(net, data, pseudo_count=1.0)
        assert fit.cpd("Rain").table[1] > 0

    def test_em_loglik_monotone(self, rng):
        net = sprinkler()
        data = net.sample(250, rng)
        hidden = [{k: v for k, v in r.items() if k != "Sprinkler"} for r in data]
        start = net.copy()
        start.replace_cpd(
            TabularCpd.random("Sprinkler", 2, ["Rain"], [2], rng=rng)
        )
        # pure ML EM (no Dirichlet smoothing) is provably monotone in the
        # data log-likelihood; the smoothed variant is monotone only in the
        # MAP objective.
        result = ExpectationMaximization(
            start, max_iterations=15, pseudo_count=0.0
        ).fit(hidden)
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-8)

    def test_em_fully_observed_agrees_with_mle(self, rng):
        net = sprinkler()
        data = net.sample(400, rng)
        em = ExpectationMaximization(net.copy(), max_iterations=3, pseudo_count=0.0)
        em_fit = em.fit(data).network
        mle_fit = mle(net, data)
        assert np.allclose(
            em_fit.cpd("Wet").table, mle_fit.cpd("Wet").table, atol=1e-9
        )

    def test_em_empty_rejected(self):
        with pytest.raises(LearningError):
            ExpectationMaximization(sprinkler()).fit([])


class TestNetworkStructure:
    def test_duplicate_cpd_rejected(self):
        net = BayesianNetwork()
        net.add_cpd(TabularCpd("X", 2, [0.5, 0.5]))
        with pytest.raises(GraphStructureError):
            net.add_cpd(TabularCpd("X", 2, [0.5, 0.5]))

    def test_validate_missing_cpd(self):
        net = BayesianNetwork()
        net.add_cpd(TabularCpd("X", 2, [[0.5, 0.5], [0.5, 0.5]], ["P"], [2]))
        with pytest.raises(GraphStructureError):
            net.validate()

    def test_replace_cpd_structure_locked(self):
        net = sprinkler()
        with pytest.raises(GraphStructureError):
            net.replace_cpd(TabularCpd("Wet", 2, [0.5, 0.5]))

    def test_log_likelihood_complete(self):
        net = sprinkler()
        ll = net.log_likelihood([{"Rain": 0, "Sprinkler": 0, "Wet": 0}])
        assert ll == pytest.approx(np.log(0.8 * 0.6 * 1.0))

    def test_sample_respects_evidence_clamp(self, rng):
        net = sprinkler()
        samples = net.sample(50, rng, evidence={"Rain": 1})
        assert all(s["Rain"] == 1 for s in samples)
