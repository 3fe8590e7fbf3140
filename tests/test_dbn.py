"""DBNs: templates, unrolling, compiled inference vs exact VE, BK
clustering, EM learning, sampling."""

import numpy as np
import pytest

from repro.dbn.compiled import CompiledDbn, project_onto_clusters
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.learn import dbn_em
from repro.dbn.template import DbnTemplate, prev
from repro.errors import CpdError, GraphStructureError, InferenceError, LearningError
from tests.reference_bn import (
    VariableElimination,
    at_slice,
    sample_sequence,
    set_tied_cpd,
    unroll,
)


def two_chain(seed: int = 42) -> DbnTemplate:
    """X -> Y (intra), self loops, evidence F <- Y, G <- X."""
    t = DbnTemplate()
    t.add_node("X", 2)
    t.add_node("Y", 2)
    t.add_node("F", 2, observed=True)
    t.add_node("G", 3, observed=True)
    t.add_intra_edge("X", "Y")
    t.add_intra_edge("Y", "F")
    t.add_intra_edge("X", "G")
    t.add_inter_edge("X", "X")
    t.add_inter_edge("Y", "Y")
    t.randomize(np.random.default_rng(seed))
    t.validate()
    return t


def coupled(seed: int = 3) -> DbnTemplate:
    """Fig 7b shape: evidence nodes are parents of the hidden query node."""
    t = DbnTemplate()
    t.add_node("EA", 2)
    t.add_node("f1", 2, observed=True)
    t.add_node("f2", 3, observed=True)
    t.add_intra_edge("f1", "EA")
    t.add_intra_edge("f2", "EA")
    t.add_inter_edge("EA", "EA")
    t.randomize(np.random.default_rng(seed))
    t.validate()
    return t


class TestTemplate:
    def test_parent_order_convention(self):
        t = two_chain()
        assert t.transition_parents("X") == [prev("X")]
        assert t.transition_parents("Y") == ["X", prev("Y")]

    def test_tied_cpd_requires_no_inter_parents(self):
        t = DbnTemplate()
        t.add_node("A", 2)
        t.add_inter_edge("A", "A")
        with pytest.raises(CpdError):
            set_tied_cpd(t, "A", [0.5, 0.5])

    def test_duplicate_node(self):
        t = DbnTemplate()
        t.add_node("A", 2)
        with pytest.raises(GraphStructureError):
            t.add_node("A", 2)

    def test_cardinality_minimum(self):
        t = DbnTemplate()
        with pytest.raises(GraphStructureError):
            t.add_node("A", 1)

    def test_missing_cpd_detected(self):
        t = DbnTemplate()
        t.add_node("A", 2)
        with pytest.raises(CpdError):
            t.validate()

    def test_copy_is_deep(self):
        t = two_chain()
        c = t.copy()
        c.set_initial_cpd("X", [0.9, 0.1])
        assert not np.allclose(
            t.initial_cpd("X").table, c.initial_cpd("X").table
        )

    def test_at_slice_naming(self):
        assert at_slice("EA", 3) == "EA@3"


class TestUnroll:
    def test_unrolled_node_count(self):
        net = unroll(two_chain(), 4)
        assert len(net.nodes()) == 4 * 4

    def test_slice0_uses_initial_cpd(self):
        t = two_chain()
        net = unroll(t, 3)
        assert np.allclose(net.cpd("X@0").table, t.initial_cpd("X").table)
        assert np.allclose(net.cpd("X@2").table, t.transition_cpd("X").table)

    def test_bad_length(self):
        with pytest.raises(GraphStructureError):
            unroll(two_chain(), 0)


class TestEvidence:
    def test_all_observed_required(self):
        t = two_chain()
        with pytest.raises(InferenceError):
            EvidenceSequence(t, hard={"F": [0, 1]})

    def test_length_agreement(self):
        t = two_chain()
        with pytest.raises(InferenceError):
            EvidenceSequence(t, hard={"F": [0, 1], "G": [0]})

    def test_out_of_range_state(self):
        t = two_chain()
        with pytest.raises(InferenceError):
            EvidenceSequence(t, hard={"F": [5], "G": [0]})

    def test_soft_shape_check(self):
        t = two_chain()
        with pytest.raises(InferenceError):
            EvidenceSequence(
                t, hard={"F": [0]}, soft={"G": np.ones((1, 2))}
            )  # G has cardinality 3

    def test_likelihoods_one_hot_for_hard(self):
        t = two_chain()
        ev = EvidenceSequence(t, hard={"F": [1, 0], "G": [2, 0]})
        lik = ev.likelihoods("G")
        assert lik.shape == (2, 3)
        assert lik[0].tolist() == [0, 0, 1]

    def test_segments(self):
        t = two_chain()
        ev = EvidenceSequence(t, hard={"F": [0] * 10, "G": [0] * 10})
        assert len(ev.segments(3)) == 3
        assert all(len(s) == 3 for s in ev.segments(3))


class TestCompiledAgainstExact:
    """The compiled interface engine must equal unrolled VE exactly."""

    @pytest.mark.parametrize("template_factory", [two_chain, coupled])
    def test_filter_equals_ve(self, template_factory, rng):
        t = template_factory()
        _, ev = sample_sequence(t, 6, rng)
        engine = CompiledDbn(t)
        net = unroll(t, 6)
        vee = VariableElimination(net)
        hard = {
            f"{n}@{k}": int(ev.hard_values(n)[k])
            for n in t.observed_nodes()
            for k in range(6)
        }
        node = t.hidden_nodes()[0]
        ours = engine.posterior_series(ev, node)[5]
        exact = vee.query(f"{node}@5", hard).values
        assert np.allclose(ours, exact, atol=1e-9)

    @pytest.mark.parametrize("template_factory", [two_chain, coupled])
    def test_smooth_equals_ve(self, template_factory, rng):
        t = template_factory()
        _, ev = sample_sequence(t, 5, rng)
        engine = CompiledDbn(t)
        vee = VariableElimination(unroll(t, 5))
        hard = {
            f"{n}@{k}": int(ev.hard_values(n)[k])
            for n in t.observed_nodes()
            for k in range(5)
        }
        node = t.hidden_nodes()[0]
        sm = engine.smooth(ev)
        ours = engine.marginal(sm.gamma, node)[2]
        exact = vee.query(f"{node}@2", hard).values
        assert np.allclose(ours, exact, atol=1e-9)

    def test_log_likelihood_equals_ve(self, rng):
        t = two_chain()
        _, ev = sample_sequence(t, 5, rng)
        engine = CompiledDbn(t)
        vee = VariableElimination(unroll(t, 5))
        hard = {
            f"{n}@{k}": int(ev.hard_values(n)[k])
            for n in t.observed_nodes()
            for k in range(5)
        }
        assert engine.log_likelihood(ev) == pytest.approx(
            vee.log_evidence(hard), abs=1e-9
        )

    def test_soft_one_hot_equals_hard(self, rng):
        t = coupled()
        _, ev = sample_sequence(t, 8, rng)
        soft = {
            n: np.eye(t.cardinality(n))[ev.hard_values(n)]
            for n in t.observed_nodes()
        }
        ev_soft = EvidenceSequence(t, soft=soft)
        engine = CompiledDbn(t)
        assert np.allclose(
            engine.posterior_series(ev, "EA"),
            engine.posterior_series(ev_soft, "EA"),
            atol=1e-12,
        )

    def test_static_posterior_ignores_time(self, rng):
        t = two_chain()
        _, ev = sample_sequence(t, 6, rng)
        engine = CompiledDbn(t)
        series = engine.static_posterior_series(ev, "X")
        # repeat one evidence step: identical static posterior
        f = ev.hard_values("F")
        g = ev.hard_values("G")
        ev2 = EvidenceSequence(t, hard={"F": [f[0], f[0]], "G": [g[0], g[0]]})
        series2 = engine.static_posterior_series(ev2, "X")
        assert np.allclose(series2[0], series2[1])
        assert np.allclose(series[0], series2[0])


class TestBoyenKoller:
    def test_single_cluster_is_exact(self, rng):
        t = two_chain()
        _, ev = sample_sequence(t, 10, rng)
        engine = CompiledDbn(t)
        exact = engine.filter(ev).gamma
        one = engine.filter(ev, clusters=[["X", "Y"]]).gamma
        assert np.allclose(exact, one, atol=1e-12)

    def test_projection_normalizes(self):
        belief = np.array([0.1, 0.2, 0.3, 0.4])
        projected = project_onto_clusters(belief, ["A", "B"], [2, 2], [["A"], ["B"]])
        assert projected.sum() == pytest.approx(1.0)

    def test_projection_preserves_marginals(self):
        belief = np.array([0.1, 0.2, 0.3, 0.4])
        projected = project_onto_clusters(belief, ["A", "B"], [2, 2], [["A"], ["B"]])
        original = belief.reshape(2, 2)
        new = projected.reshape(2, 2)
        assert np.allclose(original.sum(axis=1), new.sum(axis=1))
        assert np.allclose(original.sum(axis=0), new.sum(axis=0))

    def test_projection_requires_partition(self):
        with pytest.raises(InferenceError):
            project_onto_clusters(np.ones(4), ["A", "B"], [2, 2], [["A"]])

    def test_clustered_filtering_close_but_not_exact(self, rng):
        t = two_chain(seed=1)
        _, ev = sample_sequence(t, 30, rng)
        engine = CompiledDbn(t)
        exact = engine.marginal(engine.filter(ev).gamma, "X")
        approx = engine.marginal(
            engine.filter(ev, clusters=[["X"], ["Y"]]).gamma, "X"
        )
        error = np.abs(exact - approx).max()
        assert error < 0.35  # bounded approximation error
        assert np.allclose(
            engine.filter(ev, clusters=[["X"], ["Y"]]).gamma.sum(axis=1), 1.0
        )


class TestDbnEm:
    def test_loglik_monotone(self, rng):
        t = two_chain()
        segments = [sample_sequence(t, 20, rng)[1] for _ in range(5)]
        start = two_chain(seed=999)
        result = dbn_em(start, segments, max_iterations=8)
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-7)

    def test_improves_over_random_start(self, rng):
        t = two_chain()
        segments = [sample_sequence(t, 25, rng)[1] for _ in range(6)]
        start = two_chain(seed=1234)
        result = dbn_em(start, segments, max_iterations=10)
        assert result.log_likelihoods[-1] > result.log_likelihoods[0]

    def test_requires_hard_evidence(self, rng):
        t = two_chain()
        _, ev = sample_sequence(t, 5, rng)
        soft = {
            n: np.eye(t.cardinality(n))[ev.hard_values(n)]
            for n in t.observed_nodes()
        }
        with pytest.raises(LearningError):
            dbn_em(t, [EvidenceSequence(t, soft=soft)])

    def test_empty_sequences_rejected(self):
        with pytest.raises(LearningError):
            dbn_em(two_chain(), [])

    def test_fully_observed_counting_path(self, rng):
        """With no hidden nodes EM is exact counting."""
        t = DbnTemplate()
        t.add_node("A", 2, observed=True)
        t.add_node("B", 2, observed=True)
        t.add_intra_edge("A", "B")
        t.add_inter_edge("A", "A")
        t.randomize(np.random.default_rng(5))
        states, ev = sample_sequence(t, 400, rng)
        result = dbn_em(t.copy(), [ev], max_iterations=5, pseudo_count=0.0)
        # check the A self-transition against empirical frequencies
        a = states["A"]
        emp = np.mean(a[1:][a[:-1] == 1])
        learned = result.template.transition_cpd("A").table[1, 1]
        assert learned == pytest.approx(emp, abs=0.02)
        assert result.converged

    def test_em_with_coupling_evidence(self, rng):
        t = coupled()
        segments = [sample_sequence(t, 15, rng)[1] for _ in range(4)]
        start = coupled(seed=77)
        result = dbn_em(start, segments, max_iterations=6)
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-7)


class TestSampling:
    def test_shapes_and_kinds(self, rng):
        t = two_chain()
        states, ev = sample_sequence(t, 12, rng)
        assert set(states) == {"X", "Y", "F", "G"}
        assert all(v.shape == (12,) for v in states.values())
        assert len(ev) == 12

    def test_deterministic_given_seed(self):
        t = two_chain()
        s1, _ = sample_sequence(t, 10, np.random.default_rng(9))
        s2, _ = sample_sequence(t, 10, np.random.default_rng(9))
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)

    def test_sample_statistics_match_model(self):
        """Long-run frequency of a root node's self-transition."""
        t = DbnTemplate()
        t.add_node("X", 2)
        t.add_node("F", 2, observed=True)
        t.add_intra_edge("X", "F")
        t.add_inter_edge("X", "X")
        t.set_initial_cpd("X", [0.5, 0.5])
        t.set_transition_cpd("X", [[0.9, 0.3], [0.1, 0.7]])
        set_tied_cpd(t, "F", [[0.8, 0.1], [0.2, 0.9]])
        states, _ = sample_sequence(t, 5000, np.random.default_rng(0))
        x = states["X"]
        stay = np.mean(x[1:][x[:-1] == 1] == 1)
        assert stay == pytest.approx(0.7, abs=0.05)
