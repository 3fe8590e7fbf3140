"""The blocked scan kernel against the per-slice loops it replaced.

``_oracle_filter`` / ``_oracle_smooth`` / ``_oracle_forward_backward`` are
the recursions as they stood at commit b9fa93f — one Python iteration per
slice, renormalised every step, one-hot → matmul likelihoods, ``np.tile``d
tables — kept here as the reference. Everything that goes through
``repro.dbn.scan`` must agree with them: beliefs, marginals and transition
statistics to 1e-12, log-likelihood to 1e-9 relative, and a zero-probability
slice must be reported at the same ``t``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbn import scan
from repro.dbn.compiled import CompiledDbn, project_onto_clusters
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.scan import SCAN_BLOCK
from repro.dbn.template import DbnTemplate
from repro.errors import InferenceError
from repro.hmm.algorithms import forward_backward, log_likelihood
from repro.hmm.model import DiscreteHmm

LENGTHS = (1, 2, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 1250)


# ----------------------------------------------------------------------
# the oracle: the loops of commit b9fa93f, verbatim
# ----------------------------------------------------------------------
def _oracle_step_tables(model, evidence, steps):
    if not model.coupling_evidence:
        reps = [steps.shape[0]] + [1] * (model.tables.ndim - 1)
        return np.tile(model.tables[0][None, ...], reps)
    weights = model.config_weights(evidence, steps)
    return np.tensordot(weights, model.tables, axes=(1, 0))


def _oracle_likelihood_matrix(model, evidence, steps):
    out = np.ones((steps.shape[0], model.n_states))
    for name, obs in model.leaf_obs.items():
        lik = evidence.likelihoods(name)[steps]  # (n, card)
        out *= lik @ obs.T
    return out


def _oracle_filter(engine, evidence, clusters=None):
    t_len = len(evidence)
    steps = np.arange(t_len)
    project = clusters is not None and len(list(clusters)) > 1
    priors = _oracle_step_tables(engine._initial, evidence, steps[:1])[0]
    lik0 = _oracle_likelihood_matrix(engine._initial, evidence, steps[:1])[0]
    gamma = np.zeros((t_len, engine.n_states))
    log_likelihood = 0.0

    alpha = priors * lik0
    scale = alpha.sum()
    if scale <= 0:
        raise InferenceError("evidence has zero probability at t=0")
    alpha /= scale
    log_likelihood += np.log(scale)
    if project:
        alpha = project_onto_clusters(alpha, engine.hidden, engine.cards, clusters)
    gamma[0] = alpha

    if t_len > 1:
        rest = steps[1:]
        tables = _oracle_step_tables(engine._transition, evidence, rest)
        liks = _oracle_likelihood_matrix(engine._transition, evidence, rest)
        for i, t in enumerate(rest):
            alpha = (alpha @ tables[i]) * liks[i]
            scale = alpha.sum()
            if scale <= 0:
                raise InferenceError(f"evidence has zero probability at t={t}")
            alpha /= scale
            log_likelihood += np.log(scale)
            if project:
                alpha = project_onto_clusters(
                    alpha, engine.hidden, engine.cards, clusters
                )
            gamma[t] = alpha
    return gamma, float(log_likelihood)


def _oracle_smooth(engine, evidence):
    t_len = len(evidence)
    steps = np.arange(t_len)
    priors = _oracle_step_tables(engine._initial, evidence, steps[:1])[0]
    lik0 = _oracle_likelihood_matrix(engine._initial, evidence, steps[:1])[0]

    alphas = np.zeros((t_len, engine.n_states))
    scales = np.zeros(t_len)
    alpha = priors * lik0
    scales[0] = alpha.sum()
    if scales[0] <= 0:
        raise InferenceError("evidence has zero probability at t=0")
    alphas[0] = alpha / scales[0]

    tables = liks = None
    if t_len > 1:
        rest = steps[1:]
        tables = _oracle_step_tables(engine._transition, evidence, rest)
        liks = _oracle_likelihood_matrix(engine._transition, evidence, rest)
        for i, t in enumerate(rest):
            alpha = (alphas[t - 1] @ tables[i]) * liks[i]
            scales[t] = alpha.sum()
            if scales[t] <= 0:
                raise InferenceError(f"evidence has zero probability at t={t}")
            alphas[t] = alpha / scales[t]

    betas = np.zeros((t_len, engine.n_states))
    betas[-1] = 1.0
    for t in range(t_len - 2, -1, -1):
        weighted = liks[t] * betas[t + 1]  # index t == step t+1 data
        betas[t] = (tables[t] @ weighted) / scales[t + 1]

    gamma = alphas * betas
    gamma /= gamma.sum(axis=1, keepdims=True)

    xi_by_config = {}
    if t_len > 1:
        configs = engine._transition.config_indices(evidence, steps[1:])
        for i, t in enumerate(range(1, t_len)):
            xi = (
                alphas[t - 1][:, None]
                * tables[i]
                * (liks[i] * betas[t])[None, :]
                / scales[t]
            )
            cfg = int(configs[i])
            if cfg not in xi_by_config:
                xi_by_config[cfg] = np.zeros((engine.n_states, engine.n_states))
            xi_by_config[cfg] += xi
    return gamma, float(np.log(scales).sum()), xi_by_config


def _oracle_forward_backward(model, obs):
    obs = np.asarray(obs)
    t_len = obs.shape[0]
    n = model.n_states
    a = model.transition
    b = model.emission

    alphas = np.zeros((t_len, n))
    scales = np.zeros(t_len)

    alpha = model.initial * b[:, obs[0]]
    scales[0] = alpha.sum()
    alphas[0] = alpha / scales[0]
    for t in range(1, t_len):
        alpha = (alphas[t - 1] @ a) * b[:, obs[t]]
        scales[t] = alpha.sum()
        alphas[t] = alpha / scales[t]

    betas = np.zeros((t_len, n))
    betas[-1] = 1.0
    for t in range(t_len - 2, -1, -1):
        betas[t] = (a @ (b[:, obs[t + 1]] * betas[t + 1])) / scales[t + 1]

    gamma = alphas * betas
    gamma /= gamma.sum(axis=1, keepdims=True)

    xi_sum = np.zeros((n, n))
    for t in range(t_len - 1):
        xi_sum += (
            alphas[t][:, None]
            * a
            * (b[:, obs[t + 1]] * betas[t + 1])[None, :]
            / scales[t + 1]
        )
    return alphas, scales, gamma, xi_sum


# ----------------------------------------------------------------------
# seeded random models
# ----------------------------------------------------------------------
def leaf_template(seed: int) -> DbnTemplate:
    """Fig. 7a/7c shape: three hidden nodes, evidence only in the leaves."""
    t = DbnTemplate()
    for name in ("X", "Y", "Z"):
        t.add_node(name, 2)
    t.add_node("F", 2, observed=True)
    t.add_node("G", 3, observed=True)
    t.add_node("H", 4, observed=True)
    t.add_intra_edge("X", "Y")
    t.add_intra_edge("Y", "F")
    t.add_intra_edge("X", "G")
    t.add_intra_edge("Z", "H")
    t.add_inter_edge("X", "X")
    t.add_inter_edge("Y", "Y")
    t.add_inter_edge("Z", "Z")
    t.add_inter_edge("X", "Z")
    t.randomize(np.random.default_rng(seed))
    t.validate()
    return t


def coupled_template(seed: int) -> DbnTemplate:
    """Fig. 7b shape: evidence nodes are parents of the hidden query node,
    so every step selects its transition table; one leaf hangs below."""
    t = DbnTemplate()
    t.add_node("EA", 2)
    t.add_node("K", 3)
    t.add_node("f1", 2, observed=True)
    t.add_node("f2", 3, observed=True)
    t.add_node("f3", 2, observed=True)
    t.add_intra_edge("f1", "EA")
    t.add_intra_edge("f2", "EA")
    t.add_intra_edge("EA", "K")
    t.add_intra_edge("K", "f3")
    t.add_inter_edge("EA", "EA")
    t.add_inter_edge("K", "K")
    t.randomize(np.random.default_rng(seed))
    t.validate()
    return t


TEMPLATES = {"leaf": leaf_template, "coupled": coupled_template}


def random_evidence(template, t_len, rng, soft=(), masked=()):
    """Hard states for every observed node except those named ``soft``
    (random likelihood rows) or ``masked`` (all-ones rows)."""
    hard, soft_rows = {}, {}
    for name in template.observed_nodes():
        card = template.cardinality(name)
        if name in masked:
            soft_rows[name] = np.ones((t_len, card))
        elif name in soft:
            soft_rows[name] = rng.random((t_len, card)) + 0.05
        else:
            hard[name] = rng.integers(0, card, t_len)
    return EvidenceSequence(template, hard=hard, soft=soft_rows, masked=masked)


def assert_filter_matches(engine, evidence, clusters=None):
    want_gamma, want_ll = _oracle_filter(engine, evidence, clusters)
    got = engine.filter(evidence, clusters=clusters)
    np.testing.assert_allclose(got.gamma, want_gamma, rtol=0, atol=1e-12)
    assert got.log_likelihood == pytest.approx(want_ll, rel=1e-9)
    for node in engine.hidden:
        np.testing.assert_allclose(
            engine.marginal(got.gamma, node),
            engine.marginal(want_gamma, node),
            rtol=0,
            atol=1e-12,
        )


def assert_smooth_matches(engine, evidence):
    want_gamma, want_ll, want_xi = _oracle_smooth(engine, evidence)
    got = engine.smooth(evidence)
    np.testing.assert_allclose(got.gamma, want_gamma, rtol=0, atol=1e-12)
    assert got.log_likelihood == pytest.approx(want_ll, rel=1e-9)
    assert sorted(got.xi_by_config) == sorted(want_xi)
    for cfg, xi in want_xi.items():
        np.testing.assert_allclose(got.xi_by_config[cfg], xi, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
class TestAgainstTheLoops:
    @pytest.mark.parametrize("t_len", LENGTHS)
    @pytest.mark.parametrize("shape", sorted(TEMPLATES))
    def test_hard_evidence(self, shape, t_len):
        template = TEMPLATES[shape](seed=t_len)
        engine = CompiledDbn(template)
        evidence = random_evidence(template, t_len, np.random.default_rng(t_len))
        assert_filter_matches(engine, evidence)
        assert_smooth_matches(engine, evidence)

    @pytest.mark.parametrize("t_len", LENGTHS)
    def test_soft_and_masked_leaves(self, t_len):
        template = leaf_template(seed=7)
        engine = CompiledDbn(template)
        evidence = random_evidence(
            template, t_len, np.random.default_rng(t_len), soft=("G",), masked=("H",)
        )
        assert_filter_matches(engine, evidence)
        assert_smooth_matches(engine, evidence)

    @pytest.mark.parametrize("t_len", LENGTHS)
    def test_soft_coupling_evidence_mixes_tables(self, t_len):
        template = coupled_template(seed=11)
        engine = CompiledDbn(template)
        assert engine._transition.n_configs == 6
        evidence = random_evidence(
            template, t_len, np.random.default_rng(t_len), soft=("f2", "f3")
        )
        assert_filter_matches(engine, evidence)
        with pytest.raises(InferenceError, match="must be hard evidence"):
            engine.smooth(evidence)

    @pytest.mark.parametrize("t_len", (1, 2, SCAN_BLOCK + 1, 200))
    @pytest.mark.parametrize(
        "clusters",
        ([["X", "Y", "Z"]], [["X", "Y"], ["Z"]], [["X"], ["Y"], ["Z"]]),
        ids=("one", "two", "three"),
    )
    def test_boyen_koller_clusters(self, clusters, t_len):
        template = leaf_template(seed=5)
        engine = CompiledDbn(template)
        evidence = random_evidence(
            template, t_len, np.random.default_rng(t_len), soft=("F",)
        )
        assert_filter_matches(engine, evidence, clusters)

    @pytest.mark.parametrize("block", (1, 3, 64))
    def test_block_size_does_not_change_the_answer(self, block, monkeypatch):
        template = coupled_template(seed=13)
        engine = CompiledDbn(template)
        evidence = random_evidence(template, 200, np.random.default_rng(13))
        want_filter, want_smooth = engine.filter(evidence), engine.smooth(evidence)
        monkeypatch.setattr(scan, "SCAN_BLOCK", block)
        got_filter, got_smooth = engine.filter(evidence), engine.smooth(evidence)
        np.testing.assert_allclose(got_filter.gamma, want_filter.gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_smooth.gamma, want_smooth.gamma, rtol=0, atol=1e-12)
        assert got_filter.log_likelihood == pytest.approx(
            want_filter.log_likelihood, rel=1e-12
        )

    def test_bad_partition_is_rejected_before_the_pass(self):
        template = leaf_template(seed=5)
        evidence = random_evidence(template, 4, np.random.default_rng(0))
        with pytest.raises(InferenceError, match="not a partition"):
            CompiledDbn(template).filter(evidence, clusters=[["X"], ["Y"]])

    def test_more_leaves_than_an_int64_can_number(self):
        """70 binary leaves: 2**70 value combinations, renumbered on the way."""
        t = DbnTemplate()
        t.add_node("X", 2)
        t.add_inter_edge("X", "X")
        leaves = [f"L{i}" for i in range(70)]
        for leaf in leaves:
            t.add_node(leaf, 2, observed=True)
            t.add_intra_edge("X", leaf)
        t.randomize(np.random.default_rng(70))
        t.validate()
        rng = np.random.default_rng(1)
        # two leaves vary, the rest repeat: few distinct rows, huge codes
        hard = {leaf: np.full(40, i % 2) for i, leaf in enumerate(leaves)}
        hard["L0"] = rng.integers(0, 2, 40)
        hard["L69"] = rng.integers(0, 2, 40)
        assert_filter_matches(CompiledDbn(t), EvidenceSequence(t, hard=hard))

    @pytest.mark.parametrize("bad", (0, 1, SCAN_BLOCK, SCAN_BLOCK + 5, 299))
    @pytest.mark.parametrize("shape", sorted(TEMPLATES))
    def test_zero_probability_names_the_same_step(self, shape, bad):
        template = TEMPLATES[shape](seed=2)
        engine = CompiledDbn(template)
        rng = np.random.default_rng(bad)
        leaf = {"leaf": "G", "coupled": "f3"}[shape]
        card = template.cardinality(leaf)
        rows = np.ones((300, card))
        rows[bad] = 0.0
        rows[-1] = 0.0  # a later impossible step must not be the one reported
        hard = {
            name: rng.integers(0, template.cardinality(name), 300)
            for name in template.observed_nodes()
            if name != leaf
        }
        evidence = EvidenceSequence(template, hard=hard, soft={leaf: rows})
        for run in (_oracle_filter, _oracle_smooth, engine.filter, engine.smooth):
            with pytest.raises(InferenceError, match=rf"zero probability at t={bad}$"):
                run(engine, evidence) if run.__name__.startswith("_") else run(evidence)


class TestUnderflow:
    """Per-step normalisation never underflowed; per-block must not either."""

    def _tiny_evidence(self, template, rng):
        t_len = 300
        rows = (rng.random((t_len, 3)) + 0.5) * 1e-30
        rows[137] *= 1e-200
        hard = {
            "F": rng.integers(0, 2, t_len),
            "H": rng.integers(0, 4, t_len),
        }
        return EvidenceSequence(template, hard=hard, soft={"G": rows})

    def test_tiny_likelihoods_filter_and_smooth(self):
        template = leaf_template(seed=9)
        engine = CompiledDbn(template)
        evidence = self._tiny_evidence(template, np.random.default_rng(9))
        assert_filter_matches(engine, evidence)
        assert_smooth_matches(engine, evidence)
        assert engine.log_likelihood(evidence) < 300 * np.log(1e-30)

    def test_a_block_that_underflows_is_redone_per_step(self):
        """Likelihood rows with a maximum of one can still starve a block: a
        chain that swaps state every step meets the state the row all but
        rules out on every other one."""
        swap = np.array([[1e-12, 1 - 1e-12], [1 - 1e-12, 1e-12]])
        row = np.array([1.0, 1e-30])
        initial = np.array([1.0, 1e-9])
        unnormalised = initial @ np.linalg.matrix_power(swap * row, SCAN_BLOCK)
        assert unnormalised.sum() < 1e-150  # the premise: one block loses it all
        steps = scan.StepMatrices.build(
            swap[None],
            np.zeros(40, dtype=np.int64),
            row[None],
            np.zeros(40, dtype=np.int64),
        )
        beliefs, log_scales = scan.forward(initial, steps, site="test.scan")
        np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # oracle: the same recursion, renormalised every step
        alpha = initial / initial.sum()
        total = np.log(initial.sum())
        for t in range(1, 41):
            alpha = (alpha @ swap) * row
            total += np.log(alpha.sum())
            alpha /= alpha.sum()
            np.testing.assert_allclose(beliefs[t], alpha, rtol=1e-9, atol=1e-300)
        assert log_scales.sum() == pytest.approx(total, rel=1e-9)


class TestHmmOnTheKernel:
    def _model(self, seed, n_states=4, n_symbols=6):
        rng = np.random.default_rng(seed)
        return DiscreteHmm(
            rng.dirichlet(np.ones(n_states)),
            rng.dirichlet(np.ones(n_states), size=n_states),
            rng.dirichlet(np.ones(n_symbols), size=n_states),
        )

    @pytest.mark.parametrize("t_len", LENGTHS)
    def test_forward_backward_matches_the_loop(self, t_len):
        model = self._model(t_len)
        obs = np.random.default_rng(t_len).integers(0, 6, t_len).tolist()
        alphas, scales, gamma, xi_sum = _oracle_forward_backward(model, obs)
        got = forward_backward(model, obs)
        np.testing.assert_allclose(got.alphas, alphas, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.scales, scales, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.gamma, gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.xi_sum, xi_sum, rtol=0, atol=1e-10)
        assert got.log_likelihood == pytest.approx(np.log(scales).sum(), rel=1e-9)
        assert log_likelihood(model, obs) == pytest.approx(
            np.log(scales).sum(), rel=1e-9
        )

    def test_impossible_sequence(self):
        model = DiscreteHmm(
            [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]
        )
        assert log_likelihood(model, [0, 0, 1, 0]) == float("-inf")
        assert log_likelihood(model, [1, 0]) == float("-inf")
        with pytest.raises(InferenceError, match="zero probability at t=2"):
            forward_backward(model, [0, 0, 1, 0])
