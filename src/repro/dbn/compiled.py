"""Compiled DBN inference: fast filtering and smoothing over the interface.

The paper performs DBN inference with "the modified Boyen-Koller algorithm
for approximate inference" (§4), treating "all nodes from one time slice as
belonging to the same cluster" by default — which makes the belief state the
exact joint over the per-slice hidden nodes (the *interface*). This module
compiles a :class:`~repro.dbn.template.DbnTemplate` into that form:

* the hidden interface is flattened into a single super-state of size S,
* per-step dynamics become an (S, S) matrix — one per configuration of the
  evidence variables that participate as parents of hidden nodes (empty for
  the paper's Fig. 7a/7c; the Fig. 7b structure routes evidence straight
  into the query node and so selects a matrix per step),
* leaf evidence CPDs become (S, card) observation matrices combined into a
  per-step likelihood vector.

Filtering then runs like an HMM over S states — on the blocked scan kernel
of :mod:`repro.dbn.scan`, which the HMMs share — and the Boyen-Koller
approximation is a per-step projection of the belief onto a product of
cluster marginals (:func:`project_onto_clusters`) — with one cluster the
recursion is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Sequence

import numpy as np

from repro.bayes.factor import Factor
from repro.dbn import scan
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.template import DbnTemplate
from repro.errors import InferenceError

__all__ = ["CompiledDbn", "FilterResult", "SmoothResult", "project_onto_clusters"]

#: Hard cap on (configurations x S x S) table entries per slice model.
_MAX_TABLE_ENTRIES = 32_000_000

_CUR = "cur"
_PREV = "prev"


def _cur(name: str) -> tuple[str, str]:
    return (_CUR, name)


def _prev(name: str) -> tuple[str, str]:
    return (_PREV, name)


@dataclass
class FilterResult:
    """Filtered (forward) beliefs.

    Attributes:
        gamma: filtered posteriors over the interface, shape (T, S).
        log_likelihood: log P(e_{1:T}) under the (possibly projected) model.
    """

    gamma: np.ndarray
    log_likelihood: float


@dataclass
class SmoothResult:
    """Smoothed beliefs plus the sufficient statistics EM needs.

    Attributes:
        gamma: smoothed posteriors over the interface, shape (T, S).
        log_likelihood: log P(e_{1:T}).
        xi_by_config: expected transition counts P(I_{t-1}, I_t | e) summed
            over the steps whose coupling-evidence configuration index was
            ``cfg`` — keyed by cfg (always {0: total} when the model has no
            coupling evidence).
        initial_config: configuration index of the initial slice.
    """

    gamma: np.ndarray
    log_likelihood: float
    xi_by_config: dict[int, np.ndarray]
    initial_config: int


class _ClusterProjection:
    """Boyen-Koller projection onto a fixed partition of the interface.

    The partition is validated and its axes resolved here, once; calling
    the object projects one belief.
    """

    def __init__(
        self,
        hidden: Sequence[str],
        cards: Sequence[int],
        clusters: Sequence[Sequence[str]],
    ):
        names = list(hidden)
        assigned = [h for cluster in clusters for h in cluster]
        if sorted(assigned) != sorted(names):
            raise InferenceError(
                f"clusters {clusters} are not a partition of the interface {names}"
            )
        self._cards = list(cards)
        #: per cluster: the axes summed away and the broadcast shape of what is left
        self._marginals: list[tuple[tuple[int, ...], list[int]]] = []
        for cluster in clusters:
            positions = [names.index(h) for h in cluster]
            other_axes = tuple(i for i in range(len(names)) if i not in positions)
            # marginal axes are ordered by ascending original position
            shape = [c if i in positions else 1 for i, c in enumerate(self._cards)]
            self._marginals.append((other_axes, shape))

    def __call__(self, belief: np.ndarray) -> np.ndarray:
        shaped = belief.reshape(self._cards)
        total = shaped.sum()
        if total <= 0:
            raise InferenceError("cannot project a zero belief")
        result = np.ones_like(shaped)
        for other_axes, shape in self._marginals:
            result = result * (shaped.sum(axis=other_axes) / total).reshape(shape)
        flat = result.reshape(-1)
        return flat / flat.sum()


def project_onto_clusters(
    belief: np.ndarray,
    hidden: Sequence[str],
    cards: Sequence[int],
    clusters: Sequence[Sequence[str]],
) -> np.ndarray:
    """Boyen-Koller projection: replace a joint belief by the product of its
    cluster marginals.

    Args:
        belief: flat joint over the interface, shape (S,), need not be
            normalized.
        hidden: interface variable names (axis order of the flattening).
        cards: cardinalities aligned with ``hidden``.
        clusters: a partition of ``hidden``.

    Returns:
        The projected belief, normalized, shape (S,).
    """
    return _ClusterProjection(hidden, cards, clusters)(belief)


class _SliceModel:
    """Compiled factors of one step (the initial slice or a transition)."""

    def __init__(self, template: DbnTemplate, transition: bool):
        self.hidden = template.hidden_nodes()
        self.cards = [template.cardinality(h) for h in self.hidden]
        self.n_states = int(np.prod(self.cards))
        self.transition = transition
        observed = set(template.observed_nodes())

        coupling: list[Factor] = []
        leaves: dict[str, Factor] = {}
        for name in template.nodes():
            cpd = template.transition_cpd(name) if transition else template.initial_cpd(name)
            rename: dict = {cpd.variable: _cur(name)}
            for parent in cpd.parents:
                if parent.endswith("[t-1]"):
                    rename[parent] = _prev(parent.removesuffix("[t-1]"))
                else:
                    rename[parent] = _cur(parent)
            factor = cpd.to_factor(rename)
            scope = factor.variables
            has_prev = any(tag == _PREV for tag, _ in scope)
            observed_vars = [v for v in scope if v[1] in observed]
            if name in observed and not has_prev and len(observed_vars) == 1:
                leaves[name] = factor
            else:
                coupling.append(factor)

        # Coupling-evidence variables, in a fixed (sorted) order.
        coupling_evidence: list[tuple[str, str]] = []
        for factor in coupling:
            for var in factor.variables:
                if var[1] in observed and var not in coupling_evidence:
                    coupling_evidence.append(var)
        coupling_evidence.sort()
        self.coupling_evidence = coupling_evidence
        self.coupling_cards = [
            template.cardinality(name) for _, name in coupling_evidence
        ]
        self.n_configs = int(np.prod(self.coupling_cards)) if coupling_evidence else 1

        per_state = self.n_states * (self.n_states if transition else 1)
        if self.n_configs * per_state > _MAX_TABLE_ENTRIES:
            raise InferenceError(
                f"compiled slice model too large: {self.n_configs} evidence "
                f"configurations x {per_state} state entries"
            )

        base = Factor.unit()
        for factor in coupling:
            base = base * factor
        # Pad with missing hidden variables so every config reduces to the
        # full interface scope.
        wanted: list[tuple[str, str]] = [_cur(h) for h in self.hidden]
        if transition:
            wanted = [_prev(h) for h in self.hidden] + wanted
        missing = [v for v in wanted if v not in base.variables]
        if missing:
            missing_cards = [template.cardinality(name) for _, name in missing]
            base = base * Factor(
                missing, missing_cards, np.ones(missing_cards)
            )

        tables = []
        configs = (
            itertools.product(*[range(c) for c in self.coupling_cards])
            if coupling_evidence
            else [()]
        )
        for config in configs:
            reduced = base.reduce(dict(zip(coupling_evidence, config)))
            aligned = reduced.transpose(wanted)
            if transition:
                tables.append(aligned.values.reshape(self.n_states, self.n_states))
            else:
                tables.append(aligned.values.reshape(self.n_states))
        self.tables = np.stack(tables)  # (n_cfg, S, S) or (n_cfg, S)

        # Leaf observation matrices: (S, card_f) per leaf evidence node.
        self.leaf_obs: dict[str, np.ndarray] = {}
        cur_scope = [_cur(h) for h in self.hidden]
        for name, factor in leaves.items():
            missing = [v for v in cur_scope if v not in factor.variables]
            padded = factor
            if missing:
                missing_cards = [template.cardinality(n) for _, n in missing]
                padded = factor * Factor(missing, missing_cards, np.ones(missing_cards))
            aligned = padded.transpose(cur_scope + [_cur(name)])
            self.leaf_obs[name] = aligned.values.reshape(
                self.n_states, template.cardinality(name)
            )

    # ------------------------------------------------------------------
    def config_weights(self, evidence: EvidenceSequence, steps: np.ndarray) -> np.ndarray:
        """Per-step weights over coupling configurations, shape (len(steps), n_cfg).

        For hard evidence the weights are one-hot (selecting a single
        matrix); soft evidence mixes matrices linearly, which is exactly
        Pearl virtual evidence followed by marginalizing the evidence node.
        """
        weights = np.ones((steps.shape[0], self.n_configs))
        radices = np.ones(len(self.coupling_cards), dtype=np.int64)
        for i in range(len(self.coupling_cards) - 2, -1, -1):
            radices[i] = radices[i + 1] * self.coupling_cards[i + 1]
        for axis, (tag, name) in enumerate(self.coupling_evidence):
            offsets = steps - 1 if tag == _PREV else steps
            lik = evidence.likelihoods(name)[offsets]  # (n, card)
            card = self.coupling_cards[axis]
            # expand likelihood of this variable across configs
            config_states = (np.arange(self.n_configs) // radices[axis]) % card
            weights *= lik[:, config_states]
        return weights

    def config_indices(self, evidence: EvidenceSequence, steps: np.ndarray) -> np.ndarray:
        """Configuration index per step (requires hard coupling evidence)."""
        index = np.zeros(steps.shape[0], dtype=np.int64)
        for tag, name in self.coupling_evidence:
            if not evidence.is_hard(name):
                raise InferenceError(
                    f"coupling evidence node {name!r} must be hard evidence "
                    f"for configuration indexing (EM)"
                )
        radix = 1
        for axis in range(len(self.coupling_evidence) - 1, -1, -1):
            tag, name = self.coupling_evidence[axis]
            offsets = steps - 1 if tag == _PREV else steps
            index += evidence.hard_values(name)[offsets] * radix
            radix *= self.coupling_cards[axis]
        return index

    def step_configs(
        self, evidence: EvidenceSequence, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tables (C, S[, S]) and the one each step selects, (len(steps),).

        Hard (or no) coupling evidence indexes the compiled tables; soft
        coupling evidence mixes them into one table per step.
        """
        if all(evidence.is_hard(name) for _, name in self.coupling_evidence):
            return self.tables, self.config_indices(evidence, steps)
        weights = self.config_weights(evidence, steps)
        mixed = np.tensordot(weights, self.tables, axes=(1, 0))
        return mixed, np.arange(steps.shape[0])

    def step_tables(self, evidence: EvidenceSequence, steps: np.ndarray) -> np.ndarray:
        """Per-step tables (len(steps), S[, S]); a read-only broadcast view
        when every step shares one."""
        tables, configs = self.step_configs(evidence, steps)
        if tables.shape[0] == 1:
            return np.broadcast_to(tables[0], (steps.shape[0], *tables.shape[1:]))
        return tables[configs]

    def likelihood_rows(
        self, evidence: EvidenceSequence, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf-evidence likelihood as distinct rows and the row of each step.

        Returns ``(rows, index)`` with ``rows[index]`` the (len(steps), S)
        likelihood matrix. Hard evidence repeats, so its rows are built once
        per distinct combination of leaf values, by gathering observation
        columns; a leaf with soft evidence makes every step its own row.
        """
        n = steps.shape[0]
        hard = [name for name in self.leaf_obs if evidence.is_hard(name)]
        # number the combinations of hard leaf values, mixed-radix
        code = np.zeros(n, dtype=np.int64)
        span = 1
        for name in hard:
            card = self.leaf_obs[name].shape[1]
            if span * card >= 2**62:  # renumber densely before int64 overflows
                code = np.unique(code, return_inverse=True)[1]
                span = n
            code = code * card + evidence.hard_values(name)[steps]
            span *= card
        _, first, index = np.unique(code, return_index=True, return_inverse=True)
        rows = np.ones((first.shape[0], self.n_states))
        for name in hard:
            values = evidence.hard_values(name)[steps[first]]
            rows *= self.leaf_obs[name].T[values]
        soft = [name for name in self.leaf_obs if not evidence.is_hard(name)]
        if soft:
            rows, index = rows[index], np.arange(n)
            for name in soft:
                rows *= evidence.likelihoods(name)[steps] @ self.leaf_obs[name].T
        return rows, index

    def likelihood_matrix(self, evidence: EvidenceSequence, steps: np.ndarray) -> np.ndarray:
        """Leaf-evidence likelihood per step, shape (len(steps), S)."""
        rows, index = self.likelihood_rows(evidence, steps)
        return rows[index]


class CompiledDbn:
    """A DBN template compiled for fast filtering, smoothing and queries."""

    def __init__(self, template: DbnTemplate):
        template.validate()
        self.template = template
        self.hidden = template.hidden_nodes()
        self.cards = [template.cardinality(h) for h in self.hidden]
        self.n_states = int(np.prod(self.cards))
        self._initial = _SliceModel(template, transition=False)
        self._transition = _SliceModel(template, transition=True)
        # (S, card) 0/1 matrix per hidden node: which interface states carry
        # each of its values
        values = np.unravel_index(np.arange(self.n_states), self.cards)
        self._members = {
            node: np.eye(card)[values[axis]]
            for axis, (node, card) in enumerate(zip(self.hidden, self.cards))
        }

    # ------------------------------------------------------------------
    def _initial_belief(self, evidence: EvidenceSequence) -> np.ndarray:
        """Unnormalised belief of slice 0: prior times leaf likelihood."""
        first = np.zeros(1, dtype=np.int64)
        return (
            self._initial.step_tables(evidence, first)[0]
            * self._initial.likelihood_matrix(evidence, first)[0]
        )

    def filter(
        self,
        evidence: EvidenceSequence,
        clusters: Sequence[Sequence[str]] | None = None,
    ) -> FilterResult:
        """Forward (filtering) pass.

        Args:
            evidence: aligned evidence for all observed nodes.
            clusters: optional Boyen-Koller partition of the hidden nodes;
                omitted or a single cluster keeps the recursion exact.
        """
        rest = np.arange(1, len(evidence))
        steps = scan.StepMatrices.build(
            *self._transition.step_configs(evidence, rest),
            *self._transition.likelihood_rows(evidence, rest),
        )
        project = None
        if clusters is not None and len(list(clusters)) > 1:
            project = _ClusterProjection(self.hidden, self.cards, clusters)
        gamma, log_scales = scan.forward(
            self._initial_belief(evidence), steps, site="dbn.filter", project=project
        )
        return FilterResult(gamma, float(log_scales.sum()))

    def smooth(self, evidence: EvidenceSequence) -> SmoothResult:
        """Forward-backward pass with transition statistics for EM."""
        rest = np.arange(1, len(evidence))
        # EM files each step's counts under one configuration: hard coupling only
        initial_config = int(
            self._initial.config_indices(evidence, np.zeros(1, dtype=np.int64))[0]
        )
        configs = self._transition.config_indices(evidence, rest)
        tables = self._transition.tables
        lik_rows, rows = self._transition.likelihood_rows(evidence, rest)
        steps = scan.StepMatrices.build(tables, configs, lik_rows, rows)
        alphas, log_scales = scan.forward(
            self._initial_belief(evidence), steps, site="dbn.smooth"
        )
        betas = scan.backward(steps, site="dbn.smooth")
        weighted = lik_rows[rows] * betas[1:]
        xi_by_config: dict[int, np.ndarray] = {}
        for cfg in np.unique(configs).tolist():
            chosen = configs == cfg
            xi_by_config[cfg] = scan.expected_transitions(
                tables[cfg], alphas[:-1][chosen], weighted[chosen]
            )
        return SmoothResult(
            scan.posteriors(alphas, betas),
            float(log_scales.sum()),
            xi_by_config,
            initial_config,
        )

    # ------------------------------------------------------------------
    def log_likelihood(self, evidence: EvidenceSequence) -> float:
        return self.filter(evidence).log_likelihood

    def marginal(self, gamma: np.ndarray, node: str) -> np.ndarray:
        """Project interface posteriors (T, S) onto one hidden node (T, card)."""
        if node not in self._members:
            raise InferenceError(f"{node!r} is not a hidden node")
        return gamma @ self._members[node]

    def posterior_series(
        self,
        evidence: EvidenceSequence,
        node: str,
        smoothing: bool = False,
        clusters: Sequence[Sequence[str]] | None = None,
    ) -> np.ndarray:
        """P(node_t = s | evidence) for all t; filtered unless ``smoothing``."""
        if smoothing:
            gamma = self.smooth(evidence).gamma
        else:
            gamma = self.filter(evidence, clusters=clusters).gamma
        return self.marginal(gamma, node)

    def static_posterior_series(self, evidence: EvidenceSequence, node: str) -> np.ndarray:
        """Per-step posterior using ONLY the initial-slice (atemporal) model.

        This is the "plain BN applied independently at every step" baseline
        of the paper's Fig. 9a: no information flows between time steps, so
        the output is spiky where the DBN's is smooth.
        """
        t_len = len(evidence)
        steps = np.arange(t_len)
        priors = self._initial.step_tables(evidence, steps)  # (T, S)
        liks = self._initial.likelihood_matrix(evidence, steps)
        joint = priors * liks
        sums = joint.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise InferenceError("evidence has zero probability at some step")
        gamma = joint / sums
        return self.marginal(gamma, node)
