"""EM parameter learning for DBNs.

"The parameters of a DBN can be learned from a training data set. As we work
with DBNs that have hidden states, for this purpose we employ the
Expectation Maximization (EM) learning algorithm" (§4). The paper learns on
short segments (e.g. a 300 s sequence divided into 12 segments of 25 s) and
infers on whole races.

The E-step uses the compiled interface smoother
(:meth:`repro.dbn.compiled.CompiledDbn.smooth`); the M-step re-estimates

* initial CPDs from slice-0 statistics,
* transition CPDs from the per-configuration expected transition counts,
* atemporal (typically evidence) CPDs from pooled statistics over all
  slices when ``tie_atemporal`` is set and the node has no inter-parents.

Hard evidence is required for learning (the fusion layer discretizes
features before training, exactly as thresholding does in the paper); soft
evidence remains available for inference-time queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dbn.compiled import CompiledDbn
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.template import DbnTemplate
from repro.errors import LearningError

__all__ = ["DbnEmResult", "dbn_em"]


@dataclass
class DbnEmResult:
    """Outcome of a DBN EM run."""

    template: DbnTemplate
    log_likelihoods: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods)


def dbn_em(
    template: DbnTemplate,
    sequences: Sequence[EvidenceSequence],
    max_iterations: int = 30,
    tolerance: float = 1e-3,
    pseudo_count: float = 0.05,
    tie_atemporal: bool = True,
    prior_strength: float = 0.0,
) -> DbnEmResult:
    """Fit DBN parameters by EM on hard-evidence training segments.

    Args:
        template: starting structure AND starting parameters (randomize
            first for a cold start).
        sequences: training segments; each must carry hard evidence for all
            observed nodes.
        max_iterations: cap on EM sweeps.
        tolerance: stop when total log-likelihood improves by less than
            ``tolerance * total_steps``.
        pseudo_count: uniform Dirichlet smoothing added to every expected
            count.
        tie_atemporal: estimate a single table for nodes whose initial and
            transition parent sets coincide (no inter-parents), pooling
            slice-0 and transition statistics — the natural choice for
            evidence CPDs.
        prior_strength: MAP smoothing toward the *starting* parameters:
            every column additionally receives ``prior_strength`` pseudo
            observations distributed as the initial table. Parent contexts
            never visited in training then keep their prior shape instead
            of collapsing to the uniform 0.5 that ``pseudo_count`` alone
            would give — important for richly connected transition models
            learned from short segments.

    Returns:
        :class:`DbnEmResult`; the log-likelihood trace is evaluated before
        each M-step, so it is non-decreasing.
    """
    if not sequences:
        raise LearningError("dbn_em needs at least one training sequence")
    for sequence in sequences:
        if not sequence.all_hard():
            raise LearningError(
                "dbn_em requires hard evidence; discretize features first"
            )
    if not template.hidden_nodes():
        return _fully_observed_fit(
            template, sequences, pseudo_count, tie_atemporal, prior_strength
        )
    current = template.copy()
    priors: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
    if prior_strength > 0:
        priors = {
            name: (
                prior_strength * template.initial_cpd(name).table,
                prior_strength * template.transition_cpd(name).table,
            )
            for name in template.nodes()
        }
    total_steps = sum(len(s) for s in sequences)
    history: list[float] = []
    converged = False
    for _ in range(max_iterations):
        engine = CompiledDbn(current)
        accumulator = _CountAccumulator(current, engine, pseudo_count, priors)
        log_likelihood = 0.0
        for sequence in sequences:
            result = engine.smooth(sequence)
            log_likelihood += result.log_likelihood
            accumulator.absorb(sequence, result)
        history.append(log_likelihood)
        current = accumulator.m_step(tie_atemporal)
        if (
            len(history) >= 2
            and abs(history[-1] - history[-2]) < tolerance * total_steps
        ):
            converged = True
            break
    return DbnEmResult(current, history, converged)


def _fully_observed_fit(
    template: DbnTemplate,
    sequences: Sequence[EvidenceSequence],
    pseudo_count: float,
    tie_atemporal: bool,
    prior_strength: float,
) -> DbnEmResult:
    """Exact one-shot MLE/MAP when every node is observed.

    With no hidden variables the E-step is the data itself, so EM reduces
    to counting family configurations — no inference engine required (and
    the compiled engine would otherwise have to enumerate every evidence
    configuration).
    """
    fitted = template.copy()
    log_likelihood = _complete_log_likelihood(template, sequences)
    for name in template.nodes():
        icpd = template.initial_cpd(name)
        tcpd = template.transition_cpd(name)
        initial = np.full((icpd.cardinality, *icpd.parent_cards), pseudo_count)
        transition = np.full((tcpd.cardinality, *tcpd.parent_cards), pseudo_count)
        if prior_strength > 0:
            initial += prior_strength * icpd.table
            transition += prior_strength * tcpd.table
        for sequence in sequences:
            values = {
                node: sequence.hard_values(node) for node in template.nodes()
            }
            index0 = (int(values[name][0]),) + tuple(
                int(values[p][0]) for p in icpd.parents
            )
            initial[index0] += 1.0
            t_len = len(sequence)
            if t_len > 1:
                child = values[name][1:]
                parent_columns = []
                for p in tcpd.parents:
                    if p.endswith("[t-1]"):
                        parent_columns.append(values[p.removesuffix("[t-1]")][:-1])
                    else:
                        parent_columns.append(values[p][1:])
                np.add.at(transition, (child, *parent_columns), 1.0)
        tie = (
            tie_atemporal
            and not template.inter_parents(name)
            and initial.shape == transition.shape
        )
        if tie:
            pooled = _normalize(initial + transition - pseudo_count)
            fitted.set_initial_cpd(name, pooled)
            fitted.set_transition_cpd(name, pooled)
        else:
            fitted.set_initial_cpd(name, _normalize(initial))
            fitted.set_transition_cpd(name, _normalize(transition))
    return DbnEmResult(fitted, [log_likelihood], converged=True)


def _complete_log_likelihood(
    template: DbnTemplate, sequences: Sequence[EvidenceSequence]
) -> float:
    total = 0.0
    for sequence in sequences:
        values = {node: sequence.hard_values(node) for node in template.nodes()}
        for name in template.nodes():
            icpd = template.initial_cpd(name)
            p = icpd.table[
                (int(values[name][0]),)
                + tuple(int(values[q][0]) for q in icpd.parents)
            ]
            total += float(np.log(max(p, 1e-300)))
            tcpd = template.transition_cpd(name)
            if len(sequence) > 1:
                child = values[name][1:]
                parent_columns = []
                for q in tcpd.parents:
                    if q.endswith("[t-1]"):
                        parent_columns.append(values[q.removesuffix("[t-1]")][:-1])
                    else:
                        parent_columns.append(values[q][1:])
                probs = tcpd.table[(child, *parent_columns)]
                total += float(np.log(np.maximum(probs, 1e-300)).sum())
    return total


class _CountAccumulator:
    """Expected-count bookkeeping for one EM sweep."""

    def __init__(
        self,
        template: DbnTemplate,
        engine: CompiledDbn,
        pseudo_count: float,
        priors: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        self._template = template
        self._engine = engine
        self._pseudo = pseudo_count
        self._priors = priors
        self._hidden = engine.hidden
        self._cards = engine.cards
        self._gamma_scope = [("cur", h) for h in self._hidden]
        self._xi_scope = [("prev", h) for h in self._hidden] + self._gamma_scope
        self._initial_counts: dict[str, np.ndarray] = {}
        self._transition_counts: dict[str, np.ndarray] = {}
        for name in template.nodes():
            icpd = template.initial_cpd(name)
            tcpd = template.transition_cpd(name)
            self._initial_counts[name] = np.zeros((icpd.cardinality, *icpd.parent_cards))
            self._transition_counts[name] = np.zeros(
                (tcpd.cardinality, *tcpd.parent_cards)
            )
        init_model = engine._initial
        trans_model = engine._transition
        self._init_coupling = init_model.coupling_evidence
        self._init_coupling_cards = init_model.coupling_cards
        self._trans_coupling = trans_model.coupling_evidence
        self._trans_coupling_cards = trans_model.coupling_cards
        self._leaf_nodes = set(trans_model.leaf_obs)

    # ------------------------------------------------------------------
    def absorb(self, evidence: EvidenceSequence, result) -> None:
        observed = set(self._template.observed_nodes())
        gamma = result.gamma  # (T, S)
        t_len = gamma.shape[0]

        # --- slice-0 families -------------------------------------------------
        init_values = _decode_config(
            result.initial_config, self._init_coupling_cards
        )
        init_evidence = dict(zip(self._init_coupling, init_values))
        for name in self._template.nodes():
            cpd = self._template.initial_cpd(name)
            family = [("cur", name)] + [("cur", p) for p in cpd.parents]
            self._add_family_counts(
                self._initial_counts[name],
                family,
                gamma[0],
                self._gamma_scope,
                self._cards,
                {**init_evidence, **_hard_at(evidence, observed, 0)},
            )

        # --- transition families (coupling path) -----------------------------
        for cfg, xi in result.xi_by_config.items():
            values = _decode_config(cfg, self._trans_coupling_cards)
            cfg_evidence = dict(zip(self._trans_coupling, values))
            xi_cards = self._cards + self._cards
            for name in self._template.nodes():
                if name in self._leaf_nodes:
                    continue  # handled vectorized below
                cpd = self._template.transition_cpd(name)
                family = [("cur", name)]
                for p in cpd.parents:
                    if p.endswith("[t-1]"):
                        family.append(("prev", p.removesuffix("[t-1]")))
                    else:
                        family.append(("cur", p))
                self._add_family_counts(
                    self._transition_counts[name],
                    family,
                    xi.reshape(-1),
                    self._xi_scope,
                    xi_cards,
                    cfg_evidence,
                )

        # --- leaf evidence families (vectorized over time) --------------------
        if t_len > 1:
            for name in self._leaf_nodes:
                cpd = self._template.transition_cpd(name)
                parent_positions = [self._hidden.index(p) for p in cpd.parents]
                gamma_pa = _marginalize_time(
                    gamma[1:], self._cards, parent_positions
                )  # (T-1, *pa_cards)
                values = evidence.hard_values(name)[1:]
                counts = self._transition_counts[name]
                for state in range(cpd.cardinality):
                    mask = values == state
                    if mask.any():
                        counts[state] += gamma_pa[mask].sum(axis=0)

    # ------------------------------------------------------------------
    def _add_family_counts(
        self,
        counts: np.ndarray,
        family: list[tuple[str, str]],
        flat: np.ndarray,
        scope: list[tuple[str, str]],
        scope_cards: list[int],
        evidence_values: dict[tuple[str, str], int],
    ) -> None:
        """Distribute a joint posterior into a family count table.

        ``flat`` is a posterior over ``scope``; family members either live
        in the scope (hidden) or have known values (``evidence_values``).
        """
        hidden_members = [v for v in family if v in scope]
        marginal = _marginalize_flat(flat, scope, scope_cards, hidden_members)
        index: list[object] = []
        for member in family:
            if member in hidden_members:
                index.append(slice(None))
            elif member in evidence_values:
                index.append(int(evidence_values[member]))
            else:
                raise LearningError(
                    f"family member {member!r} is neither hidden nor evidenced"
                )
        # marginal axes follow hidden_members order == their order in family
        counts[tuple(index)] += marginal

    def m_step(self, tie_atemporal: bool) -> DbnTemplate:
        out = self._template.copy()
        for name in self._template.nodes():
            initial = self._initial_counts[name] + self._pseudo
            transition = self._transition_counts[name] + self._pseudo
            if self._priors is not None:
                initial = initial + self._priors[name][0]
                transition = transition + self._priors[name][1]
            tie = (
                tie_atemporal
                and not self._template.inter_parents(name)
                and initial.shape == transition.shape
            )
            if tie:
                pooled = _normalize(initial + transition - self._pseudo)
                out.set_initial_cpd(name, pooled)
                out.set_transition_cpd(name, pooled)
            else:
                out.set_initial_cpd(name, _normalize(initial))
                out.set_transition_cpd(name, _normalize(transition))
        return out


def _normalize(counts: np.ndarray) -> np.ndarray:
    sums = counts.sum(axis=0, keepdims=True)
    cardinality = counts.shape[0]
    safe = np.where(sums > 0, sums, 1.0)
    table = counts / safe
    uniform = np.full_like(counts, 1.0 / cardinality)
    return np.where(sums > 0, table, uniform)


def _decode_config(config: int, cards: list[int]) -> list[int]:
    values = [0] * len(cards)
    remainder = config
    for axis in range(len(cards) - 1, -1, -1):
        values[axis] = remainder % cards[axis]
        remainder //= cards[axis]
    return values


def _hard_at(
    evidence: EvidenceSequence, observed: set[str], t: int
) -> dict[tuple[str, str], int]:
    return {("cur", name): int(evidence.hard_values(name)[t]) for name in observed}


def _marginalize_flat(
    flat: np.ndarray,
    scope: list[tuple[str, str]],
    cards: list[int],
    wanted: list[tuple[str, str]],
) -> np.ndarray:
    """Marginalize a flat joint over ``scope`` onto ``wanted`` (in order)."""
    if not wanted:
        return np.asarray(flat.sum())
    shaped = flat.reshape(cards)
    keep = [scope.index(v) for v in wanted]
    drop = tuple(i for i in range(len(scope)) if i not in keep)
    summed = shaped.sum(axis=drop)
    # remaining axes are in ascending scope position; reorder to wanted
    remaining = sorted(keep)
    order = [remaining.index(k) for k in keep]
    return summed.transpose(order)


def _marginalize_time(
    gamma: np.ndarray, cards: list[int], positions: list[int]
) -> np.ndarray:
    """Marginalize (T, S) posteriors onto given hidden positions, per step."""
    t_len = gamma.shape[0]
    shaped = gamma.reshape(t_len, *cards)
    drop = tuple(i + 1 for i in range(len(cards)) if i not in positions)
    summed = shaped.sum(axis=drop)
    remaining = sorted(positions)
    order = [0] + [1 + remaining.index(p) for p in positions]
    return summed.transpose(order)
