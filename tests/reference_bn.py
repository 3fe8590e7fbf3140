"""Reference oracle for the Bayesian-network engines: exact inference by
variable elimination, MLE/EM parameter learning, DBN unrolling and
ancestral sampling.

The system never runs these. Fusion infers with the compiled interface
engine (:mod:`repro.dbn.compiled`) over the blocked scan kernel and learns
with :func:`repro.dbn.learn.dbn_em`; these exist so the tests can check
that engine against the definition — a DBN over T slices *is* the static
network with one copy of every node per slice, and variable elimination on
it is exact. The factor operations only elimination needs (marginalize,
weight, normalize) and the graph queries only the tests ask are here too,
as plain functions over :class:`~repro.bayes.factor.Factor`,
:class:`~repro.bayes.cpd.TabularCpd` and :class:`~repro.bayes.graph.Dag`.

It is deliberately simple; it exists to be obviously right.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.bayes.cpd import TabularCpd
from repro.bayes.factor import Factor
from repro.bayes.graph import Dag
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.template import DbnTemplate
from repro.errors import (
    CpdError,
    GraphStructureError,
    InferenceError,
    LearningError,
)

Node = Hashable


# ---------------------------------------------------------------------------
# factor, CPD and graph helpers
# ---------------------------------------------------------------------------
def _cards(factor: Factor) -> list[int]:
    return [factor.cardinality(v) for v in factor.variables]


def marginalize(factor: Factor, variables: Iterable[str]) -> Factor:
    """Sum out the given variables."""
    drop = set(variables)
    missing = drop - set(factor.variables)
    if missing:
        raise InferenceError(f"cannot marginalize absent variables {missing}")
    axes = tuple(i for i, v in enumerate(factor.variables) if v in drop)
    kept = [v for v in factor.variables if v not in drop]
    return Factor(kept, [factor.cardinality(v) for v in kept], factor.values.sum(axis=axes))


def keep(factor: Factor, variables: Iterable[str]) -> Factor:
    """Marginalize down TO the given variables (order preserved)."""
    wanted = list(variables)
    out = marginalize(factor, [v for v in factor.variables if v not in wanted])
    return out.transpose(wanted)


def weight(factor: Factor, variable: str, likelihood: Sequence[float]) -> Factor:
    """Multiply in soft (virtual) evidence on one variable: ``likelihood[s]``
    scales all entries with ``variable = s`` (Pearl's virtual evidence)."""
    axis = factor.variables.index(variable)
    card = factor.cardinality(variable)
    lik = np.asarray(likelihood, dtype=np.float64)
    if lik.shape != (card,):
        raise InferenceError(f"likelihood for {variable!r} needs {card} entries")
    shape = [1] * len(factor.variables)
    shape[axis] = card
    return Factor(factor.variables, _cards(factor), factor.values * lik.reshape(shape))


def normalize(factor: Factor) -> Factor:
    """Scale so the table sums to one."""
    total = float(factor.values.sum())
    if total <= 0:
        raise InferenceError("cannot normalize a zero factor")
    return Factor(factor.variables, _cards(factor), factor.values / total)


def almost_equal(left: Factor, right: Factor, atol: float = 1e-9) -> bool:
    """Same scope (in any order) and tables equal within ``atol``."""
    if sorted(left.variables, key=repr) != sorted(right.variables, key=repr):
        return False
    aligned = right.transpose(left.variables)
    return bool(np.allclose(left.values, aligned.values, atol=atol))


def probability(
    cpd: TabularCpd, state: int, parent_states: Mapping[Node, int] | None = None
) -> float:
    """P(variable=state | parents=parent_states) from a CPD's table."""
    if not 0 <= state < cpd.cardinality:
        raise CpdError(f"state {state} out of range for {cpd.variable!r}")
    index: list[int] = [state]
    given = parent_states or {}
    for parent, card in zip(cpd.parents, cpd.parent_cards):
        if parent not in given:
            raise CpdError(f"missing parent state for {parent!r}")
        if not 0 <= given[parent] < card:
            raise CpdError(f"state {given[parent]} out of range for parent {parent!r}")
        index.append(given[parent])
    return float(cpd.table[tuple(index)])


def set_tied_cpd(template: DbnTemplate, name: str, table) -> None:
    """Set the same table as a node's initial AND transition CPD; only for
    nodes with no inter-parents (the same parent set in both slices)."""
    if template.inter_parents(name):
        raise CpdError(
            f"{name!r} has inter-slice parents; set initial and transition separately"
        )
    template.set_initial_cpd(name, table)
    template.set_transition_cpd(name, table)


class Graph(Dag):
    """A :class:`Dag` with the read-only queries only the tests ask."""

    def nodes(self) -> list[Node]:
        return list(self._parents)

    def roots(self) -> list[Node]:
        return [n for n, ps in self._parents.items() if not ps]

    def leaves(self) -> list[Node]:
        return [n for n, cs in self._children.items() if not cs]

    def ancestors(self, node: Node) -> set[Node]:
        return self._closure(node, self._parents)

    def descendants(self, node: Node) -> set[Node]:
        return self._closure(node, self._children)

    def _closure(self, node: Node, step: Mapping[Node, list[Node]]) -> set[Node]:
        self._require(node)
        out: set[Node] = set()
        stack = list(step[node])
        while stack:
            current = stack.pop()
            if current not in out:
                out.add(current)
                stack.extend(step[current])
        return out

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        wanted = set(nodes)
        missing = wanted - set(self._parents)
        if missing:
            raise GraphStructureError(f"subgraph of unknown nodes {missing}")
        out = Graph()
        for node in self._parents:
            if node in wanted:
                out.add_node(node)
        for parent, child in self.edges():
            if parent in wanted and child in wanted:
                out.add_edge(parent, child)
        return out


# ---------------------------------------------------------------------------
# Bayesian networks
# ---------------------------------------------------------------------------
class BayesianNetwork:
    """A discrete Bayesian network: a DAG implied by each CPD's parents."""

    def __init__(self) -> None:
        self._dag = Graph()
        self._cpds: dict[Node, TabularCpd] = {}

    def add_cpd(self, cpd: TabularCpd) -> None:
        if cpd.variable in self._cpds:
            raise GraphStructureError(f"node {cpd.variable!r} already has a CPD")
        self._dag.add_node(cpd.variable)
        for parent in cpd.parents:
            self._dag.add_edge(parent, cpd.variable)
        self._cpds[cpd.variable] = cpd

    def replace_cpd(self, cpd: TabularCpd) -> None:
        """Swap in new parameters; structure must be unchanged."""
        old = self.cpd(cpd.variable)
        if old.parents != cpd.parents or old.parent_cards != cpd.parent_cards:
            raise GraphStructureError(
                f"replace_cpd for {cpd.variable!r} changes the structure"
            )
        self._cpds[cpd.variable] = cpd

    def cpd(self, node: Node) -> TabularCpd:
        try:
            return self._cpds[node]
        except KeyError:
            raise GraphStructureError(f"node {node!r} has no CPD") from None

    def nodes(self) -> list[Node]:
        return self._dag.nodes()

    def validate(self) -> None:
        """Check every node has a CPD consistent with the structure."""
        for node in self._dag.nodes():
            if node not in self._cpds:
                raise GraphStructureError(f"node {node!r} lacks a CPD")
            cpd = self._cpds[node]
            structural = sorted(map(str, self._dag.parents(node)))
            declared = sorted(map(str, cpd.parents))
            if structural != declared:
                raise GraphStructureError(
                    f"node {node!r}: CPD parents {declared} differ from "
                    f"graph parents {structural}"
                )
            for parent, card in zip(cpd.parents, cpd.parent_cards):
                if self.cpd(parent).cardinality != card:
                    raise GraphStructureError(
                        f"node {node!r}: parent {parent!r} cardinality mismatch"
                    )
        self._dag.topological_order()  # raises on cycles

    def joint(self) -> Factor:
        """The full joint distribution (exponential; small nets only)."""
        product = Factor.unit()
        for cpd in self._cpds.values():
            product = product * cpd.to_factor()
        return product

    def sample(
        self,
        n: int,
        rng: np.random.Generator | None = None,
        evidence: Mapping[Node, int] | None = None,
    ) -> list[dict[Node, int]]:
        """Ancestral sampling; evidence nodes are clamped (forward sampling
        with interventions, enough to generate training data)."""
        rng = rng or np.random.default_rng()
        clamp = dict(evidence or {})
        order = self._dag.topological_order()
        out: list[dict[Node, int]] = []
        for _ in range(n):
            assignment: dict[Node, int] = {}
            for node in order:
                if node in clamp:
                    assignment[node] = clamp[node]
                    continue
                cpd = self._cpds[node]
                parents = {p: assignment[p] for p in cpd.parents}
                column = [probability(cpd, s, parents) for s in range(cpd.cardinality)]
                assignment[node] = int(rng.choice(cpd.cardinality, p=column))
            out.append(assignment)
        return out

    def log_likelihood(self, records: Sequence[Mapping[Node, int]]) -> float:
        """Complete-data log likelihood."""
        total = 0.0
        for record in records:
            for node, cpd in self._cpds.items():
                if node not in record:
                    raise InferenceError(
                        f"record is missing node {node!r}; use EM for hidden data"
                    )
                p = probability(cpd, record[node], {q: record[q] for q in cpd.parents})
                if p <= 0:
                    return float("-inf")
                total += float(np.log(p))
        return total

    def copy(self) -> "BayesianNetwork":
        out = BayesianNetwork()
        for node in self._dag.topological_order():
            cpd = self._cpds[node]
            out.add_cpd(
                TabularCpd(
                    cpd.variable, cpd.cardinality, cpd.table.copy(), cpd.parents,
                    cpd.parent_cards,
                )
            )
        return out


# ---------------------------------------------------------------------------
# exact inference
# ---------------------------------------------------------------------------
def min_fill_order(
    scopes: Sequence[Sequence[Node]], eliminate: Sequence[Node]
) -> list[Node]:
    """Order ``eliminate`` by the min-fill heuristic over factor scopes."""
    neighbors: dict[Node, set[Node]] = {}
    for scope in scopes:
        for v in scope:
            neighbors.setdefault(v, set()).update(w for w in scope if w != v)
    remaining = [v for v in eliminate if v in neighbors]
    # Variables absent from every scope cost nothing; put them first.
    order = [v for v in eliminate if v not in neighbors]

    def fill_cost(v: Node) -> int:
        around = [w for w in neighbors[v] if w in remaining or w not in order]
        cost = 0
        for i, a in enumerate(around):
            for b in around[i + 1:]:
                if b not in neighbors.get(a, ()):
                    cost += 1
        return cost

    live = set(remaining)
    while live:
        best = min(sorted(live, key=repr), key=fill_cost)
        order.append(best)
        live.remove(best)
        around = {w for w in neighbors[best] if w in live}
        for a in around:
            neighbors[a].discard(best)
            neighbors[a].update(w for w in around if w != a)
    return order


class VariableElimination:
    """Exact querying of a validated :class:`BayesianNetwork`, with hard
    evidence and soft (virtual) evidence vectors."""

    def __init__(self, network: BayesianNetwork):
        network.validate()
        self._network = network

    def query(
        self,
        variables: Sequence[Node] | Node,
        evidence: Mapping[Node, int] | None = None,
        virtual_evidence: Mapping[Node, Sequence[float]] | None = None,
    ) -> Factor:
        """Normalized posterior joint over ``variables`` given evidence."""
        if not isinstance(variables, (list, tuple)):
            variables = [variables]
        query_vars = list(variables)
        evidence = dict(evidence or {})
        overlap = [v for v in query_vars if v in evidence]
        if overlap:
            raise InferenceError(f"query variables {overlap} are in the evidence")
        unnormalized = self._eliminate(query_vars, evidence, virtual_evidence or {})
        return normalize(unnormalized).transpose(query_vars)

    def evidence_probability(
        self,
        evidence: Mapping[Node, int],
        virtual_evidence: Mapping[Node, Sequence[float]] | None = None,
    ) -> float:
        """P(evidence) — the likelihood of the observed assignment."""
        result = self._eliminate([], dict(evidence), virtual_evidence or {})
        return float(result.values.sum())

    def log_evidence(self, evidence: Mapping[Node, int]) -> float:
        p = self.evidence_probability(evidence)
        return float(np.log(p)) if p > 0 else float("-inf")

    def map_state(
        self, variable: Node, evidence: Mapping[Node, int] | None = None
    ) -> int:
        """Most probable state of one variable given evidence."""
        return int(np.argmax(self.query([variable], evidence).values))

    def _eliminate(
        self,
        keep_vars: Sequence[Node],
        evidence: Mapping[Node, int],
        virtual_evidence: Mapping[Node, Sequence[float]],
    ) -> Factor:
        nodes = self._network.nodes()
        for node in list(evidence) + list(virtual_evidence):
            if node not in nodes:
                raise InferenceError(f"evidence on unknown node {node!r}")
        factors = [self._network.cpd(n).to_factor().reduce(evidence) for n in nodes]
        for node, likelihood in virtual_evidence.items():
            if node in evidence:
                raise InferenceError(
                    f"node {node!r} has both hard and virtual evidence"
                )
            # Weight exactly one factor mentioning the node (applying the
            # likelihood to several would square it into the posterior).
            for i, f in enumerate(factors):
                if node in f.variables:
                    factors[i] = weight(f, node, likelihood)
                    break
            else:
                raise InferenceError(
                    f"virtual evidence on node {node!r} absent from all factors"
                )
        hidden = [n for n in nodes if n not in keep_vars and n not in evidence]
        for variable in min_fill_order([f.variables for f in factors], hidden):
            involved = [f for f in factors if variable in f.variables]
            if not involved:
                continue
            product = involved[0]
            for f in involved[1:]:
                product = product * f
            summed = marginalize(product, [variable])
            factors = [f for f in factors if variable not in f.variables] + [summed]
        result = Factor.unit()
        for f in factors:
            result = result * f
        return result


# ---------------------------------------------------------------------------
# parameter learning
# ---------------------------------------------------------------------------
def mle(
    network: BayesianNetwork,
    records: Sequence[Mapping[Node, int]],
    pseudo_count: float = 0.0,
) -> BayesianNetwork:
    """Maximum-likelihood parameters from fully observed records; with
    ``pseudo_count`` 0, unseen parent configurations get a uniform column."""
    if not records:
        raise LearningError("mle needs at least one record")
    out = network.copy()
    for node in network.nodes():
        cpd = network.cpd(node)
        counts = np.full((cpd.cardinality, *cpd.parent_cards), pseudo_count)
        for record in records:
            if node not in record:
                raise LearningError(
                    f"record missing node {node!r}; use ExpectationMaximization"
                )
            counts[(record[node], *[record[p] for p in cpd.parents])] += 1.0
        out.replace_cpd(
            TabularCpd(
                node, cpd.cardinality, _normalize_columns(counts), cpd.parents,
                cpd.parent_cards,
            )
        )
    return out


def _normalize_columns(counts: np.ndarray) -> np.ndarray:
    sums = counts.sum(axis=0, keepdims=True)
    table = counts / np.where(sums > 0, sums, 1.0)
    return np.where(sums > 0, table, np.full_like(counts, 1.0 / counts.shape[0]))


@dataclass
class EmResult:
    """Outcome of an EM run."""

    network: BayesianNetwork
    log_likelihoods: list[float]
    converged: bool


class ExpectationMaximization:
    """EM parameter learning with hidden variables: exact VE posteriors give
    the expected family counts (E-step), normalized into new CPDs (M-step)
    with a Dirichlet ``pseudo_count``. Stops after ``max_iterations`` sweeps
    or when the log-likelihood moves less than ``tolerance`` per record."""

    def __init__(
        self,
        network: BayesianNetwork,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        pseudo_count: float = 0.05,
    ):
        network.validate()
        self._initial = network.copy()
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.pseudo_count = pseudo_count

    def fit(self, records: Sequence[Mapping[Node, int]]) -> EmResult:
        """Run EM; nodes absent from a record are hidden for that record.
        The log-likelihood trace is computed before each M-step."""
        if not records:
            raise LearningError("EM needs at least one record")
        current = self._initial.copy()
        history: list[float] = []
        converged = False
        for _ in range(self.max_iterations):
            counts, log_likelihood = self._expected_counts(current, records)
            history.append(log_likelihood)
            for node, table in counts.items():
                cpd = current.cpd(node)
                current.replace_cpd(
                    TabularCpd(
                        node,
                        cpd.cardinality,
                        _normalize_columns(table + self.pseudo_count),
                        cpd.parents,
                        cpd.parent_cards,
                    )
                )
            if len(history) >= 2 and abs(history[-1] - history[-2]) < self.tolerance * len(records):
                converged = True
                break
        return EmResult(current, history, converged)

    def _expected_counts(
        self, network: BayesianNetwork, records: Sequence[Mapping[Node, int]]
    ) -> tuple[dict[Node, np.ndarray], float]:
        engine = VariableElimination(network)
        counts: dict[Node, np.ndarray] = {
            node: np.zeros((network.cpd(node).cardinality, *network.cpd(node).parent_cards))
            for node in network.nodes()
        }
        log_likelihood = 0.0
        for i, record in enumerate(records):
            evidence = dict(record)
            p_evidence = engine.evidence_probability(evidence)
            if p_evidence <= 0:
                raise LearningError(
                    f"record {i} has zero likelihood under the current model"
                )
            log_likelihood += float(np.log(p_evidence))
            for node in network.nodes():
                cpd = network.cpd(node)
                family = [node, *cpd.parents]
                hidden_family = [v for v in family if v not in evidence]
                if not hidden_family:
                    counts[node][(evidence[node], *[evidence[p] for p in cpd.parents])] += 1.0
                    continue
                posterior = engine.query(hidden_family, evidence)
                for assignment in itertools.product(
                    *[range(posterior.cardinality(v)) for v in hidden_family]
                ):
                    prob = float(posterior.values[assignment])
                    if prob == 0.0:
                        continue
                    full = dict(evidence)
                    full.update(dict(zip(hidden_family, assignment)))
                    counts[node][(full[node], *[full[p] for p in cpd.parents])] += prob
        return counts, log_likelihood


# ---------------------------------------------------------------------------
# DBNs: unrolling and sampling
# ---------------------------------------------------------------------------
def at_slice(name: str, t: int) -> str:
    """Concrete unrolled node name ('EA', 3) -> 'EA@3'."""
    return f"{name}@{t}"


def unroll(template: DbnTemplate, n_slices: int) -> BayesianNetwork:
    """``n_slices`` copies of the template as one static BN: node ``X`` at
    slice ``t`` is ``"X@t"``, with initial CPDs at slice 0 and transition
    CPDs elsewhere."""
    if n_slices < 1:
        raise GraphStructureError("unroll needs at least one slice")
    template.validate()
    network = BayesianNetwork()
    for t in range(n_slices):
        for name in template.nodes():
            if t == 0:
                cpd = template.initial_cpd(name)
                parents = [at_slice(p, 0) for p in cpd.parents]
            else:
                cpd = template.transition_cpd(name)
                parents = [
                    at_slice(p.removesuffix("[t-1]"), t - 1) if p.endswith("[t-1]")
                    else at_slice(p, t)
                    for p in cpd.parents
                ]
            network.add_cpd(
                TabularCpd(
                    at_slice(name, t), cpd.cardinality, cpd.table, parents,
                    cpd.parent_cards,
                )
            )
    network.validate()
    return network


def sample_sequence(
    template: DbnTemplate,
    length: int,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, np.ndarray], EvidenceSequence]:
    """One trajectory by ancestral sampling: every node's (hidden and
    observed) state sequence, and the observed part as evidence."""
    if length < 1:
        raise InferenceError("sample length must be >= 1")
    template.validate()
    rng = rng or np.random.default_rng()
    order = _slice_order(template)
    states: dict[str, np.ndarray] = {
        name: np.zeros(length, dtype=np.int64) for name in template.nodes()
    }
    for t in range(length):
        for name in order:
            cpd = template.initial_cpd(name) if t == 0 else template.transition_cpd(name)
            parent_states = {
                parent: int(states[parent.removesuffix("[t-1]")][t - 1])
                if parent.endswith("[t-1]") else int(states[parent][t])
                for parent in cpd.parents
            }
            column = [probability(cpd, s, parent_states) for s in range(cpd.cardinality)]
            states[name][t] = int(rng.choice(cpd.cardinality, p=column))
    evidence = EvidenceSequence(
        template, hard={n: states[n] for n in template.observed_nodes()}
    )
    return states, evidence


def _slice_order(template: DbnTemplate) -> list[str]:
    """Topological order of the intra-slice graph (inter-slice parents are
    always available from the previous step)."""
    remaining = {n: set(template.intra_parents(n)) for n in template.nodes()}
    order: list[str] = []
    while remaining:
        ready = [n for n, parents in remaining.items() if not parents]
        if not ready:
            raise InferenceError("intra-slice graph has a cycle")
        for name in ready:
            order.append(name)
            del remaining[name]
        for parents in remaining.values():
            parents.difference_update(ready)
    return order
