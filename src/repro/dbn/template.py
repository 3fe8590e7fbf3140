"""Dynamic Bayesian network templates (2-TBN specification).

"A time-slice of a dynamic Bayesian network is used to represent each
snapshot of the evolving temporal process. A DBN satisfies the first order
Markov property: each state at time t may depend on one or more states at
time t-1 and/or some states in the same time instant." (§4)

A :class:`DbnTemplate` captures exactly that: per-slice nodes with *intra*
(same-slice) edges, *inter* (t-1 → t) edges, an initial-slice parameterset
and a transition parameterset. Observed (evidence) nodes are marked so the
inference engines know what arrives from the feature extractors.

Parent ordering convention for CPD tables:

* initial CPD of node X — parents are X's intra-parents, in the order the
  edges were added;
* transition CPD of node X — intra-parents first (edge-add order), then
  inter-parents (edge-add order, referring to the *previous* slice).

:meth:`DbnTemplate.initial_parents` / :meth:`transition_parents` return the
exact lists so callers never have to guess.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bayes.cpd import TabularCpd
from repro.bayes.graph import Dag
from repro.errors import CpdError, GraphStructureError

__all__ = ["DbnTemplate", "prev"]


def prev(name: str) -> str:
    """Label a previous-slice node in parent lists ('EA' -> 'EA[t-1]')."""
    return f"{name}[t-1]"


class DbnTemplate:
    """Specification of a DBN as a two-slice temporal Bayesian network."""

    def __init__(self) -> None:
        self._cards: dict[str, int] = {}
        self._observed: set[str] = set()
        self._intra = Dag()
        self._inter_edges: list[tuple[str, str]] = []
        self._initial_cpds: dict[str, TabularCpd] = {}
        self._transition_cpds: dict[str, TabularCpd] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def add_node(self, name: str, cardinality: int, observed: bool = False) -> None:
        """Declare a per-slice node; ``observed`` marks evidence nodes."""
        if name in self._cards:
            raise GraphStructureError(f"node {name!r} already declared")
        if cardinality < 2:
            raise GraphStructureError(
                f"node {name!r} needs cardinality >= 2, got {cardinality}"
            )
        self._cards[name] = int(cardinality)
        self._intra.add_node(name)
        if observed:
            self._observed.add(name)

    def add_intra_edge(self, parent: str, child: str) -> None:
        """Edge within one time slice."""
        self._require(parent)
        self._require(child)
        self._intra.add_edge(parent, child)

    def add_inter_edge(self, parent: str, child: str) -> None:
        """Edge from ``parent`` at slice t-1 to ``child`` at slice t."""
        self._require(parent)
        self._require(child)
        if (parent, child) not in self._inter_edges:
            self._inter_edges.append((parent, child))

    def _require(self, name: str) -> None:
        if name not in self._cards:
            raise GraphStructureError(f"unknown node {name!r}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        return list(self._cards)

    def cardinality(self, name: str) -> int:
        self._require(name)
        return self._cards[name]

    def hidden_nodes(self) -> list[str]:
        """Non-evidence nodes, in declaration order (the belief interface)."""
        return [n for n in self._cards if n not in self._observed]

    def observed_nodes(self) -> list[str]:
        return [n for n in self._cards if n in self._observed]

    def intra_parents(self, name: str) -> list[str]:
        return self._intra.parents(name)

    def inter_parents(self, name: str) -> list[str]:
        return [p for p, c in self._inter_edges if c == name]

    def inter_edges(self) -> list[tuple[str, str]]:
        return list(self._inter_edges)

    def initial_parents(self, name: str) -> list[str]:
        """Parent order for the initial CPD table."""
        return self.intra_parents(name)

    def transition_parents(self, name: str) -> list[str]:
        """Parent order for the transition CPD table.

        Previous-slice parents appear with the :func:`prev` marker.
        """
        return self.intra_parents(name) + [prev(p) for p in self.inter_parents(name)]

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def set_initial_cpd(self, name: str, table: np.ndarray | Sequence) -> None:
        """Set P(X_0 | intra-parents at slice 0)."""
        self._require(name)
        parents = self.initial_parents(name)
        cards = [self._cards[p] for p in parents]
        self._initial_cpds[name] = TabularCpd(
            name, self._cards[name], table, parents, cards
        )

    def set_transition_cpd(self, name: str, table: np.ndarray | Sequence) -> None:
        """Set P(X_t | intra-parents at t, inter-parents at t-1)."""
        self._require(name)
        parents = self.transition_parents(name)
        cards = [
            self._cards[p.removesuffix("[t-1]")] for p in parents
        ]
        self._transition_cpds[name] = TabularCpd(
            name, self._cards[name], table, parents, cards
        )

    def initial_cpd(self, name: str) -> TabularCpd:
        self._require(name)
        try:
            return self._initial_cpds[name]
        except KeyError:
            raise CpdError(f"node {name!r} has no initial CPD") from None

    def transition_cpd(self, name: str) -> TabularCpd:
        self._require(name)
        try:
            return self._transition_cpds[name]
        except KeyError:
            raise CpdError(f"node {name!r} has no transition CPD") from None

    def randomize(self, rng: np.random.Generator, concentration: float = 1.0) -> None:
        """Random-initialize every CPD (EM starting point)."""
        for name in self._cards:
            init_parents = self.initial_parents(name)
            self.set_initial_cpd(
                name,
                TabularCpd.random(
                    name,
                    self._cards[name],
                    init_parents,
                    [self._cards[p] for p in init_parents],
                    rng=rng,
                    concentration=concentration,
                ).table,
            )
            trans_parents = self.transition_parents(name)
            self.set_transition_cpd(
                name,
                TabularCpd.random(
                    name,
                    self._cards[name],
                    trans_parents,
                    [self._cards[p.removesuffix('[t-1]')] for p in trans_parents],
                    rng=rng,
                    concentration=concentration,
                ).table,
            )

    def validate(self) -> None:
        """Check all CPDs are present and shapes line up."""
        for name in self._cards:
            initial = self.initial_cpd(name)
            transition = self.transition_cpd(name)
            if initial.parents != self.initial_parents(name):
                raise GraphStructureError(
                    f"{name!r}: initial CPD parents drifted from structure"
                )
            if transition.parents != self.transition_parents(name):
                raise GraphStructureError(
                    f"{name!r}: transition CPD parents drifted from structure"
                )
        # the intra-slice graph must already be acyclic (Dag enforces it);
        # also reject hidden nodes that depend on observed nodes *upstream*
        # of other hidden nodes in ways the engines support — everything is
        # allowed structurally, so only topological sanity is checked here.
        self._intra.topological_order()

    def copy(self) -> "DbnTemplate":
        out = DbnTemplate()
        for name, card in self._cards.items():
            out.add_node(name, card, observed=name in self._observed)
        for parent, child in self._intra.edges():
            out.add_intra_edge(parent, child)
        for parent, child in self._inter_edges:
            out.add_inter_edge(parent, child)
        for name, cpd in self._initial_cpds.items():
            out.set_initial_cpd(name, cpd.table.copy())
        for name, cpd in self._transition_cpds.items():
            out.set_transition_cpd(name, cpd.table.copy())
        return out
