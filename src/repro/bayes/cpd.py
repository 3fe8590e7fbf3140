"""Tabular conditional probability distributions.

A :class:`TabularCpd` stores P(X | parents) as a table whose first axis is
the child variable and whose remaining axes follow the parent order. Each
column (one parent configuration) must sum to one.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.bayes.factor import Factor
from repro.errors import CpdError

__all__ = ["TabularCpd"]

Node = Hashable


class TabularCpd:
    """P(variable | parents) as a normalized table.

    Args:
        variable: child variable name.
        cardinality: number of child states.
        table: array of shape ``(cardinality, *parent_cards)``; every slice
            along axis 0 for a fixed parent configuration sums to 1.
        parents: parent names in axis order (axis 1..n).
        parent_cards: cardinalities aligned with ``parents``.
    """

    def __init__(
        self,
        variable: Node,
        cardinality: int,
        table: np.ndarray | Sequence,
        parents: Sequence[Node] = (),
        parent_cards: Sequence[int] = (),
    ):
        self.variable = variable
        self.cardinality = int(cardinality)
        self.parents = list(parents)
        self.parent_cards = [int(c) for c in parent_cards]
        if len(self.parents) != len(self.parent_cards):
            raise CpdError(
                f"{variable!r}: {len(self.parents)} parents but "
                f"{len(self.parent_cards)} cardinalities"
            )
        shape = (self.cardinality, *self.parent_cards)
        values = np.asarray(table, dtype=np.float64).reshape(shape)
        if np.any(values < 0):
            raise CpdError(f"{variable!r}: negative probabilities")
        sums = values.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise CpdError(
                f"{variable!r}: columns must sum to 1 "
                f"(min {sums.min():.6f}, max {sums.max():.6f})"
            )
        self.table = values

    # ------------------------------------------------------------------
    def to_factor(self, rename: Mapping[Node, Node] | None = None) -> Factor:
        """View the CPD as a factor over (variable, *parents).

        Args:
            rename: optional node-name mapping applied to the scope — used
                when instantiating DBN template CPDs at concrete time slices.
        """
        mapping = rename or {}
        scope = [mapping.get(self.variable, self.variable)]
        scope += [mapping.get(p, p) for p in self.parents]
        cards = [self.cardinality, *self.parent_cards]
        return Factor(scope, cards, self.table)

    # ------------------------------------------------------------------
    @staticmethod
    def random(
        variable: Node,
        cardinality: int,
        parents: Sequence[Node] = (),
        parent_cards: Sequence[int] = (),
        rng: np.random.Generator | None = None,
        concentration: float = 1.0,
    ) -> "TabularCpd":
        """Dirichlet-random CPD, used to initialize EM."""
        rng = rng or np.random.default_rng()
        shape = (cardinality, *[int(c) for c in parent_cards])
        raw = rng.gamma(concentration, size=shape)
        raw /= raw.sum(axis=0, keepdims=True)
        return TabularCpd(variable, cardinality, raw, parents, parent_cards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.parents:
            given = ", ".join(str(p) for p in self.parents)
            return f"TabularCpd(P({self.variable} | {given}))"
        return f"TabularCpd(P({self.variable}))"
