"""Discrete factors: the workhorse of all probabilistic inference here.

A factor is a non-negative table over a set of named discrete variables.
CPDs are viewed as factors, and the compiled DBN engine builds its step
tables from them by factor multiplication, reduction by evidence and axis
alignment (:mod:`repro.dbn.compiled`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import InferenceError

__all__ = ["Factor"]


class Factor:
    """A table over named discrete variables.

    Args:
        variables: variable names, one per axis, in axis order.
        cardinalities: number of states per variable (aligned with names).
        values: array broadcastable to the implied shape; copied.

    Factors are immutable by convention: every operation returns a new
    factor. Values are float64 throughout.
    """

    def __init__(
        self,
        variables: Sequence[str],
        cardinalities: Sequence[int],
        values: np.ndarray | Sequence,
    ):
        names = list(variables)
        if len(set(names)) != len(names):
            raise InferenceError(f"duplicate variables in factor: {names}")
        cards = [int(c) for c in cardinalities]
        if len(cards) != len(names):
            raise InferenceError(
                f"{len(names)} variables but {len(cards)} cardinalities"
            )
        if any(c < 1 for c in cards):
            raise InferenceError(f"cardinalities must be positive: {cards}")
        table = np.asarray(values, dtype=np.float64).reshape(cards)
        if np.any(table < 0):
            raise InferenceError("factor values must be non-negative")
        # Empty scope is allowed: a scalar factor (multiplicative constant).
        self._variables = names
        self._cards = cards
        self._values = table

    # ------------------------------------------------------------------
    @property
    def variables(self) -> list[str]:
        return list(self._variables)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def cardinality(self, variable: str) -> int:
        return self._cards[self._axis(variable)]

    def _axis(self, variable: str) -> int:
        try:
            return self._variables.index(variable)
        except ValueError:
            raise InferenceError(
                f"factor over {self._variables} has no variable {variable!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scope = ", ".join(self._variables)
        return f"Factor({scope})"

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def multiply(self, other: "Factor") -> "Factor":
        """Pointwise product over the union of scopes."""
        union = list(self._variables)
        for v in other._variables:
            if v not in union:
                union.append(v)
        cards = []
        for v in union:
            if v in self._variables:
                card = self._cards[self._variables.index(v)]
                if v in other._variables and other.cardinality(v) != card:
                    raise InferenceError(
                        f"variable {v!r} has cardinality {card} vs "
                        f"{other.cardinality(v)}"
                    )
            else:
                card = other.cardinality(v)
            cards.append(card)
        left = _expand(self, union, cards)
        right = _expand(other, union, cards)
        return Factor(union, cards, left * right)

    def __mul__(self, other: "Factor") -> "Factor":
        return self.multiply(other)

    def transpose(self, order: Sequence[str]) -> "Factor":
        """Reorder axes to the given variable order."""
        order = list(order)
        if sorted(order, key=repr) != sorted(self._variables, key=repr):
            raise InferenceError(
                f"transpose order {order} does not match scope {self._variables}"
            )
        axes = [self._variables.index(v) for v in order]
        cards = [self._cards[a] for a in axes]
        return Factor(order, cards, self._values.transpose(axes))

    def reduce(self, evidence: Mapping[str, int]) -> "Factor":
        """Condition on hard evidence, dropping the instantiated variables."""
        relevant = {v: s for v, s in evidence.items() if v in self._variables}
        if not relevant:
            return self
        index: list = [slice(None)] * len(self._variables)
        for v, state in relevant.items():
            axis = self._axis(v)
            if not 0 <= state < self._cards[axis]:
                raise InferenceError(
                    f"state {state} out of range for {v!r} "
                    f"(cardinality {self._cards[axis]})"
                )
            index[axis] = state
        keep = [v for v in self._variables if v not in relevant]
        cards = [self._cards[self._variables.index(v)] for v in keep]
        return Factor(keep, cards, self._values[tuple(index)])

    @staticmethod
    def unit() -> "Factor":
        """The multiplicative identity: a scalar factor of 1."""
        return Factor([], [], 1.0)


def _expand(factor: Factor, union: list[str], cards: list[int]) -> np.ndarray:
    """Broadcast a factor's table to the union scope."""
    shape = [1] * len(union)
    order = []
    for v in factor._variables:
        order.append(union.index(v))
    # Move the factor's axes into union positions.
    values = factor._values
    # Build the permutation: we need axes sorted by union position.
    perm = np.argsort(order)
    values = values.transpose(perm)
    sorted_positions = sorted(order)
    for pos in sorted_positions:
        shape[pos] = cards[pos]
    return values.reshape(shape)
