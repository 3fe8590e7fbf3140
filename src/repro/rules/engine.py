"""A forward-chaining rule engine (the rule-based Moa extension's core).

Facts are typed records; rules bind variables across patterns, test guards
(including temporal predicates from :mod:`repro.rules.temporal`), and
assert derived facts. The engine runs to fixpoint, which is how the Cobra
system derives high-level concepts like "pit-stop duel" from stored events
without re-touching the video.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Any, Callable, Iterable, Mapping

from repro.errors import RuleError

__all__ = ["Fact", "Var", "Pattern", "Rule", "RuleEngine"]


@dataclass(frozen=True)
class Fact:
    """One immutable fact: a kind plus named fields."""

    kind: str
    fields: tuple[tuple[str, Any], ...]

    @staticmethod
    def of(kind: str, /, **fields: Any) -> "Fact":
        """Build a fact; ``kind`` is positional-only so a field may also be
        called "kind"."""
        return Fact(kind, tuple(sorted(fields.items())))

    def get(self, name: str, default: Any = None) -> Any:
        for key, value in self.fields:
            if key == name:
                return value
        return default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class Var:
    """A pattern variable, bound on first match and unified afterwards."""

    name: str


@dataclass(frozen=True)
class Pattern:
    """Matches facts of one kind with per-field constraints.

    Field constraints are literals (equality), :class:`Var` (bind/unify),
    or predicates ``callable(value) -> bool``.
    """

    kind: str
    constraints: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def of(kind: str, /, **constraints: Any) -> "Pattern":
        return Pattern(kind, tuple(sorted(constraints.items())))

    def match(self, fact: Fact, bindings: dict[str, Any]) -> dict[str, Any] | None:
        """Try to extend ``bindings`` so this pattern matches ``fact``."""
        if fact.kind != self.kind:
            return None
        extended = dict(bindings)
        for name, constraint in self.constraints:
            value = fact.get(name, _MISSING)
            if value is _MISSING:
                return None
            if isinstance(constraint, Var):
                if constraint.name in extended:
                    if extended[constraint.name] != value:
                        return None
                else:
                    extended[constraint.name] = value
            elif callable(constraint):
                if not constraint(value):
                    return None
            elif constraint != value:
                return None
        return extended


_MISSING = object()


@dataclass
class Rule:
    """WHEN patterns (+ guard) THEN derive facts.

    Attributes:
        name: for tracing.
        patterns: all must match distinct facts simultaneously.
        guard: extra test on the joint bindings (e.g. temporal relations);
            None = always true.
        action: produces derived facts from the bindings.
    """

    name: str
    patterns: list[Pattern]
    action: Callable[[Mapping[str, Any]], Iterable[Fact]]
    guard: Callable[[Mapping[str, Any]], bool] | None = None


class RuleEngine:
    """Naive-but-correct forward chaining to fixpoint."""

    def __init__(self, max_iterations: int = 100):
        self._facts: list[Fact] = []
        self._fact_set: set[Fact] = set()
        self._rules: list[Rule] = []
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    def add_fact(self, fact: Fact) -> bool:
        """Insert a fact; returns False if it was already known."""
        if fact in self._fact_set:
            return False
        self._facts.append(fact)
        self._fact_set.add(fact)
        return True

    def add_rule(self, rule: Rule) -> None:
        if not rule.patterns:
            raise RuleError(f"rule {rule.name!r} has no patterns")
        self._rules.append(rule)

    def facts(self, kind: str | None = None) -> list[Fact]:
        if kind is None:
            return list(self._facts)
        return [f for f in self._facts if f.kind == kind]

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Fire rules to fixpoint; returns the number of derived facts."""
        derived = 0
        for _ in range(self.max_iterations):
            new_facts: list[Fact] = []
            for rule in self._rules:
                for bindings in self._matches(rule):
                    for fact in rule.action(bindings):
                        if fact not in self._fact_set and fact not in new_facts:
                            new_facts.append(fact)
            if not new_facts:
                return derived
            for fact in new_facts:
                self.add_fact(fact)
            derived += len(new_facts)
        raise RuleError(
            f"no fixpoint after {self.max_iterations} iterations "
            f"(a rule probably derives ever-growing facts)"
        )

    def _matches(self, rule: Rule) -> Iterable[dict[str, Any]]:
        """All binding sets satisfying every pattern (distinct facts) and
        the guard."""
        candidate_lists = [
            [f for f in self._facts if f.kind == p.kind] for p in rule.patterns
        ]
        for combo in itertools.product(*candidate_lists):
            if len({id(f) for f in combo}) != len(combo):
                continue
            bindings: dict[str, Any] | None = {}
            for pattern, fact in zip(rule.patterns, combo):
                bindings = pattern.match(fact, bindings)
                if bindings is None:
                    break
            if bindings is None:
                continue
            if rule.guard is not None and not rule.guard(bindings):
                continue
            yield bindings
