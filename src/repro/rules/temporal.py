"""Allen interval algebra — the spatio-temporal core of the rule engine.

The rule-based extension "is aimed at formalizing the descriptions of
high-level concepts, as well as their extraction based on features and
spatio-temporal reasoning" (§3); the UI lets a user "define new compound
events by specifying different temporal relationships among already defined
events" (§5.6). Allen's thirteen interval relations are that vocabulary.
"""

from __future__ import annotations

import math

from repro.errors import RuleError
from repro.synth.annotations import Interval

__all__ = [
    "allen_relation",
    "holds",
    "partner_bounds",
    "ALLEN_RELATIONS",
    "DEFAULT_TOLERANCE",
    "INVERSES",
]

#: Endpoints closer than this many seconds count as equal in :func:`holds`.
DEFAULT_TOLERANCE = 0.5

ALLEN_RELATIONS = (
    "before",
    "meets",
    "overlaps",
    "starts",
    "during",
    "finishes",
    "equals",
    "after",
    "met_by",
    "overlapped_by",
    "started_by",
    "contains",
    "finished_by",
)

INVERSES = {
    "before": "after",
    "meets": "met_by",
    "overlaps": "overlapped_by",
    "starts": "started_by",
    "during": "contains",
    "finishes": "finished_by",
    "equals": "equals",
    "after": "before",
    "met_by": "meets",
    "overlapped_by": "overlaps",
    "started_by": "starts",
    "contains": "during",
    "finished_by": "finishes",
}


def allen_relation(a: Interval, b: Interval, tolerance: float = 0.0) -> str:
    """The unique Allen relation holding between intervals a and b.

    Args:
        tolerance: endpoints closer than this count as equal (media
            timestamps are never exact).
    """
    def eq(x: float, y: float) -> bool:
        return abs(x - y) <= tolerance

    if eq(a.start, b.start) and eq(a.end, b.end):
        return "equals"
    if eq(a.end, b.start):
        return "meets"
    if eq(b.end, a.start):
        return "met_by"
    if a.end < b.start:
        return "before"
    if b.end < a.start:
        return "after"
    if eq(a.start, b.start):
        return "starts" if a.end < b.end else "started_by"
    if eq(a.end, b.end):
        return "finishes" if a.start > b.start else "finished_by"
    if a.start > b.start and a.end < b.end:
        return "during"
    if a.start < b.start and a.end > b.end:
        return "contains"
    if a.start < b.start:
        return "overlaps"
    return "overlapped_by"


def holds(
    relation: str, a: Interval, b: Interval, tolerance: float = DEFAULT_TOLERANCE
) -> bool:
    """Does the named relation hold between a and b (with tolerance)?

    Accepts the exact Allen names plus two practical disjunctions:
    ``"intersects"`` (any overlap) and ``"within"`` (during/starts/
    finishes/equals).
    """
    if relation == "intersects":
        return a.overlaps(b)
    if relation == "within":
        return allen_relation(a, b, tolerance) in (
            "during",
            "starts",
            "finishes",
            "equals",
        )
    if relation not in ALLEN_RELATIONS:
        raise RuleError(f"unknown temporal relation {relation!r}")
    return allen_relation(a, b, tolerance) == relation


_INF = math.inf

#: relation -> (a.start, a.end, tolerance) -> closed ranges
#: ``(start_lo, start_hi, end_lo, end_hi)`` that b's endpoints must lie in
#: for the relation to hold. Read off :func:`allen_relation` top to bottom:
#: an ``eq`` test becomes a +-tolerance range, a strict comparison (and
#: every earlier test the relation had to fail) a half-line.
_PARTNER_BOUNDS = {
    "equals": lambda s, e, t: (s - t, s + t, e - t, e + t),
    "meets": lambda s, e, t: (e - t, e + t, -_INF, _INF),
    "met_by": lambda s, e, t: (-_INF, _INF, s - t, s + t),
    "before": lambda s, e, t: (e, _INF, -_INF, _INF),
    "after": lambda s, e, t: (-_INF, _INF, -_INF, s),
    "starts": lambda s, e, t: (s - t, s + t, e, _INF),
    "started_by": lambda s, e, t: (s - t, s + t, -_INF, e),
    "finishes": lambda s, e, t: (-_INF, s, e - t, e + t),
    "finished_by": lambda s, e, t: (s, _INF, e - t, e + t),
    "during": lambda s, e, t: (-_INF, s, e, _INF),
    "contains": lambda s, e, t: (s, _INF, -_INF, e),
    "overlaps": lambda s, e, t: (s, e, e, _INF),
    "overlapped_by": lambda s, e, t: (-_INF, s, s, e),
    # during | starts | finishes | equals
    "within": lambda s, e, t: (-_INF, s + t, e - t, _INF),
    "intersects": lambda s, e, t: (-_INF, e, s, _INF),
}


def partner_bounds(
    relation: str,
    a: Interval,
    tolerance: float = DEFAULT_TOLERANCE,
    longest: float = _INF,
) -> tuple[float, float, float, float]:
    """Where an interval b with ``holds(relation, a, b, tolerance)`` can be.

    Returns closed ranges ``(start_lo, start_hi, end_lo, end_hi)`` for
    ``b.start`` and ``b.end``. The ranges are *necessary, not sufficient*:
    they let an interval join skip partners by endpoint order, and
    :func:`holds` still decides the ones that remain. ``longest`` — the
    longest duration any candidate b has, when the caller knows it — ties
    the two ranges together: no b starts before ``end_lo - longest`` and
    still ends in range. Tolerance and ``longest`` are widened by a few
    ulps so that float rounding (inside ``abs(x - y) <= tolerance``, or in
    the duration the caller computed) can never put a true partner outside
    its range.
    """
    try:
        bounds = _PARTNER_BOUNDS[relation]
    except KeyError:
        raise RuleError(f"unknown temporal relation {relation!r}") from None
    widened = tolerance + 4 * math.ulp(max(abs(a.start), abs(a.end)) + tolerance)
    start_lo, start_hi, end_lo, end_hi = bounds(a.start, a.end, widened)
    if longest < _INF and end_lo > -_INF:
        slack = 4 * math.ulp(abs(end_lo) + longest)
        start_lo = max(start_lo, end_lo - longest - slack)
    # b.start < b.end
    return start_lo, min(start_hi, end_hi), max(end_lo, start_lo), end_hi
