"""COQL — the Cobra object query language (conceptual level).

A small declarative language over the event/object metadata::

    RETRIEVE fly_out
    RETRIEVE pit_stop WHERE ROLE driver = BARRICHELLO
    RETRIEVE classification WHERE POSITION SCHUMACHER = 1
    RETRIEVE classification WHERE POSITION SCHUMACHER = 1
                              AND POSITION HAKKINEN = 2
    RETRIEVE highlight WHERE INTERSECTS driver_mention
                              WITH ROLE driver = SCHUMACHER
    RETRIEVE highlight FROM german WHERE CONFIDENCE >= 0.6
    RETRIEVE fly_out FROM ALL WHERE ROLE driver = HAKKINEN

Grammar (case-insensitive keywords, identifiers/labels case-preserved)::

    query  := RETRIEVE kind [FROM video|ALL] [WHERE cond (AND cond)*]
    cond   := ROLE name = label
            | DRIVER = label                  -- sugar for ROLE driver
            | POSITION label = int
            | CONFIDENCE >= float
            | LAP = int
            | relation kind [WITH ROLE name = label]
    relation := INTERSECTS | WITHIN | BEFORE | AFTER | DURING | CONTAINS
              | MEETS | OVERLAPS | STARTS | FINISHES | EQUALS

The executor resolves queries against a :class:`~repro.cobra.metadata
.MetadataStore` column-at-a-time (candidate oid lists narrowed by BAT
probes); temporal conditions are per-video interval joins against other
event sets through the Allen relations of :mod:`repro.rules.temporal`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress
from typing import Any

import numpy as np

from repro.cobra.metadata import MetadataStore
from repro.errors import QuerySyntaxError, UnknownConceptError
from repro.rules.temporal import ALLEN_RELATIONS, holds, partner_bounds_array
from repro.synth.annotations import Interval

__all__ = ["Condition", "CoqlQuery", "parse_coql", "QueryExecutor"]

_RELATIONS = tuple(r.upper() for r in ALLEN_RELATIONS) + ("INTERSECTS", "WITHIN")


@dataclass(frozen=True)
class Condition:
    """One WHERE conjunct.

    kind is one of "role", "position", "confidence", "lap", "temporal".
    """

    kind: str
    params: tuple[tuple[str, Any], ...]

    @staticmethod
    def of(kind: str, **params: Any) -> "Condition":
        return Condition(kind, tuple(sorted(params.items())))

    def get(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass
class CoqlQuery:
    """A parsed COQL query."""

    kind: str
    video: str | None = None  # None = ALL
    conditions: list[Condition] = field(default_factory=list)


def _tokenize(text: str) -> list[str]:
    tokens = re.findall(r'"[^"]*"|>=|=|[A-Za-z_][A-Za-z_0-9]*|\d+\.\d+|\d+', text)
    if not tokens:
        raise QuerySyntaxError("empty query")
    return tokens


def parse_coql(text: str) -> CoqlQuery:
    """Parse COQL text into a :class:`CoqlQuery`."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise QuerySyntaxError(f"unexpected end of query (wanted {expected})")
        token = tokens[pos]
        pos += 1
        if expected is not None and token.upper() != expected:
            raise QuerySyntaxError(f"expected {expected}, found {token!r}")
        return token

    def label(token: str) -> str:
        return token[1:-1] if token.startswith('"') else token

    def number(kind: type) -> Any:
        token = take()
        try:
            return kind(token)
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise QuerySyntaxError(
                f"expected {wanted} at token {pos - 1}, found {token!r}"
            ) from None

    take("RETRIEVE")
    query = CoqlQuery(kind=take().lower())
    if peek() is not None and peek().upper() == "FROM":
        take()
        video = take()
        query.video = None if video.upper() == "ALL" else video
    if peek() is None:
        return query
    take("WHERE")
    while True:
        token = take().upper()
        if token == "ROLE":
            role = take().lower()
            take("=")
            query.conditions.append(
                Condition.of("role", role=role, label=label(take()).upper())
            )
        elif token == "DRIVER":
            take("=")
            query.conditions.append(
                Condition.of("role", role="driver", label=label(take()).upper())
            )
        elif token == "POSITION":
            driver = label(take()).upper()
            take("=")
            query.conditions.append(
                Condition.of("position", label=driver, position=number(int))
            )
        elif token == "CONFIDENCE":
            take(">=")
            query.conditions.append(
                Condition.of("confidence", minimum=number(float))
            )
        elif token == "LAP":
            take("=")
            query.conditions.append(Condition.of("lap", lap=number(int)))
        elif token in _RELATIONS:
            other = take().lower()
            role = None
            role_label = None
            if peek() is not None and peek().upper() == "WITH":
                take()
                take("ROLE")
                role = take().lower()
                take("=")
                role_label = label(take()).upper()
            query.conditions.append(
                Condition.of(
                    "temporal",
                    relation=token.lower(),
                    other=other,
                    role=role,
                    label=role_label,
                )
            )
        else:
            raise QuerySyntaxError(f"unknown condition starting with {token!r}")
        if peek() is None:
            break
        take("AND")
    return query


class QueryExecutor:
    """Resolves parsed COQL queries against the metadata store.

    Column-at-a-time: the query's kind/video filters yield a candidate
    list of event oids, every WHERE conjunct narrows that list through
    BAT probes (no record exists yet), and the survivors are materialised
    once at the end, in ``(video_id, start)`` order. A ``ROLE`` /
    ``POSITION`` / ``LAP`` conjunct names the events it accepts outright,
    found by value; with one present, the candidates are the fewest such
    events that are of the query's video and kind, not every event of the
    kind.
    """

    def __init__(self, metadata: MetadataStore):
        self._metadata = metadata

    def execute(self, query: CoqlQuery) -> list[dict[str, Any]]:
        """Return matching event records (dicts with ``interval`` etc.)."""
        metadata = self._metadata
        accepted = [
            self._accepted(condition, query.video) for condition in query.conditions
        ]
        named = [events for events in accepted if events is not None]
        oids = metadata.event_oids(
            video_id=query.video,
            kind=query.kind,
            among=sorted(min(named, key=len)) if named else None,
        )
        if not oids and not self._kind_known(query.kind):
            raise UnknownConceptError(
                f"no events of kind {query.kind!r} in any video — is the "
                f"concept extracted or defined?"
            )
        for condition, events in zip(query.conditions, accepted):
            if events is None:
                oids = self._apply(condition, oids)
            else:
                oids = [oid for oid in oids if oid in events]
        return metadata.events(oids=oids)

    def _kind_known(self, kind: str) -> bool:
        return self._metadata.has_events(None, kind)

    # ------------------------------------------------------------------
    def _accepted(
        self, condition: Condition, video_id: str | None
    ) -> set[int] | None:
        """The events a role conjunct accepts (of ``video_id``, when the
        query names one), found by value once per condition
        (:meth:`MetadataStore.role_matches`, :meth:`MetadataStore
        .role_holders`), never with a probe per candidate; ``None`` for any
        other conjunct."""
        metadata = self._metadata
        if condition.kind == "role":
            role = condition.get("role")
            return metadata.role_matches(role, condition.get("label"), video_id)
        if condition.kind == "position":
            role = f"p{condition.get('position')}"
            return metadata.role_matches(role, condition.get("label"), video_id)
        if condition.kind == "lap":
            return set(metadata.role_holders("lap", [str(condition.get("lap"))]))
        return None

    def _apply(self, condition: Condition, oids: list[int]) -> list[int]:
        """Narrow the candidates by a confidence or temporal conjunct."""
        if condition.kind == "confidence":
            confidence = self._metadata.event_column("confidence")
            keep = confidence[oids] >= condition.get("minimum")
            return list(compress(oids, keep.tolist()))
        if condition.kind == "temporal":
            return self._temporal(condition, oids)
        raise QuerySyntaxError(f"unknown condition kind {condition.kind!r}")

    def _temporal(self, condition: Condition, oids: list[int]) -> list[int]:
        """Keep the candidates standing in ``relation`` to some event of
        the other kind in their own video — one interval join per video.

        The other kind is fetched once per video and role-filtered through
        one probe by value for the whole condition, then sorted by start.
        For all of a video's candidates at once, :func:`partner_bounds_array`
        gives the ranges a partner's endpoints must lie in, and the start
        range becomes a window of the sorted starts by one binary search
        each; a candidate with an empty window is done. Inside a window the
        end range is a float comparison, and only what passes both reaches
        :func:`holds`, which keeps the last word (tolerance included).
        """
        metadata = self._metadata
        relation = condition.get("relation")
        other_kind = condition.get("other")
        role = condition.get("role")
        with_role = (
            None if role is None else metadata.role_matches(role, condition.get("label"))
        )
        starts = metadata.event_column("start")
        ends = metadata.event_column("end")
        by_video: dict[str, list[int]] = {}
        for oid, video_id in zip(oids, metadata.event_video_ids(oids)):
            by_video.setdefault(video_id, []).append(oid)
        kept: set[int] = set()
        for video_id, candidates in by_video.items():
            others = metadata.event_oids(video_id=video_id, kind=other_kind)
            if with_role is not None:
                others = [oid for oid in others if oid in with_role]
            if not others:
                continue
            partners = sorted(zip(starts[others].tolist(), ends[others].tolist()))
            partner_starts = [start for start, _ in partners]
            longest = max(end - start for start, end in partners)
            lows, highs = starts[candidates], ends[candidates]
            start_lo, start_hi, end_lo, end_hi = partner_bounds_array(
                relation, lows, highs, longest=longest
            )
            for oid, start, end, first, last, low, high in zip(
                candidates,
                lows.tolist(),
                highs.tolist(),
                np.searchsorted(partner_starts, start_lo, "left").tolist(),
                np.searchsorted(partner_starts, start_hi, "right").tolist(),
                end_lo.tolist(),
                end_hi.tolist(),
            ):
                if first == last:
                    continue
                interval = Interval(start, end)
                if any(
                    low <= partners[position][1] <= high
                    and holds(relation, interval, Interval(*partners[position]))
                    for position in range(first, last)
                ):
                    kept.add(oid)
        return [oid for oid in oids if oid in kept]
