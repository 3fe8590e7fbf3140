"""User-defined compound events (§5.6).

"A user can define new compound events by specifying different temporal
relationships among already defined events. He can also update meta-data
through the interface by adding a newly defined event, which will speed up
the future retrieval of this event."

A :class:`CompoundEventDef` names components (existing event kinds, with
optional role constraints) and pairwise Allen relations; evaluating it over
a video's metadata materializes new events which are stored back — the
"speed up future retrieval" path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cobra.metadata import MetadataStore
from repro.cobra.model import VideoEvent
from repro.errors import CobraError
from repro.rules.temporal import holds
from repro.synth.annotations import Interval

__all__ = ["Component", "TemporalConstraint", "CompoundEventDef"]


@dataclass(frozen=True)
class Component:
    """One part of a compound event: events of ``kind``, optionally only
    those whose ``role`` denotes ``role_label`` (both given, or neither)."""

    alias: str
    kind: str
    role: str | None = None
    role_label: str | None = None

    def __post_init__(self) -> None:
        if (self.role is None) != (self.role_label is None):
            raise CobraError(
                f"component {self.alias!r}: a role constraint needs both a role "
                f"and a label, got role={self.role!r}, role_label={self.role_label!r}"
            )


@dataclass(frozen=True)
class TemporalConstraint:
    """Allen relation between two components (by alias)."""

    left: str
    relation: str
    right: str


@dataclass
class CompoundEventDef:
    """A named compound event over existing event kinds."""

    name: str
    components: list[Component]
    constraints: list[TemporalConstraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        aliases = [c.alias for c in self.components]
        if len(set(aliases)) != len(aliases):
            raise CobraError(f"duplicate component aliases in {self.name!r}")
        known = set(aliases)
        for constraint in self.constraints:
            if constraint.left not in known or constraint.right not in known:
                raise CobraError(
                    f"constraint references unknown alias in {self.name!r}"
                )

    # ------------------------------------------------------------------
    def evaluate(
        self, metadata: MetadataStore, video_id: str
    ) -> list[dict[str, Any]]:
        """All component combinations satisfying the constraints."""
        candidate_sets = []
        for component in self.components:
            oids = metadata.event_oids(video_id=video_id, kind=component.kind)
            if component.role is not None:
                keep = metadata.role_filter(component.role, component.role_label)
                oids = keep(oids)
            candidate_sets.append(metadata.events(oids=oids))

        matches: list[dict[str, Any]] = []
        def backtrack(index: int, chosen: dict[str, dict[str, Any]]) -> None:
            if index == len(self.components):
                matches.append(dict(chosen))
                return
            component = self.components[index]
            for event in candidate_sets[index]:
                chosen[component.alias] = event
                if self._constraints_hold(chosen):
                    backtrack(index + 1, chosen)
                del chosen[component.alias]

        backtrack(0, {})
        return matches

    def _constraints_hold(self, chosen: dict[str, dict[str, Any]]) -> bool:
        for constraint in self.constraints:
            if constraint.left in chosen and constraint.right in chosen:
                if not holds(
                    constraint.relation,
                    chosen[constraint.left]["interval"],
                    chosen[constraint.right]["interval"],
                ):
                    return False
        return True

    def materialize(
        self, metadata: MetadataStore, video_id: str
    ) -> list[VideoEvent]:
        """Evaluate and store the compound events as new metadata."""
        document = metadata.document(video_id)
        out: list[VideoEvent] = []
        for match in self.evaluate(metadata, video_id):
            intervals = [record["interval"] for record in match.values()]
            span = Interval(
                min(i.start for i in intervals),
                max(i.end for i in intervals),
                self.name,
            )
            confidence = min(record["confidence"] for record in match.values())
            roles = {
                alias: record["event_id"] for alias, record in match.items()
            }
            event = document.new_event(
                self.name, span, confidence, roles, source="compound"
            )
            metadata.store_event(video_id, event)
            out.append(event)
        return out
