"""Reference oracle for COQL: the row-at-a-time executor and metadata
listing that served queries before the column-at-a-time path replaced them.

The method bodies are the old ``MetadataStore.events`` / ``objects`` /
``_roles_by_oid`` and the old ``QueryExecutor`` *unchanged* — full column
copies, a Python dict per row, a rescan of the other kind per temporal
candidate, a re-listing of the video's objects per role lookup. Only the
plumbing differs: :class:`ReferenceStore` reads the ``meta_*`` BATs by
catalog name from whatever kernel it is given (a primary, a replica's
applied state, a shard), through ``BAT.tails()`` and iteration only, so it
shares no code with the accelerator probes it is compared against.

It is deliberately slow; it exists to be obviously right.
"""

from __future__ import annotations

from typing import Any

from repro.cobra.query import Condition, CoqlQuery
from repro.errors import QuerySyntaxError, UnknownConceptError
from repro.monet.kernel import MonetKernel
from repro.rules.temporal import holds
from repro.synth.annotations import Interval

_EVENT_ATTRS = ("event_id", "video_id", "kind", "start", "end", "confidence", "source")
_OBJECT_ATTRS = ("object_id", "video_id", "category", "label")


class ReferenceStore:
    """The old ``MetadataStore`` lookups over a kernel's ``meta_*`` BATs."""

    def __init__(self, kernel: MonetKernel):
        self._event_bats = {
            attr: kernel.bat(f"meta_event_{attr}") for attr in _EVENT_ATTRS
        }
        self._object_bats = {
            attr: kernel.bat(f"meta_object_{attr}") for attr in _OBJECT_ATTRS
        }
        self._role_names = kernel.bat("meta_role_name")
        self._role_objects = kernel.bat("meta_role_object")

    def events(
        self,
        video_id: str | None = None,
        kind: str | None = None,
        min_confidence: float = 0.0,
    ) -> list[dict[str, Any]]:
        """Event records (from the BATs) matching the filters."""
        columns = {attr: bat.tails() for attr, bat in self._event_bats.items()}
        roles_by_oid = self._roles_by_oid()
        out: list[dict[str, Any]] = []
        for oid in range(len(columns["event_id"])):
            record = {attr: tails[oid] for attr, tails in columns.items()}
            if video_id is not None and record["video_id"] != video_id:
                continue
            if kind is not None and record["kind"] != kind:
                continue
            if record["confidence"] < min_confidence:
                continue
            record["roles"] = roles_by_oid.get(oid, {})
            record["interval"] = Interval(
                record["start"], record["end"], record["kind"]
            )
            out.append(record)
        out.sort(key=lambda r: (r["video_id"], r["start"]))
        return out

    def _roles_by_oid(self) -> dict[int, dict[str, str]]:
        grouped: dict[int, dict[str, str]] = {}
        for (head, role), (_, object_id) in zip(
            self._role_names, self._role_objects
        ):
            grouped.setdefault(head, {})[role] = object_id
        return grouped

    def objects(
        self,
        video_id: str | None = None,
        category: str | None = None,
        label: str | None = None,
    ) -> list[dict[str, Any]]:
        ids = self._object_bats["object_id"].tails()
        out = []
        for oid in range(len(ids)):
            record = {
                attr: bat.tails()[oid] for attr, bat in self._object_bats.items()
            }
            if video_id is not None and record["video_id"] != video_id:
                continue
            if category is not None and record["category"] != category:
                continue
            if label is not None and record["label"] != label:
                continue
            out.append(record)
        return out

    def has_events(self, video_id: str, kind: str) -> bool:
        return bool(self.events(video_id, kind))


class ReferenceExecutor:
    """The old ``QueryExecutor``: filters record dicts row by row."""

    def __init__(self, metadata: ReferenceStore):
        self._metadata = metadata

    def execute(self, query: CoqlQuery) -> list[dict[str, Any]]:
        """Return matching event records (dicts with ``interval`` etc.)."""
        candidates = self._metadata.events(video_id=query.video, kind=query.kind)
        if not candidates and not self._kind_known(query.kind):
            raise UnknownConceptError(
                f"no events of kind {query.kind!r} in any video — is the "
                f"concept extracted or defined?"
            )
        for condition in query.conditions:
            candidates = self._apply(condition, candidates, query)
        return candidates

    def _kind_known(self, kind: str) -> bool:
        return any(True for _ in self._metadata.events(kind=kind))

    # ------------------------------------------------------------------
    def _apply(
        self,
        condition: Condition,
        candidates: list[dict[str, Any]],
        query: CoqlQuery,
    ) -> list[dict[str, Any]]:
        if condition.kind == "role":
            role = condition.get("role")
            wanted = condition.get("label")
            return [
                r
                for r in candidates
                if self._role_label(r, role) == wanted
            ]
        if condition.kind == "position":
            wanted = condition.get("label")
            position = condition.get("position")
            return [
                r
                for r in candidates
                if self._role_label(r, f"p{position}") == wanted
            ]
        if condition.kind == "confidence":
            minimum = condition.get("minimum")
            return [r for r in candidates if r["confidence"] >= minimum]
        if condition.kind == "lap":
            lap = condition.get("lap")
            return [r for r in candidates if r["roles"].get("lap") == str(lap)]
        if condition.kind == "temporal":
            return self._temporal(condition, candidates, query)
        raise QuerySyntaxError(f"unknown condition kind {condition.kind!r}")

    def _role_label(self, record: dict[str, Any], role: str) -> str | None:
        object_id = record["roles"].get(role)
        if object_id is None:
            return None
        matches = self._metadata.objects(video_id=record["video_id"])
        for video_object in matches:
            if video_object["object_id"] == object_id:
                return video_object["label"]
        return object_id  # roles may store bare labels

    def _temporal(
        self,
        condition: Condition,
        candidates: list[dict[str, Any]],
        query: CoqlQuery,
    ) -> list[dict[str, Any]]:
        relation = condition.get("relation")
        other_kind = condition.get("other")
        role = condition.get("role")
        role_label = condition.get("label")
        out = []
        for record in candidates:
            others = self._metadata.events(
                video_id=record["video_id"], kind=other_kind
            )
            if role is not None:
                others = [
                    o for o in others if self._role_label(o, role) == role_label
                ]
            if any(
                holds(relation, record["interval"], o["interval"]) for o in others
            ):
                out.append(record)
        return out
