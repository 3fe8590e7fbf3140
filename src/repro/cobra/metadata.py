"""BAT-backed metadata store.

"The content abstractions, which are stored as metadata, are used to
organize, index and retrieve the video source. The metadata is populated
off-line most of the time, but can also be extracted on-line in the case of
dynamic feature/semantic extractions in the query time." (§2)

Events and objects are decomposed into aligned BAT groups on the Monet
kernel (fully decomposed storage): one void-headed BAT per attribute, so a
row's position is its oid in every BAT of the group, plus two oid-headed
BATs for the event roles. Lookups are column-at-a-time: equality filters
are probes of the BATs' on-demand hash accelerators, the surviving oid
lists are intersected, a role condition reads one ``oid -> value`` map of
the role BATs, and a Python record is materialised only for an oid
that is actually returned (DESIGN.md, "BAT accelerators and the COQL
execution path"). Nothing is cached here — the accelerators live on the
BATs, so a store view can be rebuilt per read at no cost.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.cobra.model import VideoDocument, VideoEvent, VideoObject
from repro.errors import CobraError, MonetError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.synth.annotations import Interval

__all__ = ["MetadataStore"]

_EVENT_SCHEMA = {
    "event_id": "str",
    "video_id": "str",
    "kind": "str",
    "start": "dbl",
    "end": "dbl",
    "confidence": "dbl",
    "source": "str",
}

_OBJECT_SCHEMA = {
    "object_id": "str",
    "video_id": "str",
    "category": "str",
    "label": "str",
}


class MetadataStore:
    """Persists Cobra layers into kernel BATs and answers lookups."""

    def __init__(self, kernel: MonetKernel):
        self._kernel = kernel
        self._event_bats = {
            attr: self._adopt(f"meta_event_{attr}", "void", tail)
            for attr, tail in _EVENT_SCHEMA.items()
        }
        self._object_bats = {
            attr: self._adopt(f"meta_object_{attr}", "void", tail)
            for attr, tail in _OBJECT_SCHEMA.items()
        }
        # event roles: (event oid -> role name) and (event oid -> object id)
        self._role_names = self._adopt("meta_role_name", "oid", "str")
        self._role_objects = self._adopt("meta_role_object", "oid", "str")
        self._documents: dict[str, VideoDocument] = {}

    def _adopt(self, name: str, head_type: str, tail_type: str) -> BAT:
        """Reuse a recovered catalog BAT when its types match (a kernel
        opened on a durable store already holds the metadata); otherwise
        persist a fresh empty one."""
        try:
            existing = self._kernel.bat(name)
        except MonetError:
            existing = None
        if existing is not None and (
            existing.head_type,
            existing.tail_type,
        ) == (head_type, tail_type):
            return existing
        return self._kernel.persist(name, BAT(head_type, tail_type))

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def register_document(self, document: VideoDocument) -> None:
        video_id = document.raw.video_id
        if video_id in self._documents:
            raise CobraError(f"video {video_id!r} already registered")
        self._documents[video_id] = document
        if self._has_rows_for(video_id):
            # the BATs were recovered from a durable store: re-registering
            # the document only restores the Python-side handle
            return
        for video_object in document.objects.values():
            self._store_object(video_id, video_object)
        for event in document.events.values():
            self._store_event(video_id, event)

    def _has_rows_for(self, video_id: str) -> bool:
        return self._event_bats["video_id"].tail_exists(
            video_id
        ) or self._object_bats["video_id"].tail_exists(video_id)

    def store_event(self, video_id: str, event: VideoEvent) -> None:
        """Add one (possibly freshly extracted) event to the metadata."""
        self.document(video_id)  # raises on unknown video
        self._store_event(video_id, event)

    def _store_event(self, video_id: str, event: VideoEvent) -> None:
        oid = self._event_bats["event_id"].count()
        self._event_bats["event_id"].insert(event.event_id)
        self._event_bats["video_id"].insert(video_id)
        self._event_bats["kind"].insert(event.kind)
        self._event_bats["start"].insert(float(event.interval.start))
        self._event_bats["end"].insert(float(event.interval.end))
        self._event_bats["confidence"].insert(float(event.confidence))
        self._event_bats["source"].insert(event.source)
        for role, object_id in event.roles.items():
            self._role_names.insert(oid, role)
            self._role_objects.insert(oid, object_id)

    def _store_object(self, video_id: str, video_object: VideoObject) -> None:
        self._object_bats["object_id"].insert(video_object.object_id)
        self._object_bats["video_id"].insert(video_id)
        self._object_bats["category"].insert(video_object.category)
        self._object_bats["label"].insert(video_object.label)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def document(self, video_id: str) -> VideoDocument:
        try:
            return self._documents[video_id]
        except KeyError:
            raise CobraError(f"unknown video {video_id!r}") from None

    def video_ids(self) -> list[str]:
        return sorted(self._documents)

    def event_oids(
        self,
        video_id: str | None = None,
        kind: str | None = None,
        min_confidence: float = 0.0,
    ) -> list[int]:
        """Ascending oids of the events matching the filters.

        The video and kind filters are hash probes on their BATs; the two
        position lists are intersected by walking the shorter one against
        the other's column, and the confidence floor is one comparison on
        the cached float column. No record is built.
        """
        oids = _matching(self._event_bats, video_id=video_id, kind=kind)
        if not oids:
            return oids
        below = self.event_column("confidence")[oids] < min_confidence
        if below.any():
            oids = [oid for oid, drop in zip(oids, below.tolist()) if not drop]
        return oids

    def events(
        self,
        video_id: str | None = None,
        kind: str | None = None,
        min_confidence: float = 0.0,
        oids: list[int] | None = None,
    ) -> list[dict[str, Any]]:
        """Event records (from the BATs) matching the filters, ordered by
        ``(video_id, start)`` with ties in insertion order.

        ``oids`` hands in an already filtered ascending oid list (the query
        executor's surviving candidates) in place of the filters; either
        way a record — columns gathered positionally, roles through one
        batched head probe on the role BATs for the whole list — is built
        only for an oid that is returned.
        """
        if oids is None:
            oids = self.event_oids(video_id, kind, min_confidence)
        columns = {
            attr: bat.tails_at(oids) for attr, bat in self._event_bats.items()
        }
        roles = self._roles_of(oids)
        order = sorted(
            range(len(oids)),
            key=lambda i: (columns["video_id"][i], columns["start"][i]),
        )
        out: list[dict[str, Any]] = []
        for i in order:
            record = {attr: values[i] for attr, values in columns.items()}
            record["roles"] = roles[i]
            record["interval"] = Interval(
                record["start"], record["end"], record["kind"]
            )
            out.append(record)
        return out

    def _roles_of(self, oids: list[int]) -> list[dict[str, str]]:
        """Each event's ``role -> object id`` pairs, in role-BAT order: one
        head probe of the oid-headed role BATs for the whole oid list, then
        one positional gather per role BAT."""
        rows = self._role_names.head_positions_many(oids)
        flat = [position for positions in rows for position in positions]
        names = self._role_names.tails_at(flat)
        values = self._role_objects.tails_at(flat)
        out: list[dict[str, str]] = []
        start = 0
        for positions in rows:
            end = start + len(positions)
            out.append(dict(zip(names[start:end], values[start:end])))
            start = end
        return out

    def has_events(self, video_id: str | None, kind: str) -> bool:
        """Existence probe: is :meth:`events` non-empty for this video
        (``None`` = any video) and kind?

        Walks the shorter of the kind's and the video's position lists,
        checking the other attribute row by row, and stops at the first
        row that is live under the listing floor (``confidence >= 0``; a
        NaN confidence is listed, as in :meth:`event_oids`). Builds no
        record and no intersection.
        """
        bats = self._event_bats
        rows, check, wanted = bats["kind"].tail_positions(kind), None, None
        if video_id is not None:
            in_video = bats["video_id"].tail_positions(video_id)
            if len(in_video) < len(rows):
                rows, check, wanted = in_video, bats["kind"], kind
            else:
                check, wanted = bats["video_id"], video_id
        confidence = bats["confidence"]
        return any(
            (check is None or check.fetch(oid)[1] == wanted)
            and not confidence.fetch(oid)[1] < 0.0
            for oid in rows
        )

    def event_column(self, attr: str) -> np.ndarray:
        """One numeric event attribute (``start`` / ``end`` /
        ``confidence``) as the BAT's cached read-only array, indexed by
        event oid."""
        return self._event_bats[attr].tail_array()

    def event_video_ids(self, oids: list[int]) -> list[str]:
        """The video each of the given events belongs to."""
        return self._event_bats["video_id"].tails_at(oids)

    def role_values(self, role: str) -> dict[int, str]:
        """``event oid -> value of role`` for every event that has the role,
        at once: one tail probe of the role-name BAT, then a positional
        gather of those rows' heads (the event oids) and of the role-object
        BAT. Of duplicate role names on one event the last pair wins, as in
        the event's ``roles`` dict."""
        positions = self._role_names.tail_positions(role)
        return dict(
            zip(
                self._role_names.heads_at(positions),
                self._role_objects.tails_at(positions),
            )
        )

    def role_filter(
        self, role: str, label: str | None
    ) -> Callable[[list[int]], list[int]]:
        """A filter keeping the oids (in order) whose ``role`` value denotes
        ``label`` in the event's own video.

        A value denotes the label of that video's object with that id, or
        itself when the video has no such object (roles may store bare
        labels); an event without the role denotes ``None``. The role map
        (:meth:`role_values`) is built once, here. Each video the filter
        meets is resolved once, however many oid lists the filter is then
        applied to: the values that denote ``label`` there come from one
        probe of its objects. So a condition costs one role probe plus one
        object probe per video, not per candidate.
        """
        values = self.role_values(role)
        denoting: dict[str, set[str | None]] = {}  # video -> values

        def keep(oids: list[int]) -> list[int]:
            videos = self.event_video_ids(oids)
            for video_id in set(videos).difference(denoting):
                labels = self._object_labels(video_id)
                hits = {value for value, name in labels.items() if name == label}
                if label not in labels:
                    hits.add(label)  # a bare label denotes itself
                denoting[video_id] = hits
            return [
                oid
                for oid, video_id in zip(oids, videos)
                if values.get(oid) in denoting[video_id]
            ]

        return keep

    def objects(
        self,
        video_id: str | None = None,
        category: str | None = None,
        label: str | None = None,
    ) -> list[dict[str, Any]]:
        """Object records matching the filters, in insertion order."""
        oids = _matching(
            self._object_bats, video_id=video_id, category=category, label=label
        )
        columns = {
            attr: bat.tails_at(oids) for attr, bat in self._object_bats.items()
        }
        return [
            {attr: values[i] for attr, values in columns.items()}
            for i in range(len(oids))
        ]

    def _object_labels(self, video_id: str) -> dict[str, str]:
        """``object id -> label`` of one video's objects, the first object
        of an id winning: a hash probe on the object video BAT and two
        positional gathers."""
        bats = self._object_bats
        positions = bats["video_id"].tail_positions(video_id)
        labels: dict[str, str] = {}
        for object_id, label in zip(
            bats["object_id"].tails_at(positions), bats["label"].tails_at(positions)
        ):
            labels.setdefault(object_id, label)
        return labels


def _matching(bats: dict[str, BAT], **wanted: Any) -> list[int]:
    """Ascending oids of the rows of one position-aligned BAT group whose
    attributes equal the ``wanted`` values (``None`` = any): probe each
    wanted attribute's tail hash, then check the shortest position list
    against the other wanted columns."""
    probed = sorted(
        (
            (bats[attr].tail_positions(value), attr, value)
            for attr, value in wanted.items()
            if value is not None
        ),
        key=lambda entry: len(entry[0]),
    )
    if not probed:
        return list(range(len(next(iter(bats.values())))))
    oids = probed[0][0]
    for _, attr, value in probed[1:]:
        if not oids:
            break
        oids = [
            oid
            for oid, tail in zip(oids, bats[attr].tails_at(oids))
            if tail == value
        ]
    return oids
