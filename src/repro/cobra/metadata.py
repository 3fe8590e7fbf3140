"""BAT-backed metadata store.

"The content abstractions, which are stored as metadata, are used to
organize, index and retrieve the video source. The metadata is populated
off-line most of the time, but can also be extracted on-line in the case of
dynamic feature/semantic extractions in the query time." (§2)

Events and objects are decomposed into aligned BAT groups on the Monet
kernel (fully decomposed storage): one void-headed BAT per attribute, so a
row's position is its oid in every BAT of the group, plus two oid-headed
BATs for the event roles. Writes are column-at-a-time, like the paper's
off-line population: a document, or a batch of late events, lands as one
``insert_bulk`` per BAT (:meth:`MetadataStore.append_events`), so a
registration costs at most thirteen bulk appends however many rows it
carries. Lookups are column-at-a-time too: equality filters are probes
of the BATs' on-demand hash accelerators, the surviving oid
lists are intersected, a role condition reads one ``oid -> value`` map of
the role BATs, and a Python record is materialised only for an oid
that is actually returned (DESIGN.md, "BAT accelerators and the COQL
execution path"). Nothing is cached here — the accelerators live on the
BATs, so a store view can be rebuilt per read at no cost.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

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
        """Land the document's objects and events, then keep its handle.

        The handle is recorded only once the rows have landed: a rejected
        value raises with no handle kept, so — once the enclosing
        transaction has rolled the rows back — the corrected document can
        be registered again.
        """
        video_id = document.raw.video_id
        if video_id in self._documents:
            raise CobraError(f"video {video_id!r} already registered")
        # rows already there were recovered from a durable store:
        # re-registering the document only restores the Python-side handle
        if not self._has_rows_for(video_id):
            self._store_objects(video_id, document.objects.values())
            self.append_events(video_id, document.events.values())
        self._documents[video_id] = document

    def _has_rows_for(self, video_id: str) -> bool:
        return self._event_bats["video_id"].tail_exists(
            video_id
        ) or self._object_bats["video_id"].tail_exists(video_id)

    def store_event(self, video_id: str, event: VideoEvent) -> None:
        """Add one (possibly freshly extracted) event to the metadata."""
        self.document(video_id)  # raises on unknown video
        self.append_events(video_id, [event])

    def append_events(self, video_id: str, events: Iterable[VideoEvent]) -> None:
        """Append events of ``video_id`` as rows, a column at a time: one
        ``insert_bulk`` per event BAT and, when any event has roles, per
        role BAT, the role rows headed by their events' oids in event order.

        The one event writer. It does not ask for the document handle, so
        a shard's metadata view — which holds none for documents it only
        stores rows of — writes through it too. A value an atom rejects
        leaves that BAT as it was, but not the BATs before it: run it in a
        transaction, whose rollback realigns them.
        """
        events = list(events)
        bats = self._event_bats
        base = bats["event_id"].count()
        bats["event_id"].insert_bulk(None, [event.event_id for event in events])
        bats["video_id"].insert_bulk(None, [video_id] * len(events))
        bats["kind"].insert_bulk(None, [event.kind for event in events])
        bats["start"].insert_bulk(
            None, [float(event.interval.start) for event in events]
        )
        bats["end"].insert_bulk(None, [float(event.interval.end) for event in events])
        bats["confidence"].insert_bulk(
            None, [float(event.confidence) for event in events]
        )
        bats["source"].insert_bulk(None, [event.source for event in events])
        oids: list[int] = []
        for oid, event in enumerate(events, base):
            oids.extend([oid] * len(event.roles))
        if not oids:
            return  # extracted events carry no roles: two calls saved
        self._role_names.insert_bulk(
            oids, [role for event in events for role in event.roles]
        )
        self._role_objects.insert_bulk(
            oids, [value for event in events for value in event.roles.values()]
        )

    def _store_objects(
        self, video_id: str, video_objects: Iterable[VideoObject]
    ) -> None:
        """Append objects of ``video_id``: one ``insert_bulk`` per object
        BAT."""
        video_objects = list(video_objects)
        bats = self._object_bats
        bats["object_id"].insert_bulk(None, [o.object_id for o in video_objects])
        bats["video_id"].insert_bulk(None, [video_id] * len(video_objects))
        bats["category"].insert_bulk(None, [o.category for o in video_objects])
        bats["label"].insert_bulk(None, [o.label for o in video_objects])

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def document(self, video_id: str) -> VideoDocument:
        try:
            return self._documents[video_id]
        except KeyError:
            raise CobraError(f"unknown video {video_id!r}") from None

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
