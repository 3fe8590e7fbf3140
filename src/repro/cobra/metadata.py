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
carries. Lookups are column-at-a-time too, and cost what they return:
equality filters are probes of the BATs' on-demand hash accelerators (a
kind's hits bisected inside a video's runs of rows, so no position list is
walked or copied whole), a role condition probes the role BATs by the
values that denote its label and finds the events it accepts without
looking at the others, and a Python record is materialised only for an oid
that is actually returned, in one pass (DESIGN.md, "BAT accelerators and
the COQL execution path"). Nothing is cached here — the accelerators live
on the BATs, so a store view can be rebuilt per read at no cost.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import and_, eq, itemgetter
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
        among: list[int] | None = None,
    ) -> list[int]:
        """Ascending oids of the events matching the filters.

        The video and kind filters are hash probes on their BATs, the
        kind's probed only inside the video's runs of rows; the confidence
        floor is one comparison on the cached float column. ``among`` hands
        in an ascending oid list to check the filters on instead (a gather
        per filter), for when it is shorter than what the probes would
        give. No record is built.
        """
        oids = _matching(self._event_bats, among, video_id=video_id, kind=kind)
        if not oids:
            return oids
        below = self.event_column("confidence")[oids] < min_confidence
        if below.any():
            oids = list(compress(oids, (~below).tolist()))
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
        way a record is built only for an oid that is returned, in one
        pass: the sort keys are gathered first and the oids put in record
        order (:func:`_record_order`), every column is gathered positionally
        in that order, the roles come from one batched head probe of the
        role BATs, and each record is one dict literal.
        """
        if oids is None:
            oids = self.event_oids(video_id, kind, min_confidence)
        bats = self._event_bats
        order = _record_order(bats["video_id"].tails_at(oids), bats["start"].tails_at(oids))
        oids = [oids[i] for i in order]
        return [
            {
                "event_id": event_id,
                "video_id": video,
                "kind": kind,
                "start": start,
                "end": end,
                "confidence": confidence,
                "source": source,
                "roles": roles,
                "interval": Interval(start, end, kind),
            }
            for event_id, video, kind, start, end, confidence, source, roles in zip(
                *(bat.tails_at(oids) for bat in bats.values()), self._roles_of(oids)
            )
        ]

    def _roles_of(self, oids: list[int]) -> list[dict[str, str]]:
        """Each event's ``role -> object id`` pairs, in role-BAT order: one
        head probe of the oid-headed role BATs for the whole oid list, then
        one positional gather per role BAT. An event with no role rows gets
        an empty dict of its own and costs nothing more."""
        rows = self._role_names.head_positions_many(oids)
        flat = _flat(rows)
        if not flat:
            return [{} for _ in rows]
        pairs = zip(self._role_names.tails_at(flat), self._role_objects.tails_at(flat))
        out: list[dict[str, str]] = []
        for positions in rows:
            if len(positions) == 1:
                name, value = next(pairs)
                out.append({name: value})
            else:
                out.append(dict(islice(pairs, len(positions))))
        return out

    def has_events(self, video_id: str | None, kind: str) -> bool:
        """Existence probe: is :meth:`events` non-empty for this video
        (``None`` = any video) and kind? A row is listed under the floor
        ``confidence >= 0`` (a NaN confidence is listed, as in
        :meth:`event_oids`); no record is built."""
        if video_id is not None:
            return not self.videos_without(kind, [video_id])
        return self._any_listed(self._event_bats["kind"].tail_positions(kind))

    def videos_without(self, kind: str, videos: list[str]) -> list[str]:
        """The videos, of ``videos`` and in their order, with no listed
        event of ``kind`` — the preprocessor's availability probe.

        Two probes however many videos: one batched probe of the video BAT
        gives each video's rows as runs of consecutive positions (rows land
        a video at a time, so a video is a run or a few), one probe of the
        kind's hash bisects every run. A video's rows of the kind are then
        checked against the listing floor only until one is listed.
        """
        bats = self._event_bats
        runs = bats["video_id"].tail_runs(videos)
        hits = bats["kind"].tail_positions_in(kind, runs)
        return [
            video_id
            for video_id, oids in zip(videos, hits)
            if not self._any_listed(oids)
        ]

    def _any_listed(self, oids: list[int]) -> bool:
        """Whether any of the events is above the listing floor, stopping
        at the first that is."""
        fetch = self._event_bats["confidence"].fetch
        return any(not fetch(oid)[1] < 0.0 for oid in oids)

    def event_column(self, attr: str) -> np.ndarray:
        """One numeric event attribute (``start`` / ``end`` /
        ``confidence``) as the BAT's cached read-only array, indexed by
        event oid."""
        return self._event_bats[attr].tail_array()

    def event_video_ids(self, oids: list[int]) -> list[str]:
        """The video each of the given events belongs to."""
        return self._event_bats["video_id"].tails_at(oids)

    def role_holders(self, role: str, values: Iterable[str]) -> dict[int, str]:
        """``event oid -> value of role`` for every event whose ``role`` is
        one of ``values``, probed by value: one tail probe of the
        role-object BAT for all the values, a gather of those rows' role
        names, then of the kept rows' event oids and values. Of duplicate
        role names on one event the last pair wins, as in the event's
        ``roles`` dict: one batched head probe gives each kept row's event's
        rows, and the names of the rows after it are gathered at once
        (there are none when each kept row is its event's last). Costs what
        the values' rows cost, not what the role's rows do."""
        names, objects = self._role_names, self._role_objects
        positions = _flat(objects.tail_positions_many(values))
        positions = _where(positions, names.tails_at(positions), role)
        oids = objects.heads_at(positions)
        holders = zip(oids, objects.tails_at(positions))
        rows = names.head_positions_many(oids)
        if all(map(eq, map(itemgetter(-1), rows), positions)):
            return dict(holders)  # each row is its event's last: none later
        later = [
            each[each.index(position) + 1 :] for position, each in zip(positions, rows)
        ]
        superseded = set(
            _where(
                [index for index, each in enumerate(later) for _ in each],
                names.tails_at(_flat(later)),
                role,
            )
        )
        return {
            oid: value
            for index, (oid, value) in enumerate(holders)
            if index not in superseded
        }

    def role_matches(
        self, role: str, label: str, video_id: str | None = None
    ) -> set[int]:
        """The events (of ``video_id``, ``None`` = any video) whose ``role``
        value denotes ``label`` in the event's own video, found by value.

        A value denotes the label of that video's first object with that
        id, or itself when the video has no such object (roles may store
        bare labels). So the values that can denote ``label`` are the ids
        of the objects (of ``video_id``) labelled with it, plus the label
        itself (one probe of the object label BAT); one batched probe of
        the object id BAT gives the label each (video, value) pair
        denotes; and :meth:`role_holders` gives the events holding one of
        those values, each kept if its value denotes ``label`` in its own
        video. Four probes, and work in the rows of those values only.
        """
        bats = self._object_bats
        ids = bats["object_id"]
        labelled = bats["label"].tail_positions(label)
        if video_id is not None:
            labelled = _where(labelled, bats["video_id"].tails_at(labelled), video_id)
        values = list(dict.fromkeys([*ids.tails_at(labelled), label]))
        positions = _flat(ids.tail_positions_many(values))
        denotes: dict[tuple[str, str], str] = {}  # (video, value) -> label
        for key, name in zip(
            zip(bats["video_id"].tails_at(positions), ids.tails_at(positions)),
            bats["label"].tails_at(positions),
        ):
            denotes.setdefault(key, name)  # the first object of an id wins
        holders = self.role_holders(role, values)
        oids, held = list(holders), list(holders.values())
        videos = self.event_video_ids(oids)
        # a value that is no object id in the event's video denotes itself
        keep = map(eq, map(denotes.get, zip(videos, held), held), repeat(label))
        if video_id is not None:
            keep = map(and_, keep, map(eq, videos, repeat(video_id)))
        return set(compress(oids, keep))

    def role_filter(self, role: str, label: str) -> Callable[[list[int]], list[int]]:
        """A filter keeping the oids (in order) whose ``role`` value denotes
        ``label`` (:meth:`role_matches`), resolved once, here, however many
        oid lists it is then applied to."""
        matched = self.role_matches(role, label)
        return lambda oids: [oid for oid in oids if oid in matched]

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


def _matching(
    bats: dict[str, BAT], among: list[int] | None = None, **wanted: Any
) -> list[int]:
    """Ascending oids of the rows of one position-aligned BAT group whose
    attributes equal the ``wanted`` values (``None`` = any), of ``among``
    when it is given.

    Without ``among``, the first wanted attribute is probed for its runs of
    consecutive rows and the second only inside those runs (two bisections
    a run, see :meth:`BAT.tail_positions_in`). Rows land a video at a time
    and the video comes first, so that intersection costs about what it
    returns. Any attribute left is checked on a gather of the survivors.
    """
    probes = [(bats[attr], value) for attr, value in wanted.items() if value is not None]
    if among is not None:
        oids = among
    elif not probes:
        return list(range(len(next(iter(bats.values())))))
    else:
        (outer, outer_value), *probes = probes
        if not probes:
            return outer.tail_positions(outer_value)
        (inner, inner_value), *probes = probes
        oids = inner.tail_positions_in(inner_value, outer.tail_runs([outer_value]))[0]
    for bat, value in probes:
        oids = _where(oids, bat.tails_at(oids), value)
    return oids


def _record_order(videos: list[str], starts: list[float]) -> list[int]:
    """The positions of the records in ``(video_id, start)`` order, ties in
    the given order.

    Two stable sorts on plain keys — by start, then by video — give that
    order at a fraction of the cost of tuple keys, but only when the starts
    are totally ordered. With a NaN start (the sum is NaN then) it is the
    one stable sort on ``(video_id, start)`` keys the listing has always
    made, whose answer then depends on the comparisons the sort makes.
    """
    total = sum(starts)
    if total != total:
        keys = list(zip(videos, starts))
        return sorted(range(len(keys)), key=keys.__getitem__)
    order = sorted(range(len(starts)), key=starts.__getitem__)
    order.sort(key=videos.__getitem__)
    return order


def _flat(lists: Iterable[list[Any]]) -> list[Any]:
    return list(chain.from_iterable(lists))


def _where(items: Iterable[Any], values: Iterable[Any], wanted: Any) -> list[Any]:
    """The items, in order, whose paired value equals ``wanted`` — one
    column compared without a Python step per value."""
    return list(compress(items, map(eq, values, repeat(wanted))))
