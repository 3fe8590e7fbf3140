"""Online shard splitting: crash-safe live migration of documents.

ROADMAP item 2 left shard *splitting* open: the fleet could drain dead
shards but had no way to add capacity to a live one. This module moves a
document between shards while the fleet keeps answering queries and
accepting writes, surviving a crash at any step. The protocol is five
journaled phases, recorded in the same placement journal as registration
and taking effect, like every record in it, only in
:meth:`repro.sharding.fleet.ShardedKernel._apply`:

``plan``
    a ``migrate-plan`` record names the (video, source, destination)
    triple. Nothing has moved; recovery rolls a bare plan **back**.
``copy``
    the document's rows land on the destination shard inside its own WAL
    transaction, then a ``migrate-copy`` record (carrying the event ids
    present at copy time) seals the bulk copy. From here recovery rolls
    **forward**: rows durable on the destination are the commit point.
``catch-up``
    writes that reached the source after the copy form the migration's
    pending tail — the source's WAL tail for the moving document. Each
    :meth:`MigrationCoordinator.catch_up` round ships tail records to the
    destination (``migrate-ship`` records), shrinking the lag.
``cutover``
    refused with a typed :class:`repro.errors.MigrationLagError` while
    the lag exceeds ``ShardConfig.catchup_lag_floor``. Under the floor, a
    ``migrate-cutover`` record flips the placement map to the destination
    and advances the fleet's **routing epoch**: any
    :class:`PlacementLease` stamped with the old epoch now fences with
    :class:`repro.errors.FencedWriteError` (the same semantics a deposed
    replication primary gets), and the fleet retries the write exactly
    once against the new owner.
``retire``
    the remaining tail drains, the source and destination copies of the
    document are verified row-for-row, and a ``migrate-retire`` record
    closes the migration. The source's rows stay physically behind (BATs
    are append-only) but are suppressed by the ownership-filtered gather
    merge, exactly like rows left behind by a dead-shard rebalance.

Between ``copy`` and ``retire`` the document is **dual-read**: a gather
consults the placement owner first (the source before cutover, the
destination after) and falls back to the other side when the owner is
lost, so the document stays covered through the migration window. The
:class:`repro.sharding.ShardCoverageReport` counts both
(``migrating`` / ``dual_read``) so the degradation stays honest.

Crash points: ``migration:planned|copied|cutover|retired`` fire after
each phase's journal record (the ``migration`` scenario of
:mod:`repro.chaos` crashes at every one), and
``sharding.migrate:<video>`` fires per document inside the copy loop.
The copy and catch-up loops call
:func:`repro.resilience.cancel_checkpoint` at document/record
granularity, so a draining service can abort a long split cooperatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cobra.model import VideoDocument, VideoEvent
from repro.errors import (
    FencedWriteError,
    MigrationError,
    MigrationLagError,
    MonetError,
)
from repro.resilience import cancel_checkpoint
from repro.synth.annotations import Interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.monet.kernel import MonetKernel
    from repro.sharding.fleet import ShardedKernel

__all__ = [
    "MIGRATION_KILL_POINTS",
    "MigrationCoordinator",
    "MigrationState",
    "PlacementLease",
    "SplitReport",
    "divergence",
    "event_from_payload",
    "event_payload",
    "event_rows",
    "object_rows",
    "pruned_document",
]

#: Phase names, in protocol order.
PLANNED = "planned"
COPIED = "copied"
CUTOVER = "cutover"
RETIRED = "retired"

#: The migration crash points, one after each phase's journal record.
MIGRATION_KILL_POINTS = (
    "migration:planned",
    "migration:copied",
    "migration:cutover",
    "migration:retired",
)


# ---------------------------------------------------------------------------
# event payloads: the journal/ship wire form of one event row
# ---------------------------------------------------------------------------
def event_payload(event: VideoEvent) -> dict[str, Any]:
    """The JSON form of one event row. Roles are a *list* of pairs, not a
    mapping: the journal serializes with sorted keys, and role BAT rows
    must replay in insertion order, which a sorted dict would destroy."""
    return {
        "event_id": event.event_id,
        "kind": event.kind,
        "start": float(event.interval.start),
        "end": float(event.interval.end),
        "confidence": float(event.confidence),
        "source": event.source,
        "roles": [[role, obj] for role, obj in event.roles.items()],
    }


def event_from_payload(payload: dict[str, Any]) -> VideoEvent:
    return VideoEvent(
        event_id=payload["event_id"],
        kind=payload["kind"],
        interval=Interval(payload["start"], payload["end"], payload["kind"]),
        confidence=payload["confidence"],
        roles={role: obj for role, obj in payload["roles"]},
        source=payload["source"],
    )


def event_rows(kernel: "MonetKernel", video_id: str) -> list[dict[str, Any]]:
    """The document's event rows on one shard, as payloads in BAT row
    order — the physical truth recovery heals and retire verifies from."""
    try:
        columns = {
            attr: kernel.bat(f"meta_event_{attr}").tails()
            for attr in (
                "event_id", "video_id", "kind", "start", "end",
                "confidence", "source",
            )
        }
    except MonetError:
        return []
    roles: dict[int, list[list[str]]] = {}
    try:
        for (oid, role), (_, object_id) in zip(
            kernel.bat("meta_role_name"), kernel.bat("meta_role_object")
        ):
            roles.setdefault(oid, []).append([role, object_id])
    except MonetError:
        pass
    out: list[dict[str, Any]] = []
    for oid in range(len(columns["event_id"])):
        if columns["video_id"][oid] != video_id:
            continue
        out.append(
            {
                "event_id": columns["event_id"][oid],
                "kind": columns["kind"][oid],
                "start": float(columns["start"][oid]),
                "end": float(columns["end"][oid]),
                "confidence": float(columns["confidence"][oid]),
                "source": columns["source"][oid],
                "roles": [list(pair) for pair in roles.get(oid, [])],
            }
        )
    return out


def object_rows(kernel: "MonetKernel", video_id: str) -> list[dict[str, Any]]:
    try:
        columns = {
            attr: kernel.bat(f"meta_object_{attr}").tails()
            for attr in ("object_id", "video_id", "category", "label")
        }
    except MonetError:
        return []
    return [
        {attr: tails[oid] for attr, tails in columns.items()}
        for oid in range(len(columns["object_id"]))
        if columns["video_id"][oid] == video_id
    ]


def divergence(
    source: "MonetKernel", destination: "MonetKernel", video_id: str
) -> list[str]:
    """Row-level divergence of one document between two shards.

    Every event row on the source must exist identically on the
    destination (the destination may hold *extra* events that were routed
    to it directly after cutover — the source will never see those by
    design), and the object rows must match exactly.
    """
    problems: list[str] = []
    src_events = {p["event_id"]: p for p in event_rows(source, video_id)}
    dst_events = {p["event_id"]: p for p in event_rows(destination, video_id)}
    for event_id, payload in src_events.items():
        got = dst_events.get(event_id)
        if got is None:
            problems.append(
                f"event {event_id!r} of {video_id!r} is on the source but "
                f"missing on the destination"
            )
        elif got != payload:
            problems.append(
                f"event {event_id!r} of {video_id!r} differs: source "
                f"{payload}, destination {got}"
            )
    src_objects = object_rows(source, video_id)
    dst_objects = object_rows(destination, video_id)
    if src_objects != dst_objects:
        problems.append(
            f"object rows of {video_id!r} differ: source {src_objects}, "
            f"destination {dst_objects}"
        )
    return problems


def pruned_document(
    document: VideoDocument, event_ids: tuple[str, ...]
) -> VideoDocument:
    """The document as it looked when it was inserted on a shard: only
    the events present at insertion time. Late events (appended through
    the fleet's online write path) replay as separate ops, so the
    reference rebuild reproduces the shard's exact row order."""
    keep = set(event_ids)
    if keep == set(document.events):
        return document
    return VideoDocument(
        raw=document.raw,
        features=dict(document.features),
        objects=dict(document.objects),
        events={
            event_id: event
            for event_id, event in document.events.items()
            if event_id in keep
        },
    )


# ---------------------------------------------------------------------------
# migration state + reports
# ---------------------------------------------------------------------------
@dataclass
class MigrationState:
    """One in-flight migration. ``phase`` and ``pending`` change only as
    journal records take effect (:meth:`ShardedKernel._apply`)."""

    video: str
    src: str
    dst: str
    seq: int
    phase: str = PLANNED
    #: Source-side WAL tail for the moving document: event payloads
    #: written after the copy, awaiting shipment to the destination.
    pending: list[dict[str, Any]] = field(default_factory=list)

    @property
    def lag(self) -> int:
        """Records the destination still lags the source by."""
        return len(self.pending)


@dataclass(frozen=True)
class SplitReport:
    """Deterministic outcome of one shard split."""

    shard: str
    added: bool
    moves: tuple[tuple[str, str, str], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "added": self.added,
            "moves": [list(move) for move in self.moves],
        }


class PlacementLease:
    """An epoch-stamped write intent for one document.

    Mirrors :class:`repro.replication.group.Lease`: the lease remembers
    the routing epoch and owner observed when it was issued. Presenting
    it after a cutover advanced the epoch (and moved the document)
    fences with :class:`repro.errors.FencedWriteError` — a stale source
    shard can never accept a write after the ring advances.
    """

    __slots__ = ("_coordinator", "video", "owner", "epoch")

    def __init__(
        self,
        coordinator: "MigrationCoordinator",
        video: str,
        owner: str,
        epoch: int,
    ):
        self._coordinator = coordinator
        self.video = video
        self.owner = owner
        self.epoch = epoch

    def apply(self, event: VideoEvent) -> str:
        """Write one event under this intent; returns the shard written.
        Raises :class:`FencedWriteError` when the intent went stale."""
        return self._coordinator._apply_routed(
            self.video, self.owner, self.epoch, event
        )


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------
class MigrationCoordinator:
    """Drives the journaled migration protocol against one fleet.

    Every public method takes the fleet lock (re-entrant, so the fleet's
    own wrappers may hold it already). Migration *is* placement, staged:
    each phase does its shard write, then journals one record through
    :meth:`ShardedKernel._log`, which is what moves the placement map,
    the ops log and this coordinator's ``_active`` states — in one
    critical section per phase.
    """

    def __init__(self, fleet: "ShardedKernel"):
        self._fleet = fleet
        self._active: dict[str, MigrationState] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> dict[str, str]:
        """video id -> phase for every active migration."""
        return {video: state.phase for video, state in self._active.items()}

    def state(self, video_id: str) -> MigrationState:
        try:
            return self._active[video_id]
        except KeyError:
            raise MigrationError(
                f"no migration in flight for {video_id!r}"
            ) from None

    def lag(self, video_id: str) -> int:
        return self.state(video_id).lag

    def counterpart(self, video_id: str) -> str | None:
        """The dual-read fallback shard for an in-flight document: the
        non-owning side once rows exist on both (phase >= copied)."""
        state = self._active.get(video_id)
        if state is None or state.phase == PLANNED:
            return None
        owner = self._fleet._placements.get(video_id)
        return state.dst if owner == state.src else state.src

    # ------------------------------------------------------------------
    # topology growth
    # ------------------------------------------------------------------
    def add_shard(self, name: str) -> list[str]:
        """Durably add one shard to the live fleet; returns the video ids
        the grown ring remaps onto it (candidates for migration)."""
        fleet = self._fleet
        with fleet._lock:
            if name in fleet._shards:
                raise MigrationError(
                    f"shard {name!r} is already in the fleet"
                )
            fleet._log("add-shard", shard=name)
            return self.remapped(name)

    def remapped(self, name: str) -> list[str]:
        """Placed documents the current ring assigns to ``name`` but that
        live elsewhere and are not already migrating."""
        fleet = self._fleet
        with fleet._lock:
            dead = fleet.dead_shards()
            return sorted(
                video_id
                for video_id, owner in fleet._placements.items()
                if owner != name
                and video_id not in self._active
                and fleet.ring.owner(video_id, exclude=dead) == name
            )

    # ------------------------------------------------------------------
    # the five phases
    # ------------------------------------------------------------------
    def plan(
        self, video_id: str, destination: str | None = None
    ) -> MigrationState:
        """Phase 1: journal the intended move. Nothing has copied yet, so
        a crash here rolls back (``migrate-abort`` on recovery)."""
        fleet = self._fleet
        with fleet._lock:
            existing = self._active.get(video_id)
            if existing is not None:
                raise MigrationError(
                    f"{video_id!r} is already migrating "
                    f"({existing.src} -> {existing.dst}, phase "
                    f"{existing.phase})"
                )
            src = fleet._placements.get(video_id)
            if src is None:
                raise MigrationError(
                    f"unknown video {video_id!r}: nothing to migrate"
                )
            dst = destination or fleet.ring.owner(
                video_id, exclude=fleet.dead_shards()
            )
            if dst == src:
                raise MigrationError(
                    f"{video_id!r} already lives on {src!r}"
                )
            if fleet.shard(dst).dead:
                raise MigrationError(
                    f"cannot migrate {video_id!r} to dead shard {dst!r}"
                )
            if fleet.shard(src).dead:
                raise MigrationError(
                    f"cannot migrate {video_id!r} off dead shard {src!r}; "
                    f"rebalance instead"
                )
            fleet._log("migrate-plan", video=video_id, src=src, dst=dst)
            fleet.faults.on_call("migration:planned")
            return self._active[video_id]

    def copy(self, video_id: str) -> MigrationState:
        """Phase 2: bulk-copy the document's rows to the destination
        inside its WAL transaction, then seal with ``migrate-copy``. Rows
        durable on the destination are the protocol's commit point."""
        fleet = self._fleet
        with fleet._lock:
            state = self.state(video_id)
            self._require(state, PLANNED, "copy")
            cancel_checkpoint(f"sharding.migrate:{video_id}")
            fleet.faults.on_call(f"sharding.migrate:{video_id}")
            handle = fleet._documents.get(video_id)
            if handle is None:
                raise MigrationError(
                    f"cannot copy {video_id!r}: no document handle in "
                    f"this process to re-register from"
                )
            document = handle[0]
            fleet._write_document(fleet.shard(state.dst), document)
            fleet._log(
                "migrate-copy",
                seq=state.seq,
                video=video_id,
                events=list(document.events),
            )
            fleet.faults.on_call("migration:copied")
            return state

    def catch_up(self, video_id: str, budget: int | None = None) -> int:
        """Phase 3: ship the source's pending tail for the document to
        the destination; returns how many records shipped."""
        fleet = self._fleet
        with fleet._lock:
            state = self.state(video_id)
            if state.phase not in (COPIED, CUTOVER):
                raise MigrationError(
                    f"cannot catch up {video_id!r} in phase {state.phase!r}"
                )
            shipped = 0
            while state.pending and (budget is None or shipped < budget):
                cancel_checkpoint(f"sharding.migrate:{video_id}")
                payload = state.pending[0]
                self._insert_event(
                    state.dst, video_id, event_from_payload(payload)
                )
                fleet._log("migrate-ship", video=video_id, event=payload)
                shipped += 1
            return shipped

    def cutover(self, video_id: str) -> MigrationState:
        """Phase 4: flip ownership to the destination and advance the
        routing epoch, fencing every stale write intent. Refused with
        :class:`MigrationLagError` while the destination lags the source
        by more than ``catchup_lag_floor`` records."""
        fleet = self._fleet
        with fleet._lock:
            state = self.state(video_id)
            self._require(state, COPIED, "cut over")
            floor = fleet.config.catchup_lag_floor
            if state.lag > floor:
                raise MigrationLagError(
                    f"cutover of {video_id!r} refused: destination "
                    f"{state.dst!r} still lags its source {state.src!r}",
                    lag=state.lag,
                    floor=floor,
                    video=video_id,
                )
            fleet._log("migrate-cutover", seq=state.seq, video=video_id)
            fleet.faults.on_call("migration:cutover")
            return state

    def retire(self, video_id: str) -> MigrationState:
        """Phase 5: drain any bounded-staleness remainder of the tail,
        verify the two copies row-for-row, and close the migration. The
        source's rows stay physically behind (BATs are append-only) but
        the ownership-filtered gather merge suppresses them."""
        fleet = self._fleet
        with fleet._lock:
            state = self.state(video_id)
            self._require(state, CUTOVER, "retire")
            self.catch_up(video_id)
            problems = divergence(
                fleet.shard(state.src).kernel,
                fleet.shard(state.dst).kernel,
                video_id,
            )
            if problems:
                raise MigrationError(
                    f"retire of {video_id!r} refused: the copies diverge: "
                    + "; ".join(problems)
                )
            fleet._log("migrate-retire", seq=state.seq, video=video_id)
            fleet.faults.on_call("migration:retired")
            return state

    def _require(self, state: MigrationState, phase: str, verb: str) -> None:
        if state.phase != phase:
            raise MigrationError(
                f"cannot {verb} {state.video!r} in phase {state.phase!r} "
                f"(needs {phase!r})"
            )

    # ------------------------------------------------------------------
    # convenience drivers
    # ------------------------------------------------------------------
    def migrate(
        self, video_id: str, destination: str | None = None
    ) -> MigrationState:
        """Run all five phases for one document."""
        with self._fleet._lock:
            self.plan(video_id, destination)
            return self.resume(video_id)

    def resume(self, video_id: str) -> MigrationState:
        """Drive an in-flight migration from its current phase to
        retirement (e.g. after a cancelled split)."""
        with self._fleet._lock:
            state = self.state(video_id)
            if state.phase == PLANNED:
                self.copy(video_id)
            if state.phase == COPIED:
                self.catch_up(video_id)
                self.cutover(video_id)
            return self.retire(video_id)

    def split(self, name: str) -> SplitReport:
        """Grow the fleet by one shard and migrate every remapped
        document onto it, one full protocol run per document in sorted
        order (so two fleets replaying the same history move the same
        documents in the same order). Idempotent: re-splitting an
        existing shard resumes in-flight moves and migrates whatever the
        ring still remaps — the crash-sweep's recovery driver."""
        fleet = self._fleet
        with fleet._lock:
            added = name not in fleet._shards
            if added:
                self.add_shard(name)
            moves: list[tuple[str, str, str]] = []
            for video_id in sorted(
                video
                for video, state in self._active.items()
                if state.dst == name
            ):
                cancel_checkpoint(f"sharding.migrate:{video_id}")
                state = self.resume(video_id)
                moves.append((video_id, state.src, state.dst))
            for video_id in self.remapped(name):
                cancel_checkpoint(f"sharding.migrate:{video_id}")
                state = self.migrate(video_id, name)
                moves.append((video_id, state.src, state.dst))
            return SplitReport(shard=name, added=added, moves=tuple(moves))

    # ------------------------------------------------------------------
    # the online write path (fenced)
    # ------------------------------------------------------------------
    def write_intent(self, video_id: str) -> PlacementLease:
        """An epoch-stamped intent to write ``video_id`` on its current
        owner. Goes stale — and fences — when a cutover moves the
        document before the intent is applied."""
        fleet = self._fleet
        with fleet._lock:
            owner = fleet._placements.get(video_id)
            if owner is None:
                raise MigrationError(
                    f"unknown video {video_id!r}: nothing to write to"
                )
            return PlacementLease(
                self, video_id, owner, fleet._routing_epoch
            )

    def store_event(self, video_id: str, event: VideoEvent) -> str:
        """Append one event to the document's owning shard, retrying
        exactly once on the new owner when a concurrent cutover fenced
        the first attempt. Returns the shard that took the write."""
        fleet = self._fleet
        with fleet._lock:
            intent = self.write_intent(video_id)
            try:
                return intent.apply(event)
            except FencedWriteError:
                fleet._migration_fenced_retries += 1
                return self.write_intent(video_id).apply(event)

    def _apply_routed(
        self, video_id: str, owner: str, epoch: int, event: VideoEvent
    ) -> str:
        fleet = self._fleet
        with fleet._lock:
            current = fleet._placements.get(video_id)
            if epoch != fleet._routing_epoch and owner != current:
                raise FencedWriteError(
                    f"stale placement intent for {video_id!r}: shard "
                    f"{owner!r} no longer owns it (now {current!r})",
                    lease_epoch=epoch,
                    group_epoch=fleet._routing_epoch,
                )
            self._insert_event(current, video_id, event)
            # a write to the source of a copied document also joins the
            # migration's pending tail (ShardedKernel._apply)
            fleet._log(
                "event",
                video=video_id,
                shard=current,
                event=event_payload(event),
            )
            return current

    def _insert_event(
        self, shard_name: str, video_id: str, event: VideoEvent
    ) -> None:
        """Insert one event row on a shard inside its WAL transaction,
        through the shard group's epoch-fenced lease when replicated."""
        fleet = self._fleet
        shard = fleet.shard(shard_name)

        def write(kernel: "MonetKernel") -> None:
            view = shard.view()
            with kernel.transaction():
                view.append_events(video_id, [event])

        fleet._fenced_apply(shard, write)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def resolve_in_doubt(self) -> None:
        """Roll every migration the journal left open forward or back.

        The copy is the commit point: a bare plan whose rows never
        reached the destination rolls **back** (``migrate-abort``); a
        plan whose rows are durable on the destination — whether or not
        the ``migrate-copy`` record survived — rolls **forward** through
        healing (re-shipping the journaled tail), cutover, and retire,
        ending in the same verified state a crash-free run reaches.
        """
        fleet = self._fleet
        with fleet._lock:
            for video_id in sorted(self._active):
                state = self._active[video_id]
                if state.phase == PLANNED:
                    if not fleet._shard_has_rows(state.dst, video_id):
                        fleet._log(
                            "migrate-abort", seq=state.seq, video=video_id
                        )
                        continue
                    # rows are durable but the copy record is torn off:
                    # seal it with the event ids the destination attests
                    fleet._log(
                        "migrate-copy",
                        seq=state.seq,
                        video=video_id,
                        events=[
                            payload["event_id"]
                            for payload in event_rows(
                                fleet.shard(state.dst).kernel, video_id
                            )
                        ],
                    )
                self.resume(video_id)
