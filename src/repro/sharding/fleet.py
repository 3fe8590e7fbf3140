"""The sharded kernel fleet: consistent-hash placement + robust gathers.

A :class:`ShardedKernel` fronts N shards. Each shard is one durable
:class:`repro.monet.MonetKernel` — optionally wrapped in a replicated
:class:`repro.replication.KernelGroup` (``replication > 0``) so the shard
itself survives primary loss. Documents are placed by consistent hashing
on the video id (:class:`repro.sharding.HashRing`); metadata rows live
only on the owning shard, and queries scatter to the owning shards and
gather a merged answer.

The gather is robust *by construction*:

* every shard sub-request passes a per-shard :class:`CircuitBreaker` and
  is bounded by the request token's deadline;
* the shard transport is a fault site (``sharding.transport:<shard>``):
  ``partition`` severs the link (the request is lost), ``lag`` makes the
  shard a straggler — answered through a **hedged** backup request
  (a replica read when the shard is replicated, a second attempt
  otherwise), ``kill`` crashes the shard process mid-scatter;
* a crashed replicated shard fails over internally (its group promotes a
  replica); the fleet's cached write lease then fences, and the write
  path **retries with a fresh lease exactly once**
  (``FencedWriteError`` → re-lease → retry);
* a gather that loses shards never raises on its own: it returns a
  degraded :class:`repro.cobra.vdbms.QueryResult` carrying a
  :class:`ShardCoverageReport` (answered / shed / timed out / dead shards
  and the fraction of the targeted documents covered). Only when coverage
  falls below the caller's ``min_coverage`` floor does the gather fail
  loudly with a typed :class:`repro.errors.InsufficientCoverageError`.

Document registration is **two-phase** and journaled: a ``prepare``
record lands in the fleet's placement journal, the rows land on the
owning shard (inside that shard's own WAL transaction), then a ``commit``
record seals the placement. A crash between the phases
(``sharding.place:prepared`` / ``sharding.place:registered`` kill sites)
or inside either journal append (``journal.append:*``) recovers to a
consistent placement: a prepared-but-unregistered document rolls back, a
registered-but-uncommitted one rolls forward. Marking a shard dead
triggers deterministic rebalancing — its documents move to their ring
successors in journal order, so two fleets replaying the same history
agree byte-for-byte (:meth:`ShardedKernel.convergence_report`).

The journal (``placements.log``) is a :class:`repro.durability.wal.
RecordLog` — the WAL's framing under its own magic — and a record takes
effect in :meth:`ShardedKernel._apply` and nowhere else: the live path
appends durably, then applies (:meth:`ShardedKernel._log`); reopening
applies the log in order, then resolves what a crash left in doubt.

A configuration the constructor accepts is valid; nothing lints it. MIL
registered for scatter execution (:meth:`ShardedKernel.run`) runs the
``scatter`` stage of the MIL pass pipeline.
The transport is simulated in-process — shards are kernels, not sockets —
which is exactly what makes every disaster here a seeded, replayable test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.check.diagnostics import CheckMode, Diagnostic
from repro.cobra.metadata import MetadataStore
from repro.cobra.model import VideoDocument, VideoEvent
from repro.cobra.preprocessor import (
    PreprocessReport,
    ScatterPlan,
    choose_scatter_plan,
)
from repro.cobra.query import CoqlQuery, QueryExecutor, parse_coql
from repro.cobra.vdbms import QueryResult
from repro.durability.store import DurableStore
from repro.durability.wal import JOURNAL_MAGIC, RecordLog, require_directory
from repro.errors import (
    CircuitOpenError,
    CobraError,
    DeadlineExceeded,
    FencedWriteError,
    InsufficientCoverageError,
    MonetError,
    PlacementError,
    ReplicationError,
    ShardConfigError,
    ShardingCheckError,
    ShardingError,
    SimulatedCrash,
    TransientError,
    UnknownConceptError,
)
from repro.faults import FaultInjector, FaultPlan, resolve_injector
from repro.monet.bat import compare_catalogs
from repro.monet.kernel import MonetKernel
from repro.replication.group import GroupConfig, KernelGroup, Lease
from repro.resilience import (
    CancellationToken,
    CircuitBreaker,
    cancel_checkpoint,
    cancel_scope,
)
from repro.sharding.migration import (
    COPIED,
    CUTOVER,
    RETIRED,
    MigrationCoordinator,
    MigrationState,
    PlacementLease,
    SplitReport,
    event_from_payload,
    pruned_document,
)
from repro.sharding.ring import HashRing

__all__ = [
    "FleetStatus",
    "GatherResult",
    "RebalanceReport",
    "ShardConfig",
    "ShardCoverageReport",
    "ShardStatus",
    "ShardedKernel",
]

#: The placement journal file under the fleet's base directory.
JOURNAL_FILE = "placements.log"


def _validate_floor(value: float, name: str) -> None:
    """Coverage floors are fractions of the corpus; anything outside
    [0, 1] is a typo that would silently reject (or wave through) every
    gather, so it fails loudly and typed at configuration time."""
    if not 0.0 <= value <= 1.0:
        raise ShardConfigError(
            f"{name} must be a coverage fraction in [0, 1], got {value!r}"
        )


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of one sharded fleet.

    What stays fixed: writes go to the ring owner, replicated shards fence
    by epoch, a cutover fences stale write intents, coverage reports count
    ``migrating`` and ``dual_read``, and stragglers get a hedged backup
    request. Each sub-request is bounded by the request token's deadline.
    """

    #: Fleet-wide coverage floor for gathers (callers override per query).
    #: Zero means "no floor".
    min_coverage: float = 0.25
    #: Replicas per shard (0 = bare kernels, no per-shard failover).
    replication: int = 0
    #: Inert: nothing reads it, and a malformed value is no longer
    #: rejected. A replica read always goes to the least-lagged reachable
    #: replica. Kept only because ``benchmarks/pipeline/fleet.py`` passes
    #: it; ROADMAP item 2 deletes it.
    read_policy: str = "primary"
    #: Consecutive failed probes before a shard's breaker opens.
    failure_threshold: int = 2
    #: Breaker open -> half-open delay (seconds).
    recovery_timeout: float = 30.0
    #: Strictness of the ``scatter`` check stage of :meth:`ShardedKernel.run`:
    #: error | warn | off.
    check: str = "error"
    #: fsync discipline for the shard stores and the placement journal.
    fsync: bool = True
    #: Max pending tail records a migration may carry into cutover
    #: (bounded staleness); above it cutover raises MigrationLagError.
    catchup_lag_floor: int = 0


@dataclass(frozen=True)
class ShardCoverageReport:
    """What one gather reached — the honest-degradation contract.

    ``answered`` shards contributed rows (``hedged`` is the subset that
    answered through a backup request); ``shed`` were skipped by an open
    circuit breaker; ``timed_out`` lost the sub-request to a partition,
    deadline, or unrecovered transient; ``dead`` were known-dead before
    the scatter or died during it. Coverage is measured in documents, not
    shards — losing an empty shard costs nothing — and against the
    documents the gather *targets*: a ``FROM video`` query targets that one
    document, so a shard-local answer from its owner is complete however
    small the owner's share of the corpus.
    """

    plan: str
    targeted: tuple[str, ...]
    answered: tuple[str, ...]
    hedged: tuple[str, ...]
    shed: tuple[str, ...]
    timed_out: tuple[str, ...]
    dead: tuple[str, ...]
    documents_total: int
    documents_covered: int
    #: Documents with a migration in flight at gather time; a split in
    #: progress is a visible, accounted condition, not a silent one.
    migrating: int = 0
    #: Migrating documents answered through their migration counterpart
    #: (destination before cutover, source after) because the owner was
    #: lost — the dual-read window made these covered.
    dual_read: int = 0

    @property
    def fraction(self) -> float:
        """Fraction of the targeted documents the answer covers."""
        if self.documents_total == 0:
            return 1.0
        return self.documents_covered / self.documents_total

    @property
    def complete(self) -> bool:
        return self.documents_covered == self.documents_total

    @property
    def lost(self) -> tuple[str, ...]:
        return tuple(
            sorted(set(self.shed) | set(self.timed_out) | set(self.dead))
        )

    def describe(self) -> str:
        parts = [
            f"coverage {self.fraction:.3f} "
            f"({self.documents_covered}/{self.documents_total} document(s), "
            f"plan {self.plan})",
            f"answered {list(self.answered)}",
        ]
        if self.hedged:
            parts.append(f"hedged {list(self.hedged)}")
        if self.shed:
            parts.append(f"shed {list(self.shed)}")
        if self.timed_out:
            parts.append(f"timed out {list(self.timed_out)}")
        if self.dead:
            parts.append(f"dead {list(self.dead)}")
        if self.migrating:
            parts.append(
                f"migrating {self.migrating} "
                f"(dual-read {self.dual_read})"
            )
        return "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan,
            "targeted": list(self.targeted),
            "answered": list(self.answered),
            "hedged": list(self.hedged),
            "shed": list(self.shed),
            "timed_out": list(self.timed_out),
            "dead": list(self.dead),
            "documents_total": self.documents_total,
            "documents_covered": self.documents_covered,
            "fraction": round(self.fraction, 6),
            "migrating": self.migrating,
            "dual_read": self.dual_read,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardCoverageReport":
        """Rebuild a report from its :meth:`to_dict` form (the JSON
        round-trip a :class:`repro.service.ServiceReport` carries)."""
        return cls(
            plan=payload["plan"],
            targeted=tuple(payload["targeted"]),
            answered=tuple(payload["answered"]),
            hedged=tuple(payload["hedged"]),
            shed=tuple(payload["shed"]),
            timed_out=tuple(payload["timed_out"]),
            dead=tuple(payload["dead"]),
            documents_total=payload["documents_total"],
            documents_covered=payload["documents_covered"],
            migrating=payload.get("migrating", 0),
            dual_read=payload.get("dual_read", 0),
        )


@dataclass
class GatherResult:
    """Per-shard values of one scatter-gather PROC call."""

    values: dict[str, Any]
    coverage: ShardCoverageReport


@dataclass(frozen=True)
class RebalanceReport:
    """Deterministic outcome of one rebalance: (video, from, to) moves."""

    moves: tuple[tuple[str, str, str], ...]
    dead: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "moves": [list(move) for move in self.moves],
            "dead": list(self.dead),
        }


@dataclass(frozen=True)
class ShardStatus:
    """Deterministically comparable snapshot of one shard."""

    name: str
    dead: bool
    documents: int
    replicated: bool
    epoch: int
    failovers: int
    breaker: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dead": self.dead,
            "documents": self.documents,
            "replicated": self.replicated,
            "epoch": self.epoch,
            "failovers": self.failovers,
            "breaker": self.breaker,
        }


@dataclass(frozen=True)
class FleetStatus:
    """Deterministically comparable snapshot of the whole fleet."""

    shards: tuple[ShardStatus, ...]
    documents: int
    fenced_retries: int
    #: Documents with a migration in flight (a split in progress).
    migrating: int = 0
    #: Writes fenced by a cutover and retried on the new owner.
    migration_fenced_retries: int = 0

    def describe(self) -> str:
        lines = [
            f"sharded fleet: {len(self.shards)} shard(s), "
            f"{self.documents} document(s), "
            f"{self.fenced_retries} fenced write retry(ies)"
        ]
        if self.migrating or self.migration_fenced_retries:
            lines.append(
                f"  migrating: {self.migrating} document(s), "
                f"{self.migration_fenced_retries} cutover-fenced "
                f"retry(ies)"
            )
        for status in self.shards:
            flags = []
            if status.dead:
                flags.append("DEAD")
            if status.replicated:
                flags.append(f"epoch {status.epoch}")
            if status.failovers:
                flags.append(f"{status.failovers} failover(s)")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"  {status.name}: {status.documents} document(s), "
                f"breaker {status.breaker}{suffix}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards": [status.to_dict() for status in self.shards],
            "documents": self.documents,
            "fenced_retries": self.fenced_retries,
            "migrating": self.migrating,
            "migration_fenced_retries": self.migration_fenced_retries,
        }


class _Shard:
    """One partition: a durable kernel, optionally a replicated group."""

    def __init__(
        self,
        name: str,
        kernel: MonetKernel,
        group: KernelGroup | None,
        breaker: CircuitBreaker,
    ):
        self.name = name
        self._kernel = kernel
        self.group = group
        self.breaker = breaker
        self.dead = False
        self.lease: Lease | None = group.lease() if group is not None else None
        self._view: MetadataStore | None = None
        self._view_kernel: MonetKernel | None = None

    @property
    def kernel(self) -> MonetKernel:
        """The shard's *current* primary (it changes across failovers)."""
        return self.group.primary if self.group is not None else self._kernel

    def view(self) -> MetadataStore:
        """The shard's metadata view, rebuilt when failover swapped the
        primary (the old view's BAT handles point at the dead kernel)."""
        kernel = self.kernel
        if self._view is None or self._view_kernel is not kernel:
            self._view = MetadataStore(kernel)
            self._view_kernel = kernel
        return self._view


class ShardedKernel:
    """Consistent-hash sharding with partial-failure-tolerant gathers.

    Args:
        base_dir: directory holding one subdirectory per shard (each with
            its durable store and, when replicated, its replica stores)
            plus the fleet's placement journal.
        shards: shard names, or a count (``3`` -> ``shard-0``..``shard-2``).
        faults: injector consulted on the shard transports
            (``sharding.transport:<shard>``), the placement crash points
            (``sharding.place:prepared|registered``) and the journal's
            (``journal.append:*``); the same injector reaches each
            shard's kernel and replication links.
        clock: injectable monotonic clock (breakers, deadlines).
    """

    def __init__(
        self,
        base_dir: str | Path,
        shards: int | Iterable[str] = 3,
        config: ShardConfig | None = None,
        faults: "FaultInjector | FaultPlan | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ShardConfig()
        self._clock = clock
        self.faults = resolve_injector(faults)
        self.base_dir = Path(base_dir)
        if isinstance(shards, int):
            names = [f"shard-{i}" for i in range(shards)]
        else:
            names = list(shards)
        if len(set(names)) != len(names):
            raise ShardingError(f"duplicate shard names in {names}")
        _validate_floor(self.config.min_coverage, "min_coverage")
        if self.config.catchup_lag_floor < 0:
            raise ShardConfigError(
                f"catchup_lag_floor must be >= 0 pending record(s), got "
                f"{self.config.catchup_lag_floor} — a negative lag floor "
                f"would refuse every cutover"
            )
        if self.config.failure_threshold < 1:
            raise ShardConfigError(
                f"failure_threshold must be >= 1 failed probe(s), got "
                f"{self.config.failure_threshold}"
            )

        CheckMode.of(self.config.check)  # a misspelled mode fails here
        #: Findings of :meth:`run`'s scatter stage under ``check="warn"``.
        self.diagnostics: list[Diagnostic] = []

        self._lock = threading.RLock()
        self._journal = RecordLog(
            require_directory(self.base_dir) / JOURNAL_FILE,
            (JOURNAL_MAGIC,),
            "journal",
            faults=self.faults,
            fsync=self.config.fsync,
        )
        # scanned (and a torn tail cut off) before any shard store opens:
        # a file that is not a placement journal fails here, typed
        journaled = self._journal.recover().records
        self._journal.open()
        self.ring = HashRing(names)
        self._shards: dict[str, _Shard] = {
            name: self._build_shard(name) for name in names
        }
        # every shard carries the (possibly empty) meta BATs from birth,
        # so an empty shard and a reference rebuild agree byte-for-byte
        for name in names:
            self._shards[name].view()
        self._seq = 0
        #: video id -> owning shard (the committed placement map).
        self._placements: dict[str, str] = {}
        #: shard -> video ids in journal (= BAT insertion) order, including
        #: documents later moved away; feeds the gather cost model.
        self._placement_order: dict[str, list[str]] = {n: [] for n in names}
        #: shard -> insertion ops in journal (= BAT row) order: ``("doc",
        #: video, event_ids_at_insert)`` for a document landing, ``("event",
        #: video, payload)`` for a late event append. The byte-exact rebuild
        #: recipe for :meth:`convergence_report`.
        self._ops: dict[str, list[tuple[str, str, Any]]] = {
            n: [] for n in names
        }
        #: video id -> (document, domain) handles known to this process.
        self._documents: dict[str, tuple[VideoDocument, str]] = {}
        #: seq -> journaled ``prepare`` that no ``commit`` or ``abort`` has
        #: closed: the registrations in doubt.
        self._prepared: dict[int, dict[str, Any]] = {}
        self._fenced_retries = 0
        #: Advanced by every migration cutover; write intents stamped with
        #: an older epoch fence instead of landing on a stale owner.
        self._routing_epoch = 1
        self._migration_fenced_retries = 0
        #: MIL sources registered for scatter execution; replayed onto
        #: shards added later so a grown fleet still answers scatter calls.
        self._mil_sources: list[str] = []
        #: The online split/migration subsystem (phases, fencing, recovery).
        self.migrations = MigrationCoordinator(self)
        for record in journaled:
            self._apply(record)
        self._resolve_in_doubt()

    def _build_shard(self, name: str) -> _Shard:
        store = DurableStore(
            self.base_dir / name / "primary",
            faults=self.faults,
            fsync=self.config.fsync,
        )
        primary = MonetKernel(
            threads=1, check="off", faults=self.faults, store=store
        )
        group: KernelGroup | None = None
        if self.config.replication > 0:
            group = KernelGroup(
                primary,
                self.base_dir / name,
                replicas=[
                    f"{name}-r{i}" for i in range(self.config.replication)
                ],
                config=GroupConfig(
                    failure_threshold=self.config.failure_threshold,
                    recovery_timeout=self.config.recovery_timeout,
                    fsync=self.config.fsync,
                ),
                faults=self.faults,
                clock=self._clock,
                primary_name=name,
            )
        breaker = CircuitBreaker(
            name=f"sharding.shard:{name}",
            failure_threshold=self.config.failure_threshold,
            recovery_timeout=self.config.recovery_timeout,
            clock=self._clock,
        )
        return _Shard(name, primary, group, breaker)

    # ------------------------------------------------------------------
    # topology accessors
    # ------------------------------------------------------------------
    def shard_names(self) -> list[str]:
        return sorted(self._shards)

    def live_shards(self) -> list[str]:
        return sorted(n for n, s in self._shards.items() if not s.dead)

    def dead_shards(self) -> list[str]:
        return sorted(n for n, s in self._shards.items() if s.dead)

    def shard(self, name: str) -> _Shard:
        try:
            return self._shards[name]
        except KeyError:
            raise ShardingError(
                f"no shard named {name!r} in the fleet "
                f"(have: {sorted(self._shards)})"
            ) from None

    def owner_of(self, video_id: str) -> str:
        """The shard currently owning ``video_id`` (placement map first,
        ring placement for documents not yet registered)."""
        placed = self._placements.get(video_id)
        if placed is not None:
            return placed
        return self.ring.owner(video_id, exclude=self.dead_shards())

    def placements(self) -> dict[str, str]:
        return dict(sorted(self._placements.items()))

    @property
    def fenced_retries(self) -> int:
        return self._fenced_retries

    @property
    def migration_fenced_retries(self) -> int:
        """Writes fenced by a cutover and retried on the new owner."""
        return self._migration_fenced_retries

    def _admit_shard(self, name: str) -> None:
        """Materialize one new shard into the live topology: build its
        kernel (and group), extend the ring, and replay registered
        scatter MIL so the grown fleet still answers scatter calls."""
        self._shards[name] = self._build_shard(name)
        self._shards[name].view()
        self.ring = self.ring.extended(name)
        self._placement_order.setdefault(name, [])
        self._ops.setdefault(name, [])
        for source in self._mil_sources:
            self._fenced_apply(
                self._shards[name], lambda k, s=source: k.run(s)
            )

    # ------------------------------------------------------------------
    # online split / migration (see repro.sharding.migration)
    # ------------------------------------------------------------------
    def add_shard(self, name: str) -> list[str]:
        """Durably add one shard to the live fleet; returns the video
        ids the grown ring remaps onto it."""
        return self.migrations.add_shard(name)

    def split(self, name: str) -> SplitReport:
        """Add shard ``name`` (if absent) and live-migrate every
        remapped document onto it without stopping reads or writes."""
        return self.migrations.split(name)

    def migrate_document(
        self, video_id: str, destination: str | None = None
    ) -> None:
        """Run the full five-phase migration protocol for one document."""
        self.migrations.migrate(video_id, destination)

    def store_event(self, video_id: str, event: VideoEvent) -> str:
        """Append one event to the document's owning shard (the fleet's
        online write path): fenced against concurrent cutovers, retried
        exactly once on the new owner, and — for a document mid-migration
        — appended to the migration's pending tail for catch-up."""
        return self.migrations.store_event(video_id, event)

    def write_intent(self, video_id: str) -> PlacementLease:
        """An epoch-stamped intent to write ``video_id`` later; fences
        when a cutover moves the document first."""
        return self.migrations.write_intent(video_id)

    # ------------------------------------------------------------------
    # two-phase registration
    # ------------------------------------------------------------------
    def register_document(
        self,
        document: VideoDocument,
        domain: str = "default",
        token: CancellationToken | None = None,
    ) -> str:
        """Place and register one document; returns the owning shard.

        The rows land through the two journaled phases of
        :meth:`_place_document`; a crash in either half recovers to a
        consistent placement (an unregistered prepare rolls back, a
        registered one rolls forward). Re-registering a recovered document
        only restores the Python-side handle, mirroring
        :meth:`repro.cobra.metadata.MetadataStore.register_document`.
        ``token`` is checked before the journal sees the document and
        stays ambient while its rows are written.
        """
        video_id = document.raw.video_id
        with cancel_scope(token), self._lock:
            cancel_checkpoint(f"sharding.register:{video_id}")
            if video_id in self._placements:
                # recovered placement: restore the handle, write nothing
                self._documents[video_id] = (document, domain)
                return self._placements[video_id]
            target = self.owner_of(video_id)
            if self.shard(target).dead:
                raise ShardingError(
                    f"owning shard {target!r} is dead; rebalance before "
                    f"registering {video_id!r}"
                )
            self._place_document(target, document, domain)
            self._documents[video_id] = (document, domain)
            return target

    def _place_document(
        self, target: str, document: VideoDocument, domain: str
    ) -> None:
        """The two phases of landing one document on ``target``: journal
        ``prepare``, write the rows inside the shard's WAL transaction,
        journal ``commit`` — registration and rebalance moves alike. The
        ``sharding.place:*`` kill sites sit exactly between the phases, so
        a chaos sweep can crash the fleet in either half."""
        video_id = document.raw.video_id
        prepared = self._log(
            "prepare",
            video=video_id,
            shard=target,
            domain=domain,
            events=list(document.events),
        )
        self.faults.on_call("sharding.place:prepared")
        self._write_document(self.shard(target), document)
        self.faults.on_call("sharding.place:registered")
        self._log("commit", seq=prepared["seq"], video=video_id)

    # ------------------------------------------------------------------
    # the placement journal: append, then apply
    # ------------------------------------------------------------------
    def _log(
        self, op: str, seq: int | None = None, **fields: Any
    ) -> dict[str, Any]:
        """Append one record durably, then let it take effect. ``seq``
        names the record this one continues (a ``commit`` its ``prepare``,
        a migration phase its plan); left out, the record opens a new one."""
        record = {
            "op": op,
            "seq": self._seq + 1 if seq is None else seq,
            **fields,
        }
        self._journal.append(record)
        self._apply(record)
        return record

    def _apply(self, record: dict[str, Any]) -> None:
        """Let one journal record take effect — the only code that changes
        the placement map, the per-shard insertion history, the routing
        epoch, the topology or a migration's state, on the live path and
        in recovery alike. An unknown op is an error, never skipped."""
        op, video_id = record["op"], record.get("video")
        self._seq = max(self._seq, record["seq"])
        active = self.migrations._active
        state = active.get(video_id)
        if op == "prepare":
            self._prepared[record["seq"]] = record
        elif op == "commit":
            # ownership flips *and* the rows are on the shard now
            entry = self._prepared.pop(record["seq"])
            self._placements[video_id] = entry["shard"]
            self._landed(entry["shard"], video_id, entry["events"])
        elif op == "abort":
            del self._prepared[record["seq"]]
        elif op == "add-shard":
            # a fleet reopened at its grown size was handed the name
            if record["shard"] not in self._shards:
                self._admit_shard(record["shard"])
        elif op == "event":
            # a late event row landed on the shard (online write)
            self._ops[record["shard"]].append(("event", video_id, record["event"]))
            if (
                state is not None
                and state.phase == COPIED
                and record["shard"] == state.src
            ):
                state.pending.append(record["event"])
        elif op == "migrate-plan":
            active[video_id] = MigrationState(
                video_id, record["src"], record["dst"], record["seq"]
            )
        elif op == "migrate-copy":
            # insertion order advances on the destination, ownership does
            # not flip until cutover
            self._landed(state.dst, video_id, record["events"])
            state.phase = COPIED
        elif op == "migrate-ship":
            # the head of the pending tail landed on the destination
            self._ops[state.dst].append(("event", video_id, record["event"]))
            del state.pending[:1]
        elif op == "migrate-cutover":
            self._placements[video_id] = state.dst
            self._routing_epoch += 1
            state.phase = CUTOVER
        elif op == "migrate-retire":
            active.pop(video_id).phase = RETIRED
        elif op == "migrate-abort":
            del active[video_id]
        else:
            raise ShardingError(
                f"unknown placement journal op {op!r}: refusing to skip it"
            )

    def _landed(
        self, shard: str, video_id: str, events: Iterable[str]
    ) -> None:
        """(:meth:`_apply` only.) The document's rows landed on ``shard``;
        ``events`` are the event ids present at insertion."""
        self._placement_order[shard].append(video_id)
        self._ops[shard].append(("doc", video_id, tuple(events)))

    def _write_document(self, shard: _Shard, document: VideoDocument) -> None:
        def apply(kernel: MonetKernel) -> None:
            view = shard.view()
            with kernel.transaction():
                view.register_document(document)

        self._fenced_apply(shard, apply)

    def _fenced_apply(
        self, shard: _Shard, fn: Callable[[MonetKernel], Any]
    ) -> Any:
        """Apply a write to the shard — through its group's epoch-fenced
        lease when replicated, retrying exactly once with a fresh lease
        when the cached one was deposed by a shard failover."""
        if shard.group is None:
            return fn(shard.kernel)
        if shard.lease is None:
            shard.lease = shard.group.lease()
        try:
            return shard.lease.write(fn)
        except FencedWriteError:
            # the shard failed over since we leased; re-acquire and retry
            self._fenced_retries += 1
            shard.lease = shard.group.lease()
            return shard.lease.write(fn)

    # ------------------------------------------------------------------
    # scatter-gather reads
    # ------------------------------------------------------------------
    def query(
        self,
        coql: str | CoqlQuery,
        min_coverage: float | None = None,
        token: CancellationToken | None = None,
    ) -> QueryResult:
        """Scatter a COQL query to the owning shards; gather with partial-
        result semantics.

        ``min_coverage`` overrides the fleet's configured floor for this
        call. The result's ``coverage`` report states exactly which shards
        answered and what fraction of the documents the query targets (the
        one a ``FROM video`` names, else all) the records cover; below the
        floor the gather raises
        :class:`repro.errors.InsufficientCoverageError` instead. ``token``
        is checked before each shard sub-request; its expiry or cancellation
        raises instead of counting as a lost shard.
        """
        parsed = parse_coql(coql) if isinstance(coql, str) else coql
        floor = self._resolve_floor(min_coverage)
        with cancel_scope(token), self._lock:
            targets, plan = self._plan_gather(parsed)
            buckets = _GatherBuckets()
            shard_rows: dict[str, list[dict[str, Any]]] = {}
            for name in targets:
                rows = self._gather_one(name, buckets, self._read_thunk(parsed))
                if rows is not None:
                    shard_rows[name] = rows
            records, served, dual_read = self._merge_gather(
                parsed, shard_rows, buckets
            )
            coverage = self._coverage(
                plan,
                targets,
                buckets,
                served=served,
                dual_read=dual_read,
                video=parsed.video,
            )
        records.sort(key=lambda r: (r["video_id"], r["start"]))
        self._enforce_floor(coverage, floor)
        report = PreprocessReport(required_kinds=[parsed.kind])
        return QueryResult(parsed, records, report, coverage=coverage)

    def _resolve_floor(self, min_coverage: float | None) -> float:
        if min_coverage is None:
            return self.config.min_coverage
        _validate_floor(min_coverage, "min_coverage")
        return min_coverage

    def _merge_gather(
        self,
        parsed: CoqlQuery,
        shard_rows: dict[str, list[dict[str, Any]]],
        buckets: "_GatherBuckets",
    ) -> tuple[list[dict[str, Any]], set[str], int]:
        """Merge per-shard answers by *ownership*, with dual reads for
        in-flight migrations.

        During a migration a document's rows exist on two shards (and the
        source's stale rows stay behind after retirement — BATs have no
        deletion), so the merge takes each document's rows from exactly
        one side: its placement owner when that shard answered, else —
        for a migrating document — its migration counterpart, issuing the
        fallback sub-request on demand when the counterpart was not in
        the original fan-out. Source is consulted first by construction:
        before cutover the placement owner *is* the source. Returns the
        merged rows, the set of covered documents, and how many were
        served through a dual read.
        """
        migrating = self.migrations.in_flight()
        for video_id in sorted(migrating):
            owner = self._placements.get(video_id)
            counterpart = self.migrations.counterpart(video_id)
            if owner is None or counterpart is None:
                continue
            if owner in shard_rows or counterpart in shard_rows:
                continue
            if counterpart in buckets.attempted():
                continue  # the fallback side was already lost this gather
            rows = self._gather_one(
                counterpart, buckets, self._read_thunk(parsed)
            )
            if rows is not None:
                shard_rows[counterpart] = rows
        served_via: dict[str, str] = {}
        dual_read = 0
        for video_id, owner in self._placements.items():
            if owner in shard_rows:
                served_via[video_id] = owner
            elif video_id in migrating:
                counterpart = self.migrations.counterpart(video_id)
                if counterpart in shard_rows:
                    served_via[video_id] = counterpart
                    dual_read += 1
        records = [
            row
            for shard_name, rows in shard_rows.items()
            for row in rows
            if served_via.get(row["video_id"]) == shard_name
        ]
        return records, set(served_via), dual_read

    def call(
        self,
        proc: str,
        args: tuple = (),
        token: CancellationToken | None = None,
        min_coverage: float | None = None,
    ) -> GatherResult:
        """Call a MIL PROC on every live shard; gather per-shard values
        under the same partial-failure and cancellation semantics as
        :meth:`query`."""
        floor = self._resolve_floor(min_coverage)
        with cancel_scope(token), self._lock:
            targets = self.live_shards()
            buckets = _GatherBuckets()
            values: dict[str, Any] = {}

            def thunk(shard: _Shard) -> Any:
                return shard.kernel.call(proc, list(args))

            for name in targets:
                value = self._gather_one(name, buckets, thunk)
                if value is not None or name in buckets.answered:
                    values[name] = value
            coverage = self._coverage("fan-out", tuple(targets), buckets)
        self._enforce_floor(coverage, floor)
        return GatherResult(values=values, coverage=coverage)

    def _plan_gather(self, parsed: CoqlQuery) -> tuple[tuple[str, ...], str]:
        if parsed.video is not None:
            owner = self._placements.get(parsed.video)
            if owner is None:
                raise CobraError(f"unknown video {parsed.video!r}")
            return (owner,), "shard-local"
        owned = sorted({shard for shard in self._placements.values()})
        costs = {name: self._scan_cost(name) for name in owned}
        if not costs:
            return (), "shard-local"
        plan: ScatterPlan = choose_scatter_plan(parsed, costs)
        return plan.shards, plan.mode

    def _scan_cost(self, name: str) -> float:
        """Estimated rows a gather scans on one shard: the feature and
        event rows of the documents placed there (the document-awareness
        :func:`repro.check.costcheck.estimate_extraction_cost` applies to
        extraction plans, applied to gather plans)."""
        total = 0.0
        for video_id in self._placement_order[name]:
            if self._placements.get(video_id) != name:
                continue  # moved away by a rebalance
            handle = self._documents.get(video_id)
            if handle is None:
                total += 100.0  # recovered without a handle: nominal scan
                continue
            document = handle[0]
            total += float(
                sum(len(track.values) for track in document.features.values())
            )
            total += float(len(document.events))
        return total

    def _read_thunk(
        self, parsed: CoqlQuery
    ) -> Callable[[_Shard], list[dict[str, Any]]]:
        def thunk(shard: _Shard) -> list[dict[str, Any]]:
            return self._shard_read(shard, parsed)

        return thunk

    def _gather_one(
        self,
        name: str,
        buckets: "_GatherBuckets",
        thunk: Callable[[_Shard], Any],
    ) -> Any:
        """One shard sub-request: breaker, transport faults, hedging, and
        crash handling. Returns the shard's value, or None when the shard
        was lost (its name lands in the right bucket)."""
        site = f"sharding.transport:{name}"
        cancel_checkpoint(site)
        shard = self._shards[name]
        if shard.dead:
            buckets.dead.append(name)
            return None
        try:
            shard.breaker.allow()
        except CircuitOpenError:
            buckets.shed.append(name)
            return None
        try:
            return self._ask_shard(shard, buckets, thunk, site)
        except BaseException:
            # no verdict on the shard (the caller gave up, or an error the
            # gather does not classify): give a half-open probe slot back
            shard.breaker.release_probe()
            raise

    def _ask_shard(
        self, shard: _Shard, buckets: "_GatherBuckets", thunk: Callable[[_Shard], Any], site: str
    ) -> Any:
        """:meth:`_gather_one` past the breaker: records each outcome it classifies."""
        name = shard.name
        hedged = False
        try:
            if self.faults.link_partitioned(site):
                # the link is severed: the request and any hedge are lost
                raise _RequestLost(f"transport to {name} partitioned")
            straggler = self.faults.link_lag(site) > 0
            self.faults.on_call(site)
            if straggler:
                value = self._backup_attempt(shard, thunk)
                hedged = True
            else:
                value = thunk(shard)
        except SimulatedCrash:
            # the shard process died mid-scatter; a replicated shard fails
            # over internally, a bare one is dead until rebalanced
            shard.breaker.record_failure()
            if self._crash_shard(shard):
                buckets.timed_out.append(name)  # this gather lost it anyway
            else:
                buckets.dead.append(name)
            return None
        except (_RequestLost, DeadlineExceeded):
            return self._lost(shard, site, buckets)
        except TransientError:
            # one transient transport fault: hedge a backup request once
            if hedged:
                return self._lost(shard, site, buckets)
            try:
                value = self._backup_attempt(shard, thunk)
                hedged = True
            except (TransientError, ReplicationError, MonetError):
                return self._lost(shard, site, buckets)
        shard.breaker.record_success()
        buckets.answered.append(name)
        if hedged:
            buckets.hedged.append(name)
        return value

    def _lost(self, shard: _Shard, site: str, buckets: "_GatherBuckets") -> None:
        """Count a lost sub-request against the shard, unless the caller
        gave up first (raises); the gather books it as timed out."""
        cancel_checkpoint(site)
        shard.breaker.record_failure()
        buckets.timed_out.append(shard.name)

    def _shard_read(
        self, shard: _Shard, parsed: CoqlQuery
    ) -> list[dict[str, Any]]:
        try:
            return QueryExecutor(shard.view()).execute(parsed)
        except UnknownConceptError:
            # the kind may simply not live on this shard; an empty
            # contribution is a valid answer, not a failure
            return []

    def _backup_attempt(self, shard: _Shard, thunk: Callable[[_Shard], Any]) -> Any:
        """The hedged request: a replica read when the shard is
        replicated, a second primary attempt otherwise."""
        if shard.group is not None:
            routed = shard.group.route_read()
            if routed.replica is not None:
                backup = _Shard(
                    shard.name, routed.kernel, None, shard.breaker
                )
                return thunk(backup)
        return thunk(shard)

    def _crash_shard(self, shard: _Shard) -> bool:
        """Handle a shard process death; True when the shard survived by
        failing over to a replica, False when it is dead."""
        if shard.group is None:
            shard.dead = True
            return False
        shard.group.report_primary_failure()
        try:
            for _ in range(self.config.failure_threshold):
                shard.group.probe()
        except ReplicationError:
            # no reachable replica to promote: the shard is gone
            shard.dead = True
            return False
        if not shard.group.status().primary_healthy:
            shard.dead = True
            return False
        return True

    def _coverage(
        self,
        plan: str,
        targets: tuple[str, ...] | tuple,
        buckets: "_GatherBuckets",
        served: set[str] | None = None,
        dual_read: int = 0,
        video: str | None = None,
    ) -> ShardCoverageReport:
        """Coverage of one gather, measured against the documents it
        targets: the single document a ``FROM video`` query names, every
        placed document otherwise."""
        answered = set(buckets.answered)
        if served is None:
            served = {
                video_id
                for video_id, shard in self._placements.items()
                if shard in answered
            }
        if video is not None:
            total, covered = 1, int(video in served)
        else:
            total, covered = len(self._placements), len(served)
        return ShardCoverageReport(
            plan=plan,
            targeted=tuple(targets),
            answered=tuple(sorted(answered)),
            hedged=tuple(sorted(buckets.hedged)),
            shed=tuple(sorted(buckets.shed)),
            timed_out=tuple(sorted(buckets.timed_out)),
            dead=tuple(sorted(buckets.dead)),
            documents_total=total,
            documents_covered=covered,
            migrating=len(self.migrations.in_flight()),
            dual_read=dual_read,
        )

    def _enforce_floor(
        self, coverage: ShardCoverageReport, floor: float
    ) -> None:
        if coverage.fraction < floor:
            raise InsufficientCoverageError(
                f"gather lost shards {list(coverage.lost)}",
                coverage=coverage.fraction,
                required=floor,
                report=coverage,
            )

    # ------------------------------------------------------------------
    # scatter MIL registration
    # ------------------------------------------------------------------
    def run(self, mil_source: str) -> None:
        """Define MIL source on every live shard for scatter execution.

        Runs the ``scatter`` stage of the pass pipeline first, against the
        first live shard's kernel: the whole-program pass, because
        :meth:`call` targets are cross-proc paths by construction, so
        unresolved targets and uncancellable recursion (``CALLnnn``) must
        be rejected before the source fans out to every shard. Its findings
        land on :attr:`diagnostics`. With no live shard there is no kernel to resolve names
        against and nowhere to run yet: the source is only recorded for
        shards admitted later, whose kernels check it when they replay it.
        """
        from repro.check.pipeline import check_source

        with self._lock:
            mode = CheckMode.of(self.config.check)
            live = self.live_shards()
            if mode.checks and live:
                # a fresh summary cache: a rejected registration must not
                # poison the shard interpreters' live ones
                report = check_source(
                    self._shards[live[0]].kernel.interpreter.check_environment(),
                    mil_source,
                    "<scatter>",
                    stage="scatter",
                )
                self.diagnostics.extend(report.sorted())
                if mode.raises:
                    report.raise_if_errors(
                        "scatter MIL registration", ShardingCheckError
                    )
            self._define_on_shards(mil_source)

    def register_proc(self, mil_source: str) -> list[str]:
        """:meth:`run` under the ``service`` check stage (SVC001 + CALLnnn,
        :func:`repro.check.pipeline.check_service_source`) instead of the
        ``scatter`` one; returns the PROCs' names."""
        from repro.check.pipeline import check_service_source

        with self._lock:
            live = self.live_shards()
            if not live:
                raise ShardingError("no live shard to define service PROCs on")
            names = check_service_source(self._shards[live[0]].kernel, mil_source)
            self._define_on_shards(mil_source)
            return names

    def _define_on_shards(self, mil_source: str) -> None:
        for name in self.live_shards():
            self._fenced_apply(self._shards[name], lambda k: k.run(mil_source))
        # shards added later replay the same sources (_admit_shard)
        self._mil_sources.append(mil_source)

    # ------------------------------------------------------------------
    # failure handling + rebalance
    # ------------------------------------------------------------------
    def mark_dead(self, name: str) -> None:
        """Administratively declare one shard dead (operator decision or
        a failed in-shard failover); its documents are unreachable until
        :meth:`rebalance` moves them."""
        self.shard(name).dead = True

    def rebalance(self) -> RebalanceReport:
        """Move every document owned by a dead shard to its ring
        successor among the live shards.

        Moves take the two-phase registration path
        (:meth:`_place_document`) in original journal order, so the
        destination BAT row order — and therefore the byte-for-byte
        convergence check — is a pure function of the fleet's history.
        Documents whose Python handle is unknown to this process cannot
        be re-registered and raise :class:`PlacementError`.
        """
        with self._lock:
            dead = self.dead_shards()
            moved: list[tuple[str, str, str]] = []
            ordered: list[tuple[str, str]] = []
            for shard_name in dead:
                for video_id in self._placement_order[shard_name]:
                    if self._placements.get(video_id) == shard_name:
                        ordered.append((video_id, shard_name))
            for video_id, src in ordered:
                # a draining service can abort between documents — each
                # move is journaled, so a cancelled rebalance resumes
                cancel_checkpoint(f"sharding.rebalance:{video_id}")
                handle = self._documents.get(video_id)
                if handle is None:
                    raise PlacementError(
                        f"cannot rebalance {video_id!r} off dead shard "
                        f"{src!r}: no document handle in this process to "
                        f"re-register from"
                    )
                document, domain = handle
                dst = self.ring.owner(video_id, exclude=dead)
                self._place_document(dst, document, domain)
                moved.append((video_id, src, dst))
            return RebalanceReport(moves=tuple(moved), dead=tuple(dead))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _resolve_in_doubt(self) -> None:
        """Close what a crash left open once the journal is applied.

        Registrations: a ``prepare`` whose rows reached its shard rolls
        forward (``commit``), one whose rows did not rolls back
        (``abort``). Rows on the shard the document is *already* placed on
        belong to that placement — an earlier attempt the caller retried —
        so such a prepare rolls back too. Migrations: see
        :meth:`MigrationCoordinator.resolve_in_doubt`.
        """
        for seq in sorted(self._prepared):
            entry = self._prepared[seq]
            video_id, shard_name = entry["video"], entry["shard"]
            retried = self._placements.get(video_id) == shard_name
            landed = not retried and self._shard_has_rows(shard_name, video_id)
            self._log("commit" if landed else "abort", seq=seq, video=video_id)
        self.migrations.resolve_in_doubt()

    def _shard_has_rows(self, shard_name: str, video_id: str) -> bool:
        """The test a shard's own re-registration goes by."""
        return self.shard(shard_name).view()._has_rows_for(video_id)

    # ------------------------------------------------------------------
    # maintenance + verification
    # ------------------------------------------------------------------
    def pump(self, rounds: int = 1) -> None:
        """Ship WAL records on every replicated live shard."""
        with self._lock:
            for name in self.live_shards():
                group = self._shards[name].group
                if group is not None:
                    group.pump(rounds=rounds)

    def flush(self) -> None:
        """WAL checkpoint on every live shard, then ship the replicas, so
        a drained fleet is as durable as a drained kernel and its replicas
        have caught up. Returns None: there is no one log whose seqno
        would stand for the fleet's."""
        with self._lock:
            for name in self.live_shards():
                self._shards[name].kernel.checkpoint()
            self.pump()

    def convergence_report(self) -> list[str]:
        """Byte-for-byte divergence of every live shard's metadata.

        Each live shard's ``meta_*`` BATs are compared against a reference
        rebuild — a fresh in-memory kernel fed the shard's insertion ops
        in journal order: each document op registers the document *as it
        looked at insertion time* (late events pruned), each event op
        replays the journaled payload — which reproduces the exact
        insertion sequence through registrations, rebalances, migrations
        and online writes. Each replicated shard additionally runs its
        group's own convergence check. Empty means the placement map, the
        shard catalogs, and the replicas all agree.
        """
        with self._lock:
            failures: list[str] = []
            for name in self.live_shards():
                shard = self._shards[name]
                reference = MonetKernel(threads=1, check="off")
                view = MetadataStore(reference)
                for op, video_id, detail in self._ops[name]:
                    if op == "doc":
                        handle = self._documents.get(video_id)
                        if handle is None:
                            failures.append(
                                f"{name}: no document handle for "
                                f"{video_id!r}; cannot rebuild the "
                                f"reference catalog"
                            )
                            continue
                        view.register_document(
                            pruned_document(handle[0], detail)
                        )
                    else:
                        view.append_events(
                            video_id, [event_from_payload(detail)]
                        )
                expected = {
                    bat_name: bat
                    for bat_name, bat in reference.snapshot().items()
                    if bat_name.startswith("meta_")
                }
                actual = {
                    bat_name: bat
                    for bat_name, bat in shard.kernel.snapshot().items()
                    if bat_name.startswith("meta_")
                }
                failures.extend(
                    f"{name}: {message}"
                    for message in compare_catalogs(expected, actual)
                )
                if shard.group is not None:
                    failures.extend(
                        f"{name}: {message}"
                        for message in shard.group.convergence_report()
                    )
            for video_id, shard_name in sorted(self._placements.items()):
                if self._shards[shard_name].dead:
                    failures.append(
                        f"placement map routes {video_id!r} to dead shard "
                        f"{shard_name!r}; rebalance has not run"
                    )
            return failures

    def status(self) -> FleetStatus:
        with self._lock:
            shards = tuple(
                ShardStatus(
                    name=name,
                    dead=shard.dead,
                    documents=sum(
                        1
                        for video_id, owner in self._placements.items()
                        if owner == name
                    ),
                    replicated=shard.group is not None,
                    epoch=(
                        shard.group.epoch if shard.group is not None else 1
                    ),
                    failovers=(
                        len(shard.group.failovers)
                        if shard.group is not None
                        else 0
                    ),
                    breaker=shard.breaker.state,
                )
                for name, shard in sorted(self._shards.items())
            )
            return FleetStatus(
                shards=shards,
                documents=len(self._placements),
                fenced_retries=self._fenced_retries,
                migrating=len(self.migrations.in_flight()),
                migration_fenced_retries=self._migration_fenced_retries,
            )

    def close(self) -> None:
        """Release the journal's handle and every shard's WAL handles
        (groups close their own)."""
        with self._lock:
            self._journal.close()
            for _, shard in sorted(self._shards.items()):
                if shard.group is not None:
                    shard.group.close()
                else:
                    shard.kernel.close()


class _GatherBuckets:
    """Mutable per-gather shard outcome buckets."""

    def __init__(self) -> None:
        self.answered: list[str] = []
        self.hedged: list[str] = []
        self.shed: list[str] = []
        self.timed_out: list[str] = []
        self.dead: list[str] = []

    def attempted(self) -> set[str]:
        """Shards this gather already tried (any outcome) — a dual read
        must not re-request a shard that was just lost."""
        return set(self.answered) | set(self.shed) | set(
            self.timed_out
        ) | set(self.dead)


class _RequestLost(TransientError):
    """Internal: a shard sub-request was lost to the transport."""
