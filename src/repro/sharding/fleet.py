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
  an optional per-shard deadline;
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

Document registration is **two-phase** and WAL-journaled: a ``prepare``
record lands in the fleet's placement journal, the rows land on the
owning shard (inside that shard's own WAL transaction), then a ``commit``
record seals the placement. A crash between the phases
(``sharding.place:prepared`` / ``sharding.place:registered`` kill sites)
recovers to a consistent placement: a prepared-but-unregistered document
rolls back, a registered-but-uncommitted one rolls forward. Marking a
shard dead triggers deterministic rebalancing — its documents move to
their ring successors in journal order, so two fleets replaying the same
history agree byte-for-byte (:meth:`ShardedKernel.convergence_report`).

Construction runs the :mod:`repro.check.shardcheck` static pass
(SHARD001-SHARD003) under the configured check mode; MIL registered for
scatter execution (:meth:`ShardedKernel.run`) additionally runs SHARD004.
The transport is simulated in-process — shards are kernels, not sockets —
which is exactly what makes every disaster here a seeded, replayable test.
"""

from __future__ import annotations

import json
import os
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
from repro.durability.chaos import compare_catalogs
from repro.durability.store import DurableStore
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
from repro.monet.kernel import MonetKernel
from repro.replication.group import GroupConfig, KernelGroup, Lease
from repro.resilience import CircuitBreaker, Deadline, cancel_checkpoint
from repro.sharding.migration import (
    MigrationCoordinator,
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
    """Configuration of one sharded fleet."""

    #: Fleet-wide coverage floor for gathers (callers override per query).
    #: Zero means "no floor" and is flagged SHARD002.
    min_coverage: float = 0.25
    #: Where writes route; anything but "owner" is SHARD001.
    write_routing: str = "owner"
    #: Replicas per shard (0 = bare kernels, no per-shard failover).
    replication: int = 0
    #: Epoch fencing on the per-shard groups (SHARD003 when off).
    fencing: bool = True
    #: Read policy of the per-shard groups (primary | any | bounded(ms)).
    read_policy: str = "primary"
    #: Consecutive failed probes before a shard's breaker opens.
    failure_threshold: int = 2
    #: Breaker open -> half-open delay (seconds).
    recovery_timeout: float = 30.0
    #: Per-shard sub-request budget in seconds; None = no wall-clock bound
    #: (the deterministic default — chaos classifies losses by fault kind).
    shard_deadline: float | None = None
    #: Issue hedged backup requests for stragglers and transient losses.
    hedge: bool = True
    #: Virtual nodes per shard on the placement ring.
    vnodes: int = 32
    #: Strictness of the SHARD static pass: error | warn | off.
    check: str = "error"
    #: fsync discipline for the shard stores and the placement journal.
    fsync: bool = True
    #: Max pending tail records a migration may carry into cutover
    #: (bounded staleness); above it cutover raises MigrationLagError.
    catchup_lag_floor: int = 0
    #: Count in-flight migrations and dual reads on coverage reports
    #: (SHARD005 when off: mid-migration degradation turns invisible).
    migration_accounting: bool = True
    #: Epoch-fence stale write intents after a cutover (SHARD006 when
    #: off: a stale source shard accepts writes no gather will read).
    migration_fencing: bool = True


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


class _PlacementJournal:
    """Append-only JSON-lines journal of two-phase placement records."""

    def __init__(self, path: Path, fsync: bool = True):
        self.path = path
        self._fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())

    def records(self) -> list[dict[str, Any]]:
        """Every journaled record in order; a torn tail line (the crash
        landed mid-append) is discarded, exactly like a torn WAL tail."""
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                break
        return out


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
            (``sharding.transport:<shard>``) and the placement crash
            points (``sharding.place:prepared|registered``); the same
            injector reaches each shard's kernel and replication links.
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

        # static vetting of the configuration (SHARD001-SHARD003)
        from repro.check.shardcheck import check_fleet_config

        mode = CheckMode.of(self.config.check)
        #: SHARD findings collected at construction (empty with check="off").
        self.diagnostics: list[Diagnostic] = []
        if mode.checks:
            report = check_fleet_config(self.config, names)
            self.diagnostics = report.sorted()
            if mode.raises:
                report.raise_if_errors(
                    "sharded fleet configuration", ShardingCheckError
                )

        self._lock = threading.RLock()
        self.ring = HashRing(names, vnodes=self.config.vnodes)
        self._shards: dict[str, _Shard] = {
            name: self._build_shard(name) for name in names
        }
        # every shard carries the (possibly empty) meta BATs from birth,
        # so an empty shard and a reference rebuild agree byte-for-byte
        for name in names:
            self._shards[name].view()
        self._journal = _PlacementJournal(
            self.base_dir / JOURNAL_FILE, fsync=self.config.fsync
        )
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
        self._recover_placements()

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
                    read_policy=self.config.read_policy,
                    fencing=self.config.fencing,
                    failure_threshold=self.config.failure_threshold,
                    recovery_timeout=self.config.recovery_timeout,
                    fsync=self.config.fsync,
                    check=self.config.check,
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
        self, document: VideoDocument, domain: str = "default"
    ) -> str:
        """Place and register one document; returns the owning shard.

        Phase 1 journals the intended placement (``prepare``) and lands
        the rows on the owning shard inside that shard's WAL transaction;
        phase 2 seals the placement (``commit``). The two
        ``sharding.place:*`` kill sites sit exactly between the phases, so
        the chaos sweep can crash the fleet in either half and recovery
        must converge (roll back an unregistered prepare, roll forward a
        registered one). Re-registering a recovered document only restores
        the Python-side handle, mirroring
        :meth:`repro.cobra.metadata.MetadataStore.register_document`.
        """
        video_id = document.raw.video_id
        with self._lock:
            if video_id in self._placements:
                # recovered placement: restore the handle, write nothing
                self._documents[video_id] = (document, domain)
                return self._placements[video_id]
            if self.config.write_routing == "owner":
                target = self.ring.owner(video_id, exclude=self.dead_shards())
            else:
                # SHARD001 rejects this routing; honoring it under
                # check="off"/"warn" demonstrates the hazard it names
                if self.config.write_routing not in self._shards:
                    raise PlacementError(
                        f"write_routing {self.config.write_routing!r} names "
                        f"no shard in the fleet"
                    )
                target = self.config.write_routing
            shard = self.shard(target)
            if shard.dead:
                raise ShardingError(
                    f"owning shard {target!r} is dead; rebalance before "
                    f"registering {video_id!r}"
                )
            self._seq += 1
            seq = self._seq
            event_ids = tuple(document.events)
            self._journal.append(
                {
                    "op": "prepare",
                    "seq": seq,
                    "video": video_id,
                    "shard": target,
                    "domain": domain,
                    "events": list(event_ids),
                }
            )
            self.faults.on_call("sharding.place:prepared")
            self._write_document(shard, document)
            self.faults.on_call("sharding.place:registered")
            self._journal.append(
                {"op": "commit", "seq": seq, "video": video_id}
            )
            self._place(video_id, target, event_ids)
            self._documents[video_id] = (document, domain)
            return target

    def _place(
        self,
        video_id: str,
        shard: str,
        events: tuple[str, ...] | None = None,
    ) -> None:
        """Commit a placement: ownership flips *and* the document's rows
        land on ``shard`` now. ``events`` is the event-id set present at
        insertion (None for legacy journal records: all handle events)."""
        self._placements[video_id] = shard
        self._placement_order[shard].append(video_id)
        self._ops[shard].append(("doc", video_id, events))

    def _record_copy(
        self, shard: str, video_id: str, events: tuple[str, ...]
    ) -> None:
        """A migration copy landed the document's rows on ``shard`` —
        insertion order advances, but ownership does *not* flip until
        cutover (the placement map still names the source)."""
        self._placement_order[shard].append(video_id)
        self._ops[shard].append(("doc", video_id, events))

    def _record_event(
        self, shard: str, video_id: str, payload: Mapping[str, Any]
    ) -> None:
        """A late event row landed on ``shard`` (online write or
        catch-up shipment)."""
        self._ops[shard].append(("event", video_id, dict(payload)))

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
        token: Any = None,
    ) -> QueryResult:
        """Scatter a COQL query to the owning shards; gather with partial-
        result semantics.

        ``min_coverage`` overrides the fleet's configured floor for this
        call. The result's ``coverage`` report states exactly which shards
        answered and what fraction of the documents the query targets (the
        one a ``FROM video`` names, else all) the records cover; below the
        floor the gather raises
        :class:`repro.errors.InsufficientCoverageError` instead.
        """
        parsed = parse_coql(coql) if isinstance(coql, str) else coql
        floor = self._resolve_floor(min_coverage)
        with self._lock:
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

    def scatter_call(
        self,
        proc: str,
        args: tuple = (),
        min_coverage: float | None = None,
    ) -> GatherResult:
        """Call a MIL PROC on every live shard; gather per-shard values
        under the same partial-failure semantics as :meth:`query`."""
        floor = self._resolve_floor(min_coverage)
        with self._lock:
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
        """One shard sub-request: breaker, transport faults, deadline,
        hedging, and crash handling. Returns the shard's value, or None
        when the shard was lost (its name lands in the right bucket)."""
        shard = self._shards[name]
        if shard.dead:
            buckets.dead.append(name)
            return None
        try:
            shard.breaker.allow()
        except CircuitOpenError:
            buckets.shed.append(name)
            return None
        site = f"sharding.transport:{name}"
        deadline = (
            Deadline(self.config.shard_deadline, clock=self._clock)
            if self.config.shard_deadline is not None
            else None
        )
        hedged = False
        try:
            if self.faults.link_partitioned(site):
                # the link is severed: the request and any hedge are lost
                raise _RequestLost(f"transport to {name} partitioned")
            straggler = self.faults.link_lag(site) > 0
            self.faults.on_call(site)
            if straggler and self.config.hedge:
                value = self._backup_attempt(shard, thunk)
                hedged = True
            else:
                value = thunk(shard)
            if deadline is not None and deadline.expired:
                raise _RequestLost(f"shard {name} answered past the deadline")
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
            shard.breaker.record_failure()
            buckets.timed_out.append(name)
            return None
        except TransientError:
            # one transient transport fault: hedge a backup request once
            if self.config.hedge and not hedged:
                try:
                    value = self._backup_attempt(shard, thunk)
                    hedged = True
                except (TransientError, ReplicationError, MonetError):
                    shard.breaker.record_failure()
                    buckets.timed_out.append(name)
                    return None
            else:
                shard.breaker.record_failure()
                buckets.timed_out.append(name)
                return None
        shard.breaker.record_success()
        buckets.answered.append(name)
        if hedged:
            buckets.hedged.append(name)
        return value

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
            routed = shard.group.route_read(policy="any")
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
        accounting = self.config.migration_accounting
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
            migrating=len(self.migrations.in_flight()) if accounting else 0,
            dual_read=dual_read if accounting else 0,
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
        first live shard's kernel. SHARD004: certified fusion regions inside
        ``PARALLEL`` branches are de-certified by scattering, and the
        finding (advisory) lands on :attr:`diagnostics`. The whole-program
        pass follows — ``scatter_call`` targets are cross-proc paths by
        construction, so unresolved targets and uncancellable recursion
        (``CALLnnn``) must be rejected before the source fans out to every
        shard. With no live shard there is no kernel to resolve names
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
            for name in live:
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

        Moves replay the two-phase registration path (journal prepare →
        shard write → journal commit) in original journal order, so the
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
                target = self.shard(dst)
                self._seq += 1
                seq = self._seq
                event_ids = tuple(document.events)
                self._journal.append(
                    {
                        "op": "prepare",
                        "seq": seq,
                        "video": video_id,
                        "shard": dst,
                        "domain": domain,
                        "events": list(event_ids),
                    }
                )
                self._write_document(target, document)
                self._journal.append(
                    {"op": "commit", "seq": seq, "video": video_id}
                )
                self._place(video_id, dst, event_ids)
                moved.append((video_id, src, dst))
            return RebalanceReport(moves=tuple(moved), dead=tuple(dead))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover_placements(self) -> None:
        """Rebuild the placement map from the journal, resolving in-doubt
        registrations *and* migrations.

        Registrations: a prepare whose rows reached the owning shard
        rolls forward (the commit record is re-appended), one whose rows
        did not rolls back (an abort record keeps the audit trail).

        Migrations: every record of the protocol replays in order —
        topology growth (``add-shard``), copies (ops + insertion order on
        the destination), shipped tail records, cutovers (ownership flip
        + routing epoch). A migration left in doubt by a crash is then
        handed to :meth:`MigrationCoordinator.resolve_in_doubt`: rolled
        back before the copy point, rolled forward — healed, cut over,
        verified, retired — after it.
        """
        committed: set[str] = set()
        prepared: dict[int, dict[str, Any]] = {}
        migrations: dict[str, dict[str, Any]] = {}
        records = self._journal.records()
        for record in records:
            self._seq = max(self._seq, int(record.get("seq", 0)))
            op = record["op"]
            if op == "prepare":
                prepared[record["seq"]] = record
            elif op == "commit":
                entry = prepared.pop(record["seq"], None)
                if entry is not None:
                    events = entry.get("events")
                    self._place(
                        entry["video"],
                        entry["shard"],
                        tuple(events) if events is not None else None,
                    )
                    committed.add(entry["video"])
            # "abort" records need no replay: the prepare they close was
            # already popped rolled-back state on the crashed run
            elif op == "abort":
                prepared.pop(record["seq"], None)
            elif op == "add-shard":
                if record["shard"] not in self._shards:
                    self._admit_shard(record["shard"])
            elif op == "event":
                self._record_event(
                    record["shard"], record["video"], record["event"]
                )
                entry = migrations.get(record["video"])
                if (
                    entry is not None
                    and entry["phase"] == "copied"
                    and record["shard"] == entry["src"]
                ):
                    entry["pending"].append(record["event"])
            elif op == "migrate-plan":
                migrations[record["video"]] = {
                    "seq": record["seq"],
                    "src": record["src"],
                    "dst": record["dst"],
                    "phase": "planned",
                    "pending": [],
                }
            elif op == "migrate-copy":
                entry = migrations[record["video"]]
                entry["phase"] = "copied"
                self._record_copy(
                    entry["dst"],
                    record["video"],
                    tuple(record.get("events") or ()),
                )
            elif op == "migrate-ship":
                entry = migrations[record["video"]]
                self._record_event(
                    entry["dst"], record["video"], record["event"]
                )
                if entry["pending"]:
                    entry["pending"].pop(0)
            elif op == "migrate-cutover":
                entry = migrations[record["video"]]
                entry["phase"] = "cutover"
                self._placements[record["video"]] = entry["dst"]
                self._routing_epoch += 1
            elif op in ("migrate-retire", "migrate-abort"):
                migrations.pop(record["video"], None)
        for seq in sorted(prepared):
            entry = prepared[seq]
            video_id, shard_name = entry["video"], entry["shard"]
            if video_id in committed:
                continue  # a later registration superseded this prepare
            events = entry.get("events")
            if self._shard_has_rows(shard_name, video_id):
                self._journal.append(
                    {"op": "commit", "seq": seq, "video": video_id}
                )
                self._place(
                    video_id,
                    shard_name,
                    tuple(events) if events is not None else None,
                )
            else:
                self._journal.append(
                    {"op": "abort", "seq": seq, "video": video_id}
                )
        for video_id in sorted(migrations):
            self.migrations.resolve_in_doubt(video_id, migrations[video_id])

    def _shard_has_rows(self, shard_name: str, video_id: str) -> bool:
        kernel = self.shard(shard_name).kernel
        for bat_name in ("meta_event_video_id", "meta_object_video_id"):
            try:
                if kernel.bat(bat_name).tail_exists(video_id):
                    return True
            except MonetError:
                continue
        return False

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

    def checkpoint(self) -> dict[str, int]:
        """WAL checkpoint on every live shard; shard -> seqno."""
        with self._lock:
            return {
                name: self._shards[name].kernel.checkpoint()
                for name in self.live_shards()
            }

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
                        view._store_event(
                            video_id, event_from_payload(detail)
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
        """Release every shard's WAL handles (groups close their own)."""
        with self._lock:
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
