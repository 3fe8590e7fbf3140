"""The replicated kernel group: primary + WAL-shipping read replicas.

A :class:`KernelGroup` fronts one durable primary :class:`MonetKernel` and
N :class:`Replica` instances. :meth:`pump` ships each replica the WAL
records (or a full checkpoint catch-up) it is missing, consulting the
fault injector per replica link — ``kind="partition"`` severs a link for a
round, ``kind="lag"`` withholds the newest records — so the chaos harness
can drive the group through the regimes the routing and failover logic
must survive.

A read goes to the least-lagged reachable replica, else the primary;
writes go through epoch-stamped :class:`Lease` credentials so a deposed
primary's late writes are *fenced*: after :meth:`failover` bumps the group
epoch, any write presented under the old epoch raises
:class:`repro.errors.FencedWriteError` instead of forking the lineage.
Primary health is probed through a :class:`repro.resilience.CircuitBreaker`;
once it opens, the least-lagged reachable replica is promoted through the
normal durability path (its applied state becomes a fresh checkpointed
store) and the survivors re-seed from the new lineage on their next pump.

Writes always go to the primary and always pass the epoch fence; a breaker
that opens always promotes. None of it is configurable, so nothing checks
a configuration: a :class:`GroupConfig` the constructor accepts is valid.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import (
    FencedWriteError,
    ReplicationError,
    ReproError,
    SimulatedCrash,
)
from repro.faults import FaultInjector, FaultPlan, resolve_injector
from repro.monet.bat import compare_catalogs
from repro.monet.kernel import MonetKernel
from repro.replication.link import ReplicationLink
from repro.replication.replica import Replica
from repro.resilience import CircuitBreaker

__all__ = [
    "FailoverEvent",
    "GroupConfig",
    "GroupStatus",
    "KernelGroup",
    "Lease",
    "ReplicaStatus",
    "RoutedRead",
]


@dataclass(frozen=True)
class GroupConfig:
    """Configuration of one kernel group."""

    #: Consecutive failed probes before the breaker opens -> failover.
    failure_threshold: int = 2
    #: Breaker open -> half-open delay (seconds).
    recovery_timeout: float = 30.0
    #: fsync discipline for stores created by promotion.
    fsync: bool = True


@dataclass(frozen=True)
class FailoverEvent:
    """One completed promotion."""

    epoch: int  # the new epoch the promotion established
    deposed: str
    promoted: str
    promoted_lag: int  # the winner's lag (records) at promotion time


@dataclass(frozen=True)
class ReplicaStatus:
    """Point-in-time view of one replica."""

    name: str
    lag_records: int
    partitioned: bool
    snapshots_installed: int
    records_applied: int
    has_pending: bool


@dataclass(frozen=True)
class GroupStatus:
    """Deterministically comparable snapshot of the whole group."""

    epoch: int
    primary: str
    primary_healthy: bool
    fenced_writes: int
    failovers: tuple[FailoverEvent, ...]
    replicas: tuple[ReplicaStatus, ...]
    reads: tuple[tuple[str, int], ...]


@dataclass
class RoutedRead:
    """Where one read was routed."""

    node: str
    is_primary: bool
    kernel: MonetKernel
    replica: Replica | None = None


class Lease:
    """An epoch-stamped write credential.

    Issued by :meth:`KernelGroup.lease` against the current primary and
    epoch; every write presented through :meth:`write` is checked against
    the group's *current* epoch, so a lease held across a failover fences
    instead of writing to (or as) a deposed primary.
    """

    __slots__ = ("_group", "epoch", "holder")

    def __init__(self, group: "KernelGroup", epoch: int, holder: str):
        self._group = group
        self.epoch = epoch
        self.holder = holder

    def write(self, fn: Callable[[MonetKernel], Any]) -> Any:
        return self._group.fenced_write(self, fn)


class KernelGroup:
    """One primary plus N WAL-shipping read replicas.

    Args:
        primary: a durable kernel (``store=...`` is required — replication
            ships the store's WAL, so a store-less primary has nothing to
            replicate).
        base_dir: directory under which each replica gets a subdirectory
            for its (promotion-time) durable store.
        replicas: replica names, or a count (``2`` -> ``replica-0``,
            ``replica-1``).
        faults: injector consulted on the replica links
            (``replication.link:<name>``) and the health probe
            (``replication.probe:<primary>``); defaults to sharing the
            primary's injector so one plan drives the whole group.
        clock: injectable monotonic clock (breaker timing).
    """

    def __init__(
        self,
        primary: MonetKernel,
        base_dir: str | Path,
        replicas: int | Iterable[str] = 2,
        config: GroupConfig | None = None,
        faults: "FaultInjector | FaultPlan | None" = None,
        clock: Callable[[], float] = time.monotonic,
        primary_name: str = "primary",
    ):
        if primary.store is None:
            raise ReplicationError(
                "replication requires a durable primary: construct the "
                "kernel with store=<directory> so its WAL can be shipped"
            )
        self.config = config or GroupConfig()
        self._clock = clock
        self.faults = (
            primary.faults if faults is None else resolve_injector(faults)
        )
        self.base_dir = Path(base_dir)
        if isinstance(replicas, int):
            names = [f"replica-{i}" for i in range(replicas)]
        else:
            names = list(replicas)
        if len(set(names)) != len(names):
            raise ReplicationError(f"duplicate replica names in {names}")

        self._lock = threading.RLock()
        self._epoch = 1
        self._primary = primary
        self._primary_name = primary_name
        self._primary_dead = False
        self._link = ReplicationLink(primary.store.path)
        self._replicas: dict[str, Replica] = {
            name: Replica(name, self.base_dir / name) for name in names
        }
        self._breaker = self._new_breaker(primary_name)
        self._fenced_writes = 0
        self._failovers: list[FailoverEvent] = []
        self._reads: dict[str, int] = {}

    def _new_breaker(self, primary_name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name=f"replication.primary:{primary_name}",
            failure_threshold=self.config.failure_threshold,
            recovery_timeout=self.config.recovery_timeout,
            clock=self._clock,
        )

    # ------------------------------------------------------------------
    # topology accessors
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def primary(self) -> MonetKernel:
        return self._primary

    @property
    def primary_name(self) -> str:
        return self._primary_name

    @property
    def failovers(self) -> list[FailoverEvent]:
        return list(self._failovers)

    @property
    def fenced_writes(self) -> int:
        return self._fenced_writes

    def replica(self, name: str) -> Replica:
        try:
            return self._replicas[name]
        except KeyError:
            raise ReplicationError(
                f"no replica named {name!r} in the group "
                f"(have: {sorted(self._replicas)})"
            ) from None

    def replica_names(self) -> list[str]:
        return sorted(self._replicas)

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def pump(self, rounds: int = 1) -> None:
        """Ship each replica the records it is missing, ``rounds`` times.

        Each replica link is an independent fault site
        (``replication.link:<name>``): a firing ``partition`` spec drops
        the round's whole shipment, a ``lag`` spec withholds its newest
        ``factor`` records. Admin partitions (:meth:`partition`) sever the
        link until :meth:`heal`.
        """
        with self._lock:
            for _ in range(rounds):
                self._pump_once()

    def _pump_once(self) -> None:
        for name in sorted(self._replicas):
            replica = self._replicas[name]
            site = f"replication.link:{name}"
            if replica.partitioned or self.faults.link_partitioned(site):
                replica.lag_records = self._link.backlog(
                    replica.position, self._epoch
                )
                continue
            withhold = self.faults.link_lag(site)
            shipment = self._link.fetch(
                replica.position, self._epoch, withhold=withhold
            )
            replica.apply_shipment(shipment)
            replica.lag_records = shipment.remaining

    def partition(self, name: str) -> None:
        """Administratively sever one replica's link until :meth:`heal`."""
        self.replica(name).partitioned = True

    def heal(self, name: str) -> None:
        """Restore a severed link; the next pump catches the replica up."""
        self.replica(name).partitioned = False

    # ------------------------------------------------------------------
    # read routing
    # ------------------------------------------------------------------
    def route_read(self) -> RoutedRead:
        """Pick the node one read should execute on: the least-lagged
        reachable replica, else the primary. With no replica reachable and
        the primary down, :class:`ReplicationError`."""
        with self._lock:
            best = self._least_lagged()
            if best is not None:
                return self._route_replica(best)
            return self._route_primary()

    def _least_lagged(self) -> Replica | None:
        """The reachable replica with the fewest unconsumed records (name
        breaks ties), or None when every replica is partitioned."""
        reachable = [r for r in self._replicas.values() if not r.partitioned]
        return min(reachable, key=lambda r: (r.lag_records, r.name), default=None)

    def _route_primary(self) -> RoutedRead:
        if self._primary_dead:
            raise ReplicationError(
                f"primary {self._primary_name!r} is down and failover has "
                f"not completed"
            )
        self._reads[self._primary_name] = (
            self._reads.get(self._primary_name, 0) + 1
        )
        return RoutedRead(self._primary_name, True, self._primary)

    def _route_replica(self, replica: Replica) -> RoutedRead:
        self._reads[replica.name] = self._reads.get(replica.name, 0) + 1
        return RoutedRead(replica.name, False, replica.kernel, replica)

    # ------------------------------------------------------------------
    # fenced writes
    # ------------------------------------------------------------------
    def lease(self) -> Lease:
        """An epoch-stamped write credential for the current primary."""
        with self._lock:
            return Lease(self, self._epoch, self._primary_name)

    def fenced_write(
        self, lease: Lease, fn: Callable[[MonetKernel], Any]
    ) -> Any:
        """Apply ``fn`` to the primary iff ``lease`` is of the current epoch.

        A stale-epoch lease (held across a failover — the deposed primary's
        "late write") raises :class:`FencedWriteError` and is counted, so
        the convergence report can assert zero such writes were accepted.
        """
        with self._lock:
            if lease.epoch != self._epoch:
                self._fenced_writes += 1
                raise FencedWriteError(
                    f"write by {lease.holder!r} rejected by epoch fence",
                    lease_epoch=lease.epoch,
                    group_epoch=self._epoch,
                )
            kernel = self._primary
        return fn(kernel)

    # ------------------------------------------------------------------
    # health + failover
    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """One health probe of the primary, through the circuit breaker.

        The probe is a fault site (``replication.probe:<primary>``), so a
        chaos plan can fail it directly; a primary marked dead (its write
        path raised :class:`SimulatedCrash`) always fails. Once
        ``failure_threshold`` consecutive probes fail the breaker opens
        and the least-lagged reachable replica is promoted.
        """
        with self._lock:
            site = f"replication.probe:{self._primary_name}"
            healthy = False
            if not self._primary_dead:
                try:
                    self.faults.on_call(site)
                    self._primary.catalog_names()
                    healthy = True
                except SimulatedCrash:
                    self._primary_dead = True
                except ReproError:
                    pass
            if healthy:
                self._breaker.record_success()
                return True
            self._breaker.record_failure()
            if self._breaker.state == CircuitBreaker.OPEN and self._replicas:
                self.failover()
            return False

    def report_primary_failure(self) -> None:
        """Tell the group the primary's write path crashed (the caller saw
        :class:`SimulatedCrash` or equivalent); probes will now fail."""
        with self._lock:
            self._primary_dead = True

    def failover(self) -> str:
        """Promote the least-lagged reachable replica to primary.

        Runs a final pump first: shipping reads only the deposed primary's
        *durable* bytes, so everything that survived on disk — and nothing
        that did not — reaches the replicas before the winner is chosen.
        An uncommitted batch left by a mid-commit crash stays pending and
        is discarded by promotion, exactly as crash recovery would discard
        it. The group epoch then increments: in-flight leases fence, and
        the surviving replicas re-seed from the new lineage (their
        position's epoch no longer matches) on their next pump.
        """
        with self._lock:
            self._primary_dead = True
            self._pump_once()
            chosen = self._least_lagged()
            if chosen is None:
                raise ReplicationError(
                    "no reachable replica to promote (all partitioned or "
                    "none configured)"
                )
            del self._replicas[chosen.name]
            deposed_kernel = self._primary
            deposed_name = self._primary_name
            promoted = chosen.promote(fsync=self.config.fsync)
            # the dead "process" is abandoned; release its WAL handle (the
            # kill is simulated in-process, the descriptor would leak)
            deposed_kernel.close()
            self._epoch += 1
            self._primary = promoted
            self._primary_name = chosen.name
            self._primary_dead = False
            self._link = ReplicationLink(promoted.store.path)
            self._breaker = self._new_breaker(chosen.name)
            self._failovers.append(
                FailoverEvent(
                    epoch=self._epoch,
                    deposed=deposed_name,
                    promoted=chosen.name,
                    promoted_lag=chosen.lag_records,
                )
            )
            return chosen.name

    # ------------------------------------------------------------------
    # verification + status
    # ------------------------------------------------------------------
    def convergence_report(self) -> list[str]:
        """Byte-for-byte divergence between the primary and every replica.

        Empty when every replica's applied catalog matches the primary's
        (structurally and on the numeric tail bytes) and no shipped PROC
        is missing. Replicas are expected to have been pumped to lag 0
        first; a lagging replica reports its divergence, which is the
        point.
        """
        with self._lock:
            expected = self._primary.snapshot()
            expected_procs = set(self._primary.procedures())
            failures: list[str] = []
            for name in sorted(self._replicas):
                replica = self._replicas[name]
                failures.extend(
                    f"{name}: {message}"
                    for message in compare_catalogs(expected, replica.catalog())
                )
                missing = expected_procs - set(replica.kernel.procedures())
                if missing:
                    failures.append(
                        f"{name}: shipped PROC(s) missing: {sorted(missing)}"
                    )
            return failures

    def status(self) -> GroupStatus:
        with self._lock:
            replicas = tuple(
                ReplicaStatus(
                    name=name,
                    lag_records=replica.lag_records,
                    partitioned=replica.partitioned,
                    snapshots_installed=replica.snapshots_installed,
                    records_applied=replica.records_applied,
                    has_pending=replica.has_pending,
                )
                for name, replica in sorted(self._replicas.items())
            )
            return GroupStatus(
                epoch=self._epoch,
                primary=self._primary_name,
                primary_healthy=not self._primary_dead,
                fenced_writes=self._fenced_writes,
                failovers=tuple(self._failovers),
                replicas=replicas,
                reads=tuple(sorted(self._reads.items())),
            )

    def close(self) -> None:
        """Release the primary's WAL handle."""
        with self._lock:
            self._primary.close()
