"""The ``replication`` scenario: kill a replicated primary mid-transaction,
fail over, fence, heal.

:func:`failover` drives one deterministic disaster:

1. a primary + two replicas are stood up; the plan partitions
   ``replica-1``'s link (``kind="partition"``) for the first rounds while
   ``replica-0`` tracks the primary;
2. the primary is killed *mid-transaction* (a ``kind="kill"`` fault at a
   ``wal.commit:*`` crash point) — the WAL is left with whatever the kill
   allowed to become durable, possibly an uncommitted batch;
3. probes fail, the circuit breaker opens, and the least-lagged reachable
   replica (``replica-0``) is promoted — after a final pump that drains
   the dead primary's durable bytes;
4. the deposed primary's lease attempts a late write, which the epoch
   fence must reject;
5. ``replica-1``'s partition heals; it catches up from the *new* lineage
   (full checkpoint snapshot + WAL tail) and the group must converge
   byte-for-byte, with the killed transaction present iff its crash point
   is classified durable (the same :data:`repro.chaos.durability.
   CRASH_SITES` contract the single-node sweep enforces).

The ``scenario`` section kills at ``wal.commit:mid``; the ``sweep``
section repeats the disaster at every commit-path crash point.
"""

from __future__ import annotations

from pathlib import Path

from repro.chaos import fixtures
from repro.chaos.durability import CRASH_SITES, DURABLE
from repro.chaos.harness import ChaosReport, kill_sweep
from repro.durability.store import DurableStore
from repro.errors import FencedWriteError, SimulatedCrash
from repro.faults import FaultInjector, FaultSpec
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel
from repro.replication.group import GroupConfig, KernelGroup

__all__ = ["KILL_SWEEP_SITES", "PARTITION", "failover", "scenario", "sweep"]

#: The commit-path crash points the replicated sweep kills the primary at.
KILL_SWEEP_SITES = (
    "wal.commit:begin",
    "wal.commit:mid",
    "wal.commit:marker",
    "wal.commit:synced",
)

#: replica-1's link is down for the first three shipment rounds (two
#: workload pumps + the failover drain), then heals.
PARTITION = FaultSpec(
    site="replication.link:replica-1", kind="partition", max_triggers=3
)


def failover(
    base: Path, kill_site: str, faults: FaultInjector, fsync: bool
) -> ChaosReport:
    """Run the kill/partition/failover/heal disaster once."""
    classification = CRASH_SITES.get(kill_site, "absent")
    payload = {
        "kill_site": kill_site,
        "classification": classification,
        "crashed": False,
        "epoch": 0,
        "promoted": "",
        "fenced_writes": 0,
        "fence_held": False,
        "fatal_txn_expected": classification == DURABLE,
        "fatal_txn_present": False,
        "replica_lags": {},
        "replica_snapshots": {},
    }
    report = ChaosReport(payload)
    events = report.events

    store = DurableStore(base / "primary", faults=faults, fsync=fsync)
    primary = MonetKernel(threads=1, check="warn", store=store)
    group = KernelGroup(
        primary,
        base,
        replicas=("replica-0", "replica-1"),
        config=GroupConfig(failure_threshold=2, fsync=fsync),
        faults=faults,
    )

    expected: dict[str, BAT] = {}
    lease = group.lease()
    lease.write(lambda k: k.persist("lap_time", fixtures.laps()))
    lease.write(lambda k: k.persist("driver", fixtures.drivers()))
    lease.write(lambda k: k.run(fixtures.PROC_SOURCE))
    expected["lap_time"] = fixtures.laps()
    expected["driver"] = fixtures.drivers()
    group.pump()
    events.append("setup shipped; replica-1 link partitioned")
    lease.write(lambda k: k.persist("pit_stop", fixtures.pits()))
    expected["pit_stop"] = fixtures.pits()
    group.pump()

    # the fatal transaction: killed at the configured crash point
    def fatal(kernel: MonetKernel) -> None:
        with kernel.transaction():
            kernel.persist("sector_delta", fixtures.sectors())
            kernel.persist("fastest_lap", fixtures.fastest())

    try:
        lease.write(fatal)
    except SimulatedCrash:
        payload["crashed"] = True
        group.report_primary_failure()
        events.append(f"primary killed mid-transaction at {kill_site}")
    if payload["fatal_txn_expected"]:
        # the commit marker reached disk before the kill: the transaction
        # is durable and MUST survive the failover
        expected["sector_delta"] = fixtures.sectors()
        expected["fastest_lap"] = fixtures.fastest()

    # probes fail, the breaker opens, the group promotes
    group.probe()
    group.probe()
    payload["epoch"] = group.epoch
    payload["promoted"] = group.primary_name
    events.append(
        f"failover complete: {group.primary_name} leads epoch {group.epoch}"
    )

    # the deposed primary's late write must fence
    try:
        lease.write(lambda k: k.persist("ghost_write", fixtures.ghost()))
    except FencedWriteError:
        payload["fence_held"] = True
        events.append("deposed lease fenced (stale epoch rejected)")

    # life goes on under the new lease; replica-1 heals and re-seeds
    new_lease = group.lease()
    new_lease.write(lambda k: k.persist("final_ranking", fixtures.ranking()))
    new_lease.write(lambda k: k.persist("lap_time", fixtures.laps_extended()))
    expected["final_ranking"] = fixtures.ranking()
    expected["lap_time"] = fixtures.laps_extended()
    group.pump(rounds=2)
    events.append("replica-1 healed and caught up from the new lineage")

    # ---- verification -------------------------------------------------
    failures = report.failures
    if not payload["fence_held"]:
        failures.append("deposed primary's late write was NOT fenced")
    payload["fenced_writes"] = group.fenced_writes
    if payload["epoch"] != 2:
        failures.append(
            f"expected epoch 2 after one failover, got {payload['epoch']}"
        )

    recovered = group.primary.snapshot()
    payload["fatal_txn_present"] = (
        "sector_delta" in recovered and "fastest_lap" in recovered
    )
    if payload["fatal_txn_present"] != payload["fatal_txn_expected"]:
        failures.append(
            f"fatal transaction "
            f"{'survived' if payload['fatal_txn_present'] else 'was lost'} "
            f"but {kill_site} is classified {classification}"
        )
    if "ghost_write" in recovered:
        failures.append("fenced write reached the promoted primary's catalog")
    failures.extend(
        f"primary: {message}"
        for message in compare_catalogs(expected, recovered)
    )
    if "bestLap" not in group.primary.procedures():
        failures.append("shipped PROC bestLap missing on the promoted primary")
    failures.extend(group.convergence_report())

    for replica_status in group.status().replicas:
        name = replica_status.name
        payload["replica_lags"][name] = replica_status.lag_records
        payload["replica_snapshots"][name] = replica_status.snapshots_installed
        if replica_status.lag_records != 0:
            failures.append(
                f"{name}: still lagging {replica_status.lag_records} "
                f"record(s) after heal"
            )
    group.close()
    return report


def scenario(base: Path, fsync: bool) -> ChaosReport:
    """The disaster with the primary killed between a transaction's
    records and its commit marker."""
    [report] = kill_sweep(
        base, ["wal.commit:mid"], failover, fsync, extra=(PARTITION,)
    )
    return report


def sweep(base: Path, fsync: bool) -> list[ChaosReport]:
    """Kill the primary mid-transaction at every commit-path crash point;
    every run must fail over, fence the deposed lease, and converge."""
    return kill_sweep(base, KILL_SWEEP_SITES, failover, fsync, extra=(PARTITION,))
