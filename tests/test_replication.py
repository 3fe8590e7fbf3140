"""Replicated kernel group: WAL shipping, read routing, epoch fencing,
failover, and the seeded chaos scenario."""

import json

import pytest

from repro.chaos import kill_sweep
from repro.chaos.harness import describe_section, section_dict
from repro.chaos.replication import (
    KILL_SWEEP_SITES,
    PARTITION,
    failover,
    scenario,
    sweep,
)
from repro.durability import DurableStore
from repro.errors import FencedWriteError, ReplicationError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.replication import (
    GroupConfig,
    KernelGroup,
    Replica,
    ReplicaPosition,
    ReplicationLink,
)
from tests.test_durability import lap_bat


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


PROC_SOURCE = """
PROC bestLap(BAT[void,dbl] laps) : dbl := {
    RETURN laps.min;
}
"""


def driver_bat():
    return BAT.from_columns(
        "void", "str", [0, 1], ["hakkinen", "schumacher"], next_oid=2
    )


def make_primary(tmp_path, faults=None, check="off"):
    store = DurableStore(tmp_path / "primary", faults=faults, fsync=False)
    return MonetKernel(threads=1, check=check, store=store)


def make_group(tmp_path, primary=None, clock=None, config=None, faults=None):
    primary = primary or make_primary(tmp_path)
    return KernelGroup(
        primary,
        tmp_path,
        replicas=("replica-0", "replica-1"),
        config=config or GroupConfig(fsync=False),
        clock=clock or FakeClock(),
        faults=faults,
    )


# ---------------------------------------------------------------------------
# the shipping link
# ---------------------------------------------------------------------------


class TestReplicationLink:
    def test_fresh_position_forces_catchup(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.persist("laps", lap_bat())
        link = ReplicationLink(primary.store.path)
        shipment = link.fetch(ReplicaPosition(), epoch=1)
        assert shipment.catchup
        assert len(shipment.records) == 1
        assert shipment.position == ReplicaPosition(1, 0, 1)
        assert shipment.remaining == 0
        primary.close()

    def test_incremental_tail_after_established_position(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.persist("laps", lap_bat())
        link = ReplicationLink(primary.store.path)
        first = link.fetch(ReplicaPosition(), epoch=1)
        primary.persist("drivers", driver_bat())
        second = link.fetch(first.position, epoch=1)
        assert not second.catchup and second.snapshot is None
        assert [r["name"] for r in second.records] == ["drivers"]
        primary.close()

    def test_lag_withholds_the_newest_records(self, tmp_path):
        primary = make_primary(tmp_path)
        for i in range(3):
            primary.persist(f"b{i}", lap_bat())
        link = ReplicationLink(primary.store.path)
        shipment = link.fetch(ReplicaPosition(), epoch=1, withhold=2)
        assert [r["name"] for r in shipment.records] == ["b0"]
        assert shipment.remaining == 2
        # the withheld records arrive once the lag clears
        rest = link.fetch(shipment.position, epoch=1)
        assert [r["name"] for r in rest.records] == ["b1", "b2"]
        assert rest.remaining == 0
        primary.close()

    def test_primary_checkpoint_invalidates_the_position(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.persist("laps", lap_bat())
        link = ReplicationLink(primary.store.path)
        position = link.fetch(ReplicaPosition(), epoch=1).position
        primary.checkpoint()
        primary.persist("drivers", driver_bat())
        shipment = link.fetch(position, epoch=1)
        assert shipment.catchup
        assert "laps" in shipment.snapshot.catalog
        assert [r["name"] for r in shipment.records] == ["drivers"]
        primary.close()

    def test_epoch_mismatch_invalidates_the_position(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.persist("laps", lap_bat())
        link = ReplicationLink(primary.store.path)
        position = link.fetch(ReplicaPosition(), epoch=1).position
        assert link.fetch(position, epoch=2).catchup
        primary.close()

    def test_checkpoint_with_no_subsequent_records_ships_snapshot_only(
        self, tmp_path
    ):
        primary = make_primary(tmp_path)
        primary.persist("laps", lap_bat())
        primary.checkpoint()
        link = ReplicationLink(primary.store.path)
        shipment = link.fetch(ReplicaPosition(), epoch=1)
        assert shipment.catchup and shipment.records == []
        assert "laps" in shipment.snapshot.catalog
        primary.close()

    def test_backlog_counts_unconsumed_and_off_lineage_state(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.persist("laps", lap_bat())
        link = ReplicationLink(primary.store.path)
        # off-lineage: the full snapshot + tail must re-ship
        assert link.backlog(ReplicaPosition(), epoch=1) == 1
        position = link.fetch(ReplicaPosition(), epoch=1).position
        assert link.backlog(position, epoch=1) == 0
        primary.persist("drivers", driver_bat())
        assert link.backlog(position, epoch=1) == 1
        primary.close()


# ---------------------------------------------------------------------------
# pump + apply semantics
# ---------------------------------------------------------------------------


class TestPumpAndApply:
    def test_pump_converges_catalog_and_procs(self, tmp_path):
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary)
        primary.persist("laps", lap_bat())
        primary.run(PROC_SOURCE)
        with primary.transaction():
            primary.persist("drivers", driver_bat())
            primary.persist("pits", lap_bat())
        group.pump()
        assert group.convergence_report() == []
        for name in group.replica_names():
            replica = group.replica(name)
            assert replica.lag_records == 0
            assert "bestLap" in replica.kernel.procedures()
            assert replica._batches.committed == 1
        group.close()

    def test_uncommitted_batch_stays_pending_across_pumps(self, tmp_path):
        # a lag fault withholds the commit marker: the replica must buffer
        # the batch (crash-recovery semantics), not apply half a txn
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    site="replication.link:replica-0",
                    kind="lag",
                    factor=1,
                    max_triggers=1,
                ),
            ),
        )
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary, faults=FaultInjector(plan))
        with primary.transaction():
            primary.persist("laps", lap_bat())
            primary.persist("drivers", driver_bat())
        group.pump()
        lagging = group.replica("replica-0")
        assert lagging.has_pending and lagging.lag_records == 1
        assert "laps" not in lagging.kernel.catalog_names()
        # replica-1 was not lagged and applied the whole transaction
        assert group.replica("replica-1").lag_records == 0
        group.pump()  # the spec is exhausted; the marker ships
        assert not lagging.has_pending and lagging.lag_records == 0
        assert group.convergence_report() == []
        group.close()

    def test_partition_fault_severs_the_link_for_a_round(self, tmp_path):
        plan = FaultPlan(
            seed=4,
            specs=(
                FaultSpec(
                    site="replication.link:replica-1",
                    kind="partition",
                    max_triggers=1,
                ),
            ),
        )
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary, faults=FaultInjector(plan))
        primary.persist("laps", lap_bat())
        group.pump()
        assert group.replica("replica-0").lag_records == 0
        assert group.replica("replica-1").lag_records == 1
        group.pump()  # heals: the spec hit its trigger cap
        assert group.replica("replica-1").lag_records == 0
        assert group.convergence_report() == []
        group.close()

    def test_admin_partition_and_heal_reseed_via_catchup(self, tmp_path):
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary)
        primary.persist("laps", lap_bat())
        group.pump()
        group.partition("replica-1")
        primary.checkpoint()  # truncates the WAL the replica was tailing
        primary.persist("drivers", driver_bat())
        group.pump()
        assert group.replica("replica-1").lag_records > 0
        group.heal("replica-1")
        group.pump()
        replica = group.replica("replica-1")
        assert replica.lag_records == 0
        assert replica.snapshots_installed == 2  # initial seed + re-seed
        assert group.convergence_report() == []
        group.close()

    def test_drop_ships_and_snapshot_install_removes_stale_names(
        self, tmp_path
    ):
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary)
        primary.persist("laps", lap_bat())
        primary.persist("ghost", lap_bat())
        group.pump()
        primary.drop("ghost")
        primary.checkpoint()
        primary.persist("drivers", driver_bat())
        group.pump()  # catch-up round: full snapshot install
        for name in group.replica_names():
            assert set(group.replica(name).kernel.catalog_names()) == {
                "laps",
                "drivers",
            }
        group.close()


# ---------------------------------------------------------------------------
# read routing
# ---------------------------------------------------------------------------


class TestReadRouting:
    def _group(self, tmp_path):
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary)
        primary.persist("laps", lap_bat())
        group.pump()
        return group

    def test_any_routes_to_least_lagged_replica(self, tmp_path):
        group = self._group(tmp_path)
        group.replica("replica-0").lag_records = 5
        routed = group.route_read()
        assert not routed.is_primary and routed.node == "replica-1"
        assert routed.kernel is group.replica("replica-1").kernel
        assert dict(group.status().reads) == {"replica-1": 1}
        group.close()

    def test_any_falls_back_to_primary_when_replicas_unreachable(
        self, tmp_path
    ):
        group = self._group(tmp_path)
        group.partition("replica-0")
        group.partition("replica-1")
        routed = group.route_read()
        assert routed.is_primary and routed.kernel is group.primary
        group.close()

    def test_dead_primary_and_partitioned_replicas_raise(self, tmp_path):
        group = self._group(tmp_path)
        group.partition("replica-0")
        group.partition("replica-1")
        group.report_primary_failure()
        with pytest.raises(ReplicationError):
            group.route_read()
        group.close()


# ---------------------------------------------------------------------------
# fencing + failover
# ---------------------------------------------------------------------------


class TestFencingAndFailover:
    def _converged_group(self, tmp_path, **config_kw):
        clock = FakeClock()
        primary = make_primary(tmp_path)
        group = make_group(
            tmp_path,
            primary=primary,
            clock=clock,
            config=GroupConfig(fsync=False, **config_kw),
        )
        primary.persist("laps", lap_bat())
        primary.run(PROC_SOURCE)
        group.pump()
        return group, clock

    def test_probe_failures_open_breaker_then_promote(self, tmp_path):
        group, _ = self._converged_group(tmp_path, failure_threshold=2)
        old_lease = group.lease()
        group.report_primary_failure()
        assert not group.probe()
        assert group.epoch == 1  # one failure: breaker still closed
        assert not group.probe()
        # breaker open -> auto failover; least-lagged wins, name breaks ties
        assert group.epoch == 2
        assert group.primary_name == "replica-0"
        assert group.replica_names() == ["replica-1"]
        event = group.failovers[0]
        assert (event.deposed, event.promoted) == ("primary", "replica-0")
        # the deposed primary's late write fences
        with pytest.raises(FencedWriteError) as err:
            old_lease.write(lambda k: k.persist("ghost", lap_bat()))
        assert err.value.lease_epoch == 1 and err.value.group_epoch == 2
        assert group.fenced_writes == 1
        # the new lease writes into the new lineage and the survivor
        # re-seeds from it (its old position is off-epoch)
        group.lease().write(lambda k: k.persist("drivers", driver_bat()))
        group.pump()
        survivor = group.replica("replica-1")
        assert survivor.snapshots_installed == 2
        assert "bestLap" in group.primary.procedures()
        assert group.convergence_report() == []
        assert group.status().primary_healthy
        group.close()

    def test_probe_site_fault_drives_failover_without_a_dead_kernel(
        self, tmp_path
    ):
        plan = FaultPlan(
            seed=9,
            specs=(
                FaultSpec(
                    site="replication.probe:primary",
                    kind="fail",
                    max_triggers=2,
                ),
            ),
        )
        primary = make_primary(tmp_path)
        group = make_group(
            tmp_path,
            primary=primary,
            faults=FaultInjector(plan),
            config=GroupConfig(fsync=False, failure_threshold=2),
        )
        primary.persist("laps", lap_bat())
        group.pump()
        assert not group.probe()
        assert not group.probe()
        assert group.epoch == 2
        group.close()

    def test_healthy_probe_keeps_the_breaker_closed(self, tmp_path):
        group, _ = self._converged_group(tmp_path)
        assert group.probe() and group.probe()
        assert group.epoch == 1 and group.failovers == []
        group.close()

    def test_partitioned_replica_is_not_promoted(self, tmp_path):
        group, _ = self._converged_group(tmp_path)
        group.partition("replica-0")
        group.report_primary_failure()
        assert group.failover() == "replica-1"
        group.close()

    def test_failover_with_no_reachable_replica_raises(self, tmp_path):
        group, _ = self._converged_group(tmp_path)
        group.partition("replica-0")
        group.partition("replica-1")
        group.report_primary_failure()
        with pytest.raises(ReplicationError):
            group.failover()

    def test_promoted_replica_refuses_further_shipments(self, tmp_path):
        group, _ = self._converged_group(tmp_path)
        replica = group.replica("replica-0")
        group.report_primary_failure()
        group.failover()
        with pytest.raises(ReplicationError):
            replica.apply_shipment(
                ReplicationLink(group.primary.store.path).fetch(
                    ReplicaPosition(), epoch=2
                )
            )
        with pytest.raises(ReplicationError):
            replica.promote()
        group.close()

    def test_promote_refuses_a_non_empty_store_directory(self, tmp_path):
        occupied = DurableStore(tmp_path / "taken", fsync=False)
        occupied.open()
        occupied.log_persist("laps", lap_bat())
        occupied.close()
        replica = Replica("taken", tmp_path / "taken")
        with pytest.raises(ReplicationError):
            replica.promote(fsync=False)

    def test_promotion_discards_the_pending_uncommitted_batch(self, tmp_path):
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary)
        primary.persist("laps", lap_bat())
        group.pump()
        # ship a begin + body but withhold the commit marker, then fail over
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(
                    site="replication.link:*", kind="lag", factor=1,
                    max_triggers=4,
                ),
            ),
        )
        group.faults = FaultInjector(plan)
        with primary.transaction():
            primary.persist("half", lap_bat())
        group.pump()
        assert group.replica("replica-0").has_pending
        group.report_primary_failure()
        group.failover()  # the drain pump is also lagged: marker never ships
        assert "half" not in group.primary.catalog_names()
        assert "laps" in group.primary.catalog_names()
        group.close()


class TestPromotionRace:
    def test_reads_race_a_promotion_without_untyped_errors(self, tmp_path):
        """Readers hammer ``route_read`` while another thread deposes the
        primary and promotes a replica. Every read must either land on a
        node of the known topology or fail with a *typed* error — no
        torn routing, no AttributeError from a half-swapped primary."""
        import threading

        clock = FakeClock()
        primary = make_primary(tmp_path)
        group = make_group(
            tmp_path,
            primary=primary,
            clock=clock,
            config=GroupConfig(fsync=False),
        )
        primary.persist("laps", lap_bat())
        group.pump()

        nodes: list[str] = []
        surprises: list[BaseException] = []
        barrier = threading.Barrier(2)

        def reader():
            barrier.wait()
            for _ in range(300):
                try:
                    routed = group.route_read()
                    nodes.append(routed.node)
                except ReplicationError:
                    pass  # a typed refusal is an allowed outcome
                except BaseException as exc:  # noqa: BLE001
                    surprises.append(exc)

        def promoter():
            barrier.wait()
            group.report_primary_failure()
            group.failover()

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=promoter),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not surprises, surprises
        known = {"primary", "replica-0", "replica-1"}
        assert nodes and set(nodes) <= known
        # the swap completed: epoch bumped, and post-swap reads land on
        # the new topology (the deposed primary is out of the group)
        assert group.epoch == 2
        assert group.primary_name == "replica-0"
        after = [group.route_read().node for _ in range(5)]
        assert set(after) <= {"replica-0", "replica-1"}
        group.close()


# ---------------------------------------------------------------------------
# status
# ---------------------------------------------------------------------------


class TestGroupStatus:
    def test_status_snapshot(self, tmp_path):
        clock = FakeClock()
        primary = make_primary(tmp_path)
        group = make_group(tmp_path, primary=primary, clock=clock)
        primary.persist("laps", lap_bat())
        group.pump()
        group.route_read()
        status = group.status()
        assert status.epoch == 1 and status.primary == "primary"
        assert [r.name for r in status.replicas] == ["replica-0", "replica-1"]
        assert all(r.lag_records == 0 for r in status.replicas)
        # the read went to a caught-up replica, not the primary
        assert status.reads == (("replica-0", 1),)
        # two snapshots of the same quiescent group compare equal
        assert status == group.status()
        group.close()


# ---------------------------------------------------------------------------
# the seeded chaos scenario
# ---------------------------------------------------------------------------


class TestChaosScenario:
    def test_scenario_converges_and_is_deterministic(self, tmp_path):
        first = scenario(tmp_path / "a", fsync=False)
        assert first.ok, first.describe()
        assert first.payload["crashed"] and first.payload["fence_held"]
        assert first.payload["epoch"] == 2
        assert first.payload["promoted"] == "replica-0"
        # wal.commit:mid is pre-marker
        assert not first.payload["fatal_txn_present"]
        second = scenario(tmp_path / "b", fsync=False)
        assert first.to_dict() == second.to_dict()

    def test_durable_kill_site_keeps_the_fatal_transaction(self, tmp_path):
        [report] = kill_sweep(
            tmp_path, ["wal.commit:synced"], failover, False, extra=(PARTITION,)
        )
        assert report.ok, report.describe()
        assert report.payload["fatal_txn_expected"]
        assert report.payload["fatal_txn_present"]

    def test_kill_sweep_covers_every_commit_path_site(self, tmp_path):
        reports = sweep(tmp_path, fsync=False)
        assert all(r.ok for r in reports), describe_section(reports)
        results = [r.payload for r in reports]
        assert [r["kill_site"] for r in results] == list(KILL_SWEEP_SITES)
        assert all(r["crashed"] and r["fence_held"] for r in results)
        # CI artifact is serializable
        assert json.dumps(section_dict(reports))


class TestCli:
    def test_cli_reports_convergence_and_exits_zero(self, tmp_path, capsys):
        from repro.chaos.__main__ import main

        out = tmp_path / "CHAOS_replication.json"
        code = main(
            [
                "replication",
                "--dir", str(tmp_path / "scratch"),
                "--out", str(out),
                "--no-fsync",
            ]
        )
        assert code == 0
        assert "chaos: CONVERGED" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["format"] == "repro-chaos/1"
        section = document["scenarios"]["replication"]
        assert section["ok"] and section["deterministic"]
        assert len(section["sweep"]["results"]) == len(KILL_SWEEP_SITES)
