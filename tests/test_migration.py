"""Online shard splitting: the five-phase migration protocol, crash-safe
recovery at every kill point, dual-read degraded gathers, fenced cutover,
and bounded-staleness catch-up."""

import json

import pytest

from repro.chaos.harness import describe_section
from repro.chaos.sharding import (
    MIGRATION_KILL_SITES,
    migration_sweep,
    split_under_load,
)
from repro.errors import (
    FencedWriteError,
    MigrationError,
    MigrationLagError,
    RequestCancelled,
    ShardConfigError,
    ShardingError,
    SimulatedCrash,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience import CancellationToken, cancel_scope
from repro.sharding import (
    MIGRATION_KILL_POINTS,
    HashRing,
    ShardConfig,
    ShardCoverageReport,
    ShardedKernel,
)
from repro.synth.annotations import Interval

from tests.test_sharding import make_document

#: On the two-shard ring shard-1 owns race0/race2/race3/race5 and shard-0
#: owns race1/race4; adding shard-2 remaps exactly race2.
VIDS = ["race0", "race1", "race2", "race3", "race4", "race5"]
PILOT = "race2"


def make_fleet(tmp_path, shards=2, faults=None, **overrides):
    overrides.setdefault("fsync", False)
    return ShardedKernel(
        tmp_path, shards=shards, config=ShardConfig(**overrides), faults=faults
    )


def populate(fleet, vids=VIDS):
    docs = {}
    for vid in vids:
        docs[vid] = make_document(vid)
        fleet.register_document(docs[vid], "f1")
    return docs


# ---------------------------------------------------------------------------
# the ring under growth
# ---------------------------------------------------------------------------


class TestRingExtension:
    def test_extension_moves_the_minimal_key_set(self):
        """Adding a shard steals only the keys its own vnode arcs cover;
        every other key keeps its owner."""
        two = HashRing(["shard-0", "shard-1"])
        three = two.extended("shard-2")
        keys = [f"race{i}" for i in range(50)]
        moved = [k for k in keys if two.owner(k) != three.owner(k)]
        assert moved  # the new shard owns something
        for key in moved:
            assert three.owner(key) == "shard-2"

    def test_extension_equals_a_fresh_ring(self):
        grown = HashRing(["shard-0", "shard-1"]).extended("shard-2")
        fresh = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [f"race{i}" for i in range(50)]
        assert [grown.owner(k) for k in keys] == [fresh.owner(k) for k in keys]
        assert grown.shards == fresh.shards

    def test_extension_rejects_duplicates(self):
        ring = HashRing(["shard-0"])
        with pytest.raises(ShardingError, match="already on the ring"):
            ring.extended("shard-0")


# ---------------------------------------------------------------------------
# the five-phase protocol
# ---------------------------------------------------------------------------


class TestMigrationProtocol:
    def test_full_protocol_moves_ownership(self, tmp_path):
        fleet = make_fleet(tmp_path)
        populate(fleet)
        remapped = fleet.add_shard("shard-2")
        assert remapped == [PILOT]
        assert fleet.shard_names() == ["shard-0", "shard-1", "shard-2"]

        migrations = fleet.migrations
        state = migrations.plan(PILOT)
        assert state.src == "shard-1" and state.dst == "shard-2"
        assert migrations.in_flight() == {PILOT: "planned"}
        migrations.copy(PILOT)
        # ownership does not flip at copy time: reads still hit the source
        assert fleet.placements()[PILOT] == "shard-1"
        migrations.cutover(PILOT)
        assert fleet.placements()[PILOT] == "shard-2"
        migrations.retire(PILOT)
        assert migrations.in_flight() == {}
        result = fleet.query("RETRIEVE fly_out")
        assert len(result.records) == len(VIDS)
        assert fleet.convergence_report() == []
        fleet.close()

    def test_phase_order_is_enforced(self, tmp_path):
        fleet = make_fleet(tmp_path)
        populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        with pytest.raises(MigrationError, match="no migration in flight"):
            migrations.state(PILOT)
        migrations.plan(PILOT)
        with pytest.raises(MigrationError):
            migrations.cutover(PILOT)  # cannot cut over an uncopied plan
        with pytest.raises(MigrationError):
            migrations.retire(PILOT)
        with pytest.raises(MigrationError):
            migrations.plan(PILOT)  # already in flight
        fleet.close()

    def test_split_is_idempotent(self, tmp_path):
        fleet = make_fleet(tmp_path)
        populate(fleet)
        report = fleet.split("shard-2")
        assert report.added
        assert [m[0] for m in report.moves] == [PILOT]
        again = fleet.split("shard-2")
        assert not again.added and again.moves == ()
        assert fleet.convergence_report() == []
        fleet.close()

    def test_split_respects_cancellation(self, tmp_path):
        fleet = make_fleet(tmp_path)
        populate(fleet)
        token = CancellationToken(None)
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(RequestCancelled):
                fleet.split("shard-2")
        fleet.close()

    def test_rebalance_respects_cancellation(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=3)
        populate(fleet)
        fleet.mark_dead("shard-1")
        token = CancellationToken(None)
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(RequestCancelled):
                fleet.rebalance()
        fleet.close()


# ---------------------------------------------------------------------------
# dual reads while a copy is in flight
# ---------------------------------------------------------------------------


class TestDualRead:
    def test_partitioned_source_is_answered_through_the_destination(
        self, tmp_path
    ):
        plan = FaultPlan(
            seed=9,
            name="cut-the-source",
            specs=(
                FaultSpec(
                    site="sharding.transport:shard-1",
                    kind="partition",
                    max_triggers=1,
                ),
            ),
        )
        fleet = make_fleet(tmp_path, faults=FaultInjector(plan))
        populate(fleet)
        fleet.add_shard("shard-2")
        fleet.migrations.plan(PILOT)
        fleet.migrations.copy(PILOT)

        result = fleet.query("RETRIEVE fly_out")
        coverage = result.coverage
        assert coverage.timed_out == ("shard-1",)
        assert coverage.migrating == 1
        assert coverage.dual_read == 1
        # shard-0's two documents plus the pilot through its half-built copy
        assert coverage.documents_covered == 3
        pilot_rows = [r for r in result.records if r["video_id"] == PILOT]
        assert len(pilot_rows) == 1
        fleet.close()

    def test_healthy_gather_reports_the_migration_but_no_dual_read(
        self, tmp_path
    ):
        fleet = make_fleet(tmp_path)
        populate(fleet)
        fleet.add_shard("shard-2")
        fleet.migrations.plan(PILOT)
        fleet.migrations.copy(PILOT)
        coverage = fleet.query("RETRIEVE fly_out").coverage
        assert coverage.complete
        assert coverage.migrating == 1 and coverage.dual_read == 0
        fleet.close()

    def test_dual_read_never_duplicates_rows(self, tmp_path):
        """Post-cutover the rows exist on both shards; the ownership
        filter must pick exactly one side."""
        fleet = make_fleet(tmp_path)
        populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        migrations.plan(PILOT)
        migrations.copy(PILOT)
        migrations.cutover(PILOT)  # both sides now hold the pilot's rows
        result = fleet.query("RETRIEVE fly_out")
        assert len(result.records) == len(VIDS)
        assert [r for r in result.records if r["video_id"] == PILOT]
        fleet.close()


# ---------------------------------------------------------------------------
# bounded-staleness catch-up and the fenced cutover
# ---------------------------------------------------------------------------


class TestCatchUpAndFencing:
    def test_cutover_refused_above_the_lag_floor(self, tmp_path):
        fleet = make_fleet(tmp_path)
        docs = populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        migrations.plan(PILOT)
        migrations.copy(PILOT)
        event = docs[PILOT].new_event(
            "passing", Interval(30.0, 36.0), 0.8, {}, "dbn"
        )
        assert fleet.store_event(PILOT, event) == "shard-1"
        assert migrations.lag(PILOT) == 1
        with pytest.raises(MigrationLagError) as exc:
            migrations.cutover(PILOT)
        assert exc.value.lag == 1 and exc.value.floor == 0
        shipped = migrations.catch_up(PILOT)
        assert shipped == 1 and migrations.lag(PILOT) == 0
        migrations.cutover(PILOT)
        migrations.retire(PILOT)
        assert fleet.convergence_report() == []
        fleet.close()

    def test_nonzero_floor_tolerates_bounded_staleness(self, tmp_path):
        fleet = make_fleet(tmp_path, catchup_lag_floor=1)
        docs = populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        migrations.plan(PILOT)
        migrations.copy(PILOT)
        event = docs[PILOT].new_event(
            "passing", Interval(30.0, 36.0), 0.8, {}, "dbn"
        )
        fleet.store_event(PILOT, event)
        migrations.cutover(PILOT)  # lag 1 <= floor 1: allowed
        migrations.retire(PILOT)  # retire drains the tail before verifying
        assert fleet.convergence_report() == []
        fleet.close()

    def test_stale_intent_is_fenced_after_cutover(self, tmp_path):
        fleet = make_fleet(tmp_path)
        docs = populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        migrations.plan(PILOT)
        migrations.copy(PILOT)
        stale = fleet.write_intent(PILOT)
        assert stale.owner == "shard-1"
        migrations.cutover(PILOT)
        event = docs[PILOT].new_event(
            "pit_stop", Interval(50.0, 58.0), 0.7, {}, "dbn"
        )
        with pytest.raises(FencedWriteError):
            stale.apply(event)
        fleet.close()

    def test_store_event_retries_once_under_a_fresh_intent(
        self, tmp_path, monkeypatch
    ):
        """The cutover race: an intent captured just before the epoch
        bump must fence, and the write lands on the new owner on the
        single retry."""
        fleet = make_fleet(tmp_path)
        docs = populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        migrations.plan(PILOT)
        migrations.copy(PILOT)
        stale = fleet.write_intent(PILOT)
        migrations.cutover(PILOT)
        real = migrations.write_intent
        handed_out = []

        def racy_intent(video_id):
            if not handed_out:
                handed_out.append(video_id)
                return stale
            return real(video_id)

        monkeypatch.setattr(migrations, "write_intent", racy_intent)
        event = docs[PILOT].new_event(
            "pit_stop", Interval(50.0, 58.0), 0.7, {}, "dbn"
        )
        assert fleet.store_event(PILOT, event) == "shard-2"
        assert fleet.migration_fenced_retries == 1
        migrations.retire(PILOT)
        assert fleet.convergence_report() == []
        fleet.close()


# ---------------------------------------------------------------------------
# crash-safe recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("reference")
        fleet = make_fleet(base)
        populate(fleet)
        fleet.split("shard-2")
        snapshot = {
            "placements": fleet.placements(),
            "records": json.dumps(
                fleet.query("RETRIEVE fly_out").records,
                sort_keys=True,
                default=repr,
            ),
        }
        assert fleet.convergence_report() == []
        fleet.close()
        return snapshot

    @pytest.mark.parametrize("site", MIGRATION_KILL_POINTS + (f"sharding.migrate:{PILOT}",))
    def test_kill_point_recovers_to_the_reference_state(
        self, tmp_path, site, reference
    ):
        plan = FaultPlan(
            seed=3,
            name=f"kill@{site}",
            specs=(FaultSpec(site=site, kind="kill", max_triggers=1),),
        )
        fleet = make_fleet(tmp_path, faults=FaultInjector(plan))
        docs = populate(fleet)
        with pytest.raises(SimulatedCrash):
            fleet.split("shard-2")
        fleet.close()

        recovered = make_fleet(tmp_path)
        # recovery swept every in-doubt migration forward or back
        assert recovered.migrations.in_flight() == {}
        for doc in docs.values():
            recovered.register_document(doc, "f1")
        recovered.split("shard-2")
        assert recovered.placements() == reference["placements"]
        records = json.dumps(
            recovered.query("RETRIEVE fly_out").records,
            sort_keys=True,
            default=repr,
        )
        assert records == reference["records"]
        assert recovered.convergence_report() == []
        recovered.close()

    def test_mid_migration_write_survives_a_cutover_crash(self, tmp_path):
        """The journaled pending tail: a write accepted during the copy
        phase must reach the destination through recovery."""
        plan = FaultPlan(
            seed=3,
            name="kill@cutover",
            specs=(
                FaultSpec(
                    site="migration:cutover", kind="kill", max_triggers=1
                ),
            ),
        )
        fleet = make_fleet(tmp_path, faults=FaultInjector(plan))
        docs = populate(fleet)
        fleet.add_shard("shard-2")
        migrations = fleet.migrations
        migrations.plan(PILOT)
        migrations.copy(PILOT)
        event = docs[PILOT].new_event(
            "passing", Interval(30.0, 36.0), 0.8, {}, "dbn"
        )
        fleet.store_event(PILOT, event)
        migrations.catch_up(PILOT)
        with pytest.raises(SimulatedCrash):
            migrations.cutover(PILOT)
        fleet.close()

        recovered = make_fleet(tmp_path)
        assert recovered.migrations.in_flight() == {}
        assert recovered.placements()[PILOT] == "shard-2"
        result = recovered.query("RETRIEVE passing")
        assert [r["video_id"] for r in result.records] == [PILOT]
        for doc in docs.values():
            recovered.register_document(doc, "f1")
        assert recovered.convergence_report() == []
        recovered.close()


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize("floor", [-0.1, 1.5])
    def test_min_coverage_outside_the_unit_interval(self, tmp_path, floor):
        with pytest.raises(ShardConfigError):
            make_fleet(tmp_path, min_coverage=floor)

    def test_negative_lag_floor(self, tmp_path):
        with pytest.raises(ShardConfigError):
            make_fleet(tmp_path, catchup_lag_floor=-1)

    @pytest.mark.parametrize("replication", [0, 1])
    def test_zero_failure_threshold_fails_before_touching_disk(
        self, tmp_path, replication
    ):
        with pytest.raises(ShardConfigError, match="failure_threshold"):
            ShardedKernel(
                tmp_path,
                2,
                ShardConfig(failure_threshold=0, replication=replication),
            )
        assert list(tmp_path.iterdir()) == []

    def test_shard_config_error_is_a_value_error(self):
        assert issubclass(ShardConfigError, ValueError)

    def test_per_query_floor_is_validated(self, tmp_path):
        fleet = make_fleet(tmp_path)
        populate(fleet, vids=["race0"])
        with pytest.raises(ShardConfigError):
            fleet.query("RETRIEVE fly_out", min_coverage=2.0)
        fleet.close()


# ---------------------------------------------------------------------------
# the coverage report across the wire
# ---------------------------------------------------------------------------


class TestCoverageRoundTrip:
    def test_round_trip_preserves_the_migration_counters(self):
        report = ShardCoverageReport(
            plan="sequential",
            targeted=("shard-0", "shard-1"),
            answered=("shard-0",),
            hedged=(),
            shed=(),
            timed_out=("shard-1",),
            dead=(),
            documents_total=6,
            documents_covered=3,
            migrating=1,
            dual_read=1,
        )
        wire = json.loads(json.dumps(report.to_dict()))
        assert ShardCoverageReport.from_dict(wire) == report

    def test_from_dict_tolerates_pre_migration_payloads(self):
        """Reports written before the split subsystem existed have no
        migrating/dual_read keys; they deserialize as zero."""
        report = ShardCoverageReport(
            plan="sequential",
            targeted=("shard-0",),
            answered=("shard-0",),
            hedged=(),
            shed=(),
            timed_out=(),
            dead=(),
            documents_total=1,
            documents_covered=1,
        )
        payload = report.to_dict()
        del payload["migrating"], payload["dual_read"]
        assert ShardCoverageReport.from_dict(payload) == report

    def test_service_report_carries_the_gather_coverage(self, tmp_path):
        from repro.service import QueryService

        fleet = make_fleet(tmp_path)
        populate(fleet, vids=["race0", "race1"])
        service = QueryService(fleet)
        service.submit_query("RETRIEVE fly_out")
        service.run_until_idle()
        report = service.shutdown()
        wire = json.loads(json.dumps(report.to_dict()))
        [query_record] = [
            r for r in wire["records"] if r["kind"] == "query"
        ]
        restored = ShardCoverageReport.from_dict(query_record["coverage"])
        assert restored.documents_total == 2
        assert restored.migrating == 0 and restored.dual_read == 0
        assert wire["sharding"]["shards"]


# ---------------------------------------------------------------------------
# the seeded scenario and kill sweep
# ---------------------------------------------------------------------------


class TestSplitChaos:
    def test_scenario_converges_and_is_deterministic(self, tmp_path):
        first = split_under_load(tmp_path / "a", fsync=False)
        assert first.ok, first.describe()
        assert first.payload["dual_read_coverage"]["dual_read"] == 1
        assert first.payload["dual_read_coverage"]["migrating"] == 1
        assert first.payload["lag_refusal"] == {"lag": 1, "floor": 0}
        second = split_under_load(tmp_path / "b", fsync=False)
        assert first.to_dict() == second.to_dict()

    def test_kill_sweep_recovers_every_site(self, tmp_path):
        sweep = migration_sweep(tmp_path, fsync=False)
        assert all(report.ok for report in sweep), describe_section(sweep)
        assert len(sweep) == len(MIGRATION_KILL_SITES)
