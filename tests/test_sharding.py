"""Sharded kernel fleet: consistent-hash placement, two-phase registration,
partial-failure-tolerant gathers, and the seeded shard-death chaos
scenario."""

import copy
import json
import random

import pytest

from repro.chaos.harness import describe_section, section_dict
from repro.chaos.sharding import (
    PLACEMENT_KILL_SITES,
    placement_sweep,
    shard_death,
)
from repro.cobra.model import RawVideo, VideoDocument, VideoObject
from repro.cobra.preprocessor import choose_scatter_plan
from repro.cobra.query import parse_coql
from repro.durability.wal import JOURNAL_MAGIC, encode_record, read_records
from repro.errors import (
    InsufficientCoverageError,
    PlacementError,
    SimulatedCrash,
    WalCorruptionError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec, get_plan
from repro.sharding import (
    HashRing,
    ShardConfig,
    ShardedKernel,
)
from repro.synth.annotations import Interval

THREE = ["shard-0", "shard-1", "shard-2"]


def make_document(video_id, n_events=1):
    doc = VideoDocument(
        raw=RawVideo(video_id, "synthetic://f1", 100.0, 10.0, 192, 144, 16000)
    )
    doc.add_object(VideoObject(f"{video_id}/d1", "driver", "HAKKINEN"))
    for i in range(n_events):
        doc.new_event(
            "fly_out",
            Interval(10 + i, 18 + i),
            0.9,
            {"driver": f"{video_id}/d1"},
            "dbn",
        )
    return doc


def journal_records(base_dir):
    scan = read_records(base_dir / "placements.log", magics=(JOURNAL_MAGIC,))
    assert scan.corruption is None
    return scan.records


def make_fleet(tmp_path, shards=3, faults=None, **overrides):
    overrides.setdefault("fsync", False)
    return ShardedKernel(
        tmp_path, shards=shards, config=ShardConfig(**overrides), faults=faults
    )


# ---------------------------------------------------------------------------
# the placement ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_placement_is_deterministic(self):
        a = HashRing(THREE)
        b = HashRing(THREE)
        keys = [f"race{i}" for i in range(20)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_every_shard_owns_something(self):
        ring = HashRing(THREE)
        owners = {ring.owner(f"race{i}") for i in range(20)}
        assert owners == set(THREE)

    def test_exclusion_only_remaps_the_excluded_shards_keys(self):
        """Consistent hashing's point: killing one shard moves only its
        keys; everyone else's placement is untouched."""
        ring = HashRing(THREE)
        keys = [f"race{i}" for i in range(20)]
        before = {k: ring.owner(k) for k in keys}
        after = {k: ring.owner(k, exclude=["shard-1"]) for k in keys}
        for key in keys:
            if before[key] == "shard-1":
                assert after[key] != "shard-1"
            else:
                assert after[key] == before[key]

    def test_successors_walk_distinct_shards(self):
        ring = HashRing(THREE)
        chain = ring.successors("race0")
        assert sorted(chain) == sorted(THREE)
        assert chain[0] == ring.owner("race0")


# ---------------------------------------------------------------------------
# the preprocessor's scatter cost model
# ---------------------------------------------------------------------------


class TestScatterPlan:
    def test_from_video_query_is_shard_local(self):
        query = parse_coql("RETRIEVE fly_out FROM race1")
        plan = choose_scatter_plan(query, {"shard-0": 500.0, "shard-1": 500.0})
        assert plan.mode == "shard-local"
        assert plan.mode != "fan-out"

    def test_small_shards_gather_sequentially(self):
        """The PERF006 situation: per-branch overhead exceeds the
        concurrency win, so the planner refuses to scatter."""
        query = parse_coql("RETRIEVE fly_out")
        plan = choose_scatter_plan(query, {"shard-0": 10.0, "shard-1": 10.0})
        assert plan.mode == "sequential"
        assert plan.fan_out_cost >= plan.sequential_cost

    def test_large_balanced_shards_fan_out(self):
        query = parse_coql("RETRIEVE fly_out")
        plan = choose_scatter_plan(
            query, {"shard-0": 200.0, "shard-1": 200.0, "shard-2": 200.0}
        )
        assert plan.mode == "fan-out"
        assert plan.mode == "fan-out"
        assert plan.fan_out_cost < plan.sequential_cost
        assert plan.shards == ("shard-0", "shard-1", "shard-2")


# ---------------------------------------------------------------------------
# placement + two-phase registration
# ---------------------------------------------------------------------------


class TestRegistration:
    def test_documents_spread_and_route_queries_to_the_owner(self, tmp_path):
        fleet = make_fleet(tmp_path)
        owners = {
            vid: fleet.register_document(make_document(vid), "f1")
            for vid in ("race0", "race1", "race2", "race3", "race4", "race5")
        }
        assert set(owners.values()) == set(THREE)  # every shard owns some
        assert fleet.placements() == owners
        result = fleet.query("RETRIEVE fly_out FROM race1")
        assert result.coverage.plan == "shard-local"
        assert result.coverage.targeted == (owners["race1"],)
        assert [r["video_id"] for r in result.records] == ["race1"]
        fleet.close()

    def test_registration_journals_prepare_then_commit(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=2)
        fleet.register_document(make_document("race0"), "f1")
        records = journal_records(tmp_path)
        assert [r["op"] for r in records] == ["prepare", "commit"]
        assert records[0]["video"] == "race0"
        fleet.close()

    def test_reregistration_is_idempotent(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=2)
        first = fleet.register_document(make_document("race0"), "f1")
        second = fleet.register_document(make_document("race0"), "f1")
        assert first == second
        assert not fleet.convergence_report()  # rows landed exactly once
        fleet.close()

    def test_new_registrations_route_around_dead_shards(self, tmp_path):
        fleet = make_fleet(tmp_path)
        owner = fleet.ring.owner("race0")
        fleet.mark_dead(owner)
        placed = fleet.register_document(make_document("race0"), "f1")
        assert placed != owner
        assert placed == fleet.ring.owner("race0", exclude=[owner])
        fleet.close()


class TestCrashRecovery:
    def _crash_at(self, tmp_path, site):
        plan = FaultPlan(
            seed=1,
            name="placement-kill",
            specs=(FaultSpec(site=site, kind="kill", max_triggers=1),),
        )
        fleet = make_fleet(tmp_path, shards=2, faults=FaultInjector(plan))
        with pytest.raises(SimulatedCrash):
            fleet.register_document(make_document("race0"), "f1")
        fleet.close()
        return make_fleet(tmp_path, shards=2)

    def test_crash_after_prepare_rolls_back(self, tmp_path):
        recovered = self._crash_at(tmp_path, "sharding.place:prepared")
        assert recovered.placements() == {}
        ops = [r["op"] for r in journal_records(tmp_path)]
        assert ops == ["prepare", "abort"]
        recovered.close()

    def test_crash_after_shard_write_rolls_forward(self, tmp_path):
        recovered = self._crash_at(tmp_path, "sharding.place:registered")
        placements = recovered.placements()
        assert list(placements) == ["race0"]
        ops = [r["op"] for r in journal_records(tmp_path)]
        assert ops == ["prepare", "commit"]
        # the rolled-forward document is queryable once its handle returns
        recovered.register_document(make_document("race0"), "f1")
        result = recovered.query("RETRIEVE fly_out FROM race0")
        assert len(result.records) == 1
        assert not recovered.convergence_report()
        recovered.close()

    def test_placement_kill_sweep_recovers_every_site(self, tmp_path):
        reports = placement_sweep(tmp_path, fsync=False)
        assert all(r.ok for r in reports), describe_section(reports)
        assert [r.payload["site"] for r in reports] == list(
            PLACEMENT_KILL_SITES
        )
        # CI artifact is serializable
        assert json.dumps(section_dict(reports))


# ---------------------------------------------------------------------------
# partial-failure gathers
# ---------------------------------------------------------------------------


class TestJournal:
    def test_appends_after_a_torn_tail_survive_the_next_reopen(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=2)
        fleet.register_document(make_document("race0"), "f1")
        fleet.close()
        log = tmp_path / "placements.log"
        intact = log.read_bytes()
        torn = encode_record({"op": "prepare", "seq": 2, "video": "race9"})
        log.write_bytes(intact + torn[: len(torn) // 2])

        reopened = make_fleet(tmp_path, shards=2)
        assert log.read_bytes() == intact  # cut off, not just skipped
        owner = reopened.register_document(make_document("race1"), "f1")
        reopened.close()

        final = make_fleet(tmp_path, shards=2)
        assert final.placements()["race1"] == owner
        assert final._shard_has_rows(owner, "race1")
        for vid in ("race0", "race1"):
            final.register_document(make_document(vid), "f1")
        assert final.convergence_report() == []
        final.close()

    def test_a_file_that_is_not_a_journal_is_a_typed_error(self, tmp_path):
        # what fleets wrote before the record log: JSON lines, no magic
        (tmp_path / "placements.log").write_text(
            '{"op": "prepare", "seq": 1, "video": "race0", "shard": "shard-0"}\n'
        )
        with pytest.raises(WalCorruptionError, match="REPROJNL1"):
            make_fleet(tmp_path, shards=2)

    def test_close_releases_the_journal_handle(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=2)
        handle = fleet._journal._file
        assert not handle.closed
        fleet.close()
        assert handle.closed

    def test_a_reopened_fleet_is_the_live_fleet(self, tmp_path, monkeypatch):
        """Reopen-equals-live: the state a record leaves behind when the
        live path applies it is the state replaying the journal up to that
        record rebuilds — at every record boundary, not only the end."""

        def state_of(fleet):
            return copy.deepcopy(
                {
                    "placements": fleet.placements(),
                    "order": fleet._placement_order,
                    "ops": fleet._ops,
                    "epoch": fleet._routing_epoch,
                    "seq": fleet._seq,
                    "prepared": fleet._prepared,
                    "in_flight": fleet.migrations.in_flight(),
                    "pending": {
                        video: state.pending
                        for video, state in fleet.migrations._active.items()
                    },
                }
            )

        rng = random.Random(23)
        live = make_fleet(tmp_path / "live", shards=2)
        after_record = [state_of(live)]
        apply = live._apply

        def spy(record):
            apply(record)
            after_record.append(state_of(live))

        live._apply = spy
        docs = {f"race{i}": make_document(f"race{i}") for i in range(10)}

        def late_event(vid):
            start = rng.uniform(20.0, 80.0)
            event = docs[vid].new_event(
                "passing", Interval(start, start + 5.0), rng.random(), {}, "dbn"
            )
            live.store_event(vid, event)

        for doc in docs.values():
            live.register_document(doc, "f1")
        for _ in range(3):
            late_event(rng.choice(sorted(docs)))
        # one migration stopped after each phase, one run to the end
        moving = live.add_shard("shard-2")
        assert moving == ["race2", "race7", "race8", "race9"]
        migrations = live.migrations
        migrations.plan("race2")
        migrations.plan("race7")
        migrations.copy("race7")
        late_event("race7")  # joins the pending tail
        migrations.plan("race8")
        migrations.copy("race8")
        late_event("race8")
        migrations.catch_up("race8")
        migrations.cutover("race8")
        late_event("race8")  # lands on the new owner
        live.migrate_document("race9")
        assert migrations.in_flight() == {
            "race2": "planned", "race7": "copied", "race8": "cutover"
        }
        live.split("shard-2")  # finishes all three
        live.mark_dead("shard-0")
        live.rebalance()
        for _ in range(3):
            late_event(rng.choice(sorted(docs)))
        final = after_record[-1]
        assert final["in_flight"] == {} and final["epoch"] == 5
        assert live.convergence_report() == []
        live.close()

        log = tmp_path / "live" / "placements.log"
        scan = read_records(log, magics=(JOURNAL_MAGIC,))
        assert len(scan.records) == len(after_record) - 1
        data = log.read_bytes()
        with monkeypatch.context() as patched:
            # replay only: in-doubt work stays as the prefix left it
            patched.setattr(
                ShardedKernel, "_resolve_in_doubt", lambda self: None
            )
            for index, end in enumerate([len(JOURNAL_MAGIC), *scan.ends]):
                prefix = tmp_path / f"prefix-{index}"
                prefix.mkdir()
                (prefix / "placements.log").write_bytes(data[:end])
                replayed = make_fleet(prefix, shards=2)
                assert state_of(replayed) == after_record[index], index
                replayed.close()

        reopened = make_fleet(tmp_path / "live", shards=2)
        assert state_of(reopened) == final
        assert log.read_bytes() == data  # nothing was in doubt
        reopened.close()


class TestGather:
    CORPUS = ("race0", "race1", "race2", "race3", "race4", "race5")

    def _loaded_fleet(self, tmp_path, faults=None, **overrides):
        fleet = make_fleet(tmp_path, faults=faults, **overrides)
        for vid in self.CORPUS:
            fleet.register_document(make_document(vid), "f1")
        return fleet

    def test_healthy_gather_is_complete(self, tmp_path):
        fleet = self._loaded_fleet(tmp_path)
        result = fleet.query("RETRIEVE fly_out")
        assert result.coverage.complete
        assert result.coverage.fraction == 1.0
        assert not result.degraded
        assert len(result.records) == len(self.CORPUS)
        # the merged answer is deterministically ordered
        assert [r["video_id"] for r in result.records] == sorted(self.CORPUS)
        fleet.close()

    def test_shard_local_gather_is_measured_against_the_document_it_targets(
        self, tmp_path
    ):
        """``FROM v`` targets one document: answered by its owner it is
        complete, even when that owner holds under a quarter of the corpus
        (it used to be measured against all ten documents and so tripped
        the default 0.25 floor with nothing lost)."""
        fleet = ShardedKernel(tmp_path, shards=3)  # default configuration
        for index in range(10):
            fleet.register_document(make_document(f"gp{index}"), "f1")
        sizes = {
            shard: sum(1 for owner in fleet.placements().values() if owner == shard)
            for shard in THREE
        }
        smallest = min(sizes, key=sizes.get)
        assert sizes[smallest] / 10 < fleet.config.min_coverage
        video = next(v for v, s in sorted(fleet.placements().items()) if s == smallest)
        result = fleet.query(f"RETRIEVE fly_out FROM {video}")
        coverage = result.coverage
        assert coverage.complete and coverage.fraction == 1.0
        assert (coverage.documents_covered, coverage.documents_total) == (1, 1)
        assert coverage.plan == "shard-local" and coverage.targeted == (smallest,)
        assert not result.degraded
        assert [r["video_id"] for r in result.records] == [video]
        # losing the owner loses the whole (one-document) target
        fleet.shard(smallest).breaker.record_failure()
        fleet.shard(smallest).breaker.record_failure()
        with pytest.raises(InsufficientCoverageError) as excinfo:
            fleet.query(f"RETRIEVE fly_out FROM {video}")
        assert excinfo.value.coverage == 0.0
        assert excinfo.value.report.shed == (smallest,)
        fleet.close()

    def test_shard_death_plan_degrades_instead_of_raising(self, tmp_path):
        """The ISSUE acceptance gather: under the named ``shard-death``
        plan a bare shard-1 dies mid-scatter and shard-0 straggles (and is
        answered through a hedged second attempt); the gather returns a
        degraded result with an exact coverage report — no exception."""
        fleet = self._loaded_fleet(
            tmp_path, faults=FaultInjector(get_plan("shard-death"))
        )
        lost = {v for v, s in fleet.placements().items() if s == "shard-1"}
        result = fleet.query("RETRIEVE fly_out")
        coverage = result.coverage
        assert coverage.answered == ("shard-0", "shard-2")
        assert coverage.hedged == ("shard-0",)
        assert coverage.dead == ("shard-1",)
        assert coverage.documents_covered == len(self.CORPUS) - len(lost)
        assert 0 < coverage.fraction < 1
        assert result.degraded
        assert any("partial shard coverage" in d for d in result.degradations())
        assert {r["video_id"] for r in result.records} == (
            set(self.CORPUS) - lost
        )
        assert fleet.dead_shards() == ["shard-1"]
        fleet.close()

    def test_coverage_floor_raises_typed_error(self, tmp_path):
        fleet = self._loaded_fleet(
            tmp_path, faults=FaultInjector(get_plan("shard-death"))
        )
        with pytest.raises(InsufficientCoverageError) as excinfo:
            fleet.query("RETRIEVE fly_out", min_coverage=0.99)
        err = excinfo.value
        assert err.required == 0.99
        assert err.coverage < 0.99
        assert err.report.dead == ("shard-1",)
        fleet.close()

    def test_open_breaker_sheds_the_shard(self, tmp_path):
        fleet = self._loaded_fleet(tmp_path, failure_threshold=1)
        fleet.shard("shard-2").breaker.record_failure()  # trips at 1
        result = fleet.query("RETRIEVE fly_out")
        assert result.coverage.shed == ("shard-2",)
        assert "shard-2" not in result.coverage.answered
        assert not result.coverage.complete
        fleet.close()

    def test_scatter_call_gathers_per_shard_values(self, tmp_path):
        fleet = self._loaded_fleet(tmp_path)
        fleet.run("PROC two() : int := { RETURN 2; }")
        gathered = fleet.call("two")
        assert gathered.coverage.complete
        assert gathered.values == {name: 2 for name in THREE}
        fleet.close()


# ---------------------------------------------------------------------------
# failover, fencing, rebalance
# ---------------------------------------------------------------------------


class TestFailoverAndRebalance:
    def test_write_after_shard_failover_fences_and_retries_once(
        self, tmp_path
    ):
        fleet = make_fleet(tmp_path, shards=1, replication=1)
        fleet.register_document(make_document("race0"), "f1")
        fleet.pump()
        group = fleet.shard("shard-0").group
        group.report_primary_failure()
        group.failover()  # promotion bumps the epoch; the cached lease is stale
        fleet.register_document(make_document("race1"), "f1")
        assert fleet.fenced_retries == 1
        fleet.pump()
        assert not fleet.convergence_report()
        fleet.close()

    def test_rebalance_moves_only_the_dead_shards_documents(self, tmp_path):
        fleet = make_fleet(tmp_path)
        corpus = ("race0", "race1", "race2", "race3", "race4", "race5")
        for vid in corpus:
            fleet.register_document(make_document(vid), "f1")
        before = fleet.placements()
        victims = sorted(v for v, s in before.items() if s == "shard-1")
        fleet.mark_dead("shard-1")
        report = fleet.rebalance()
        assert report.dead == ("shard-1",)
        assert sorted(move[0] for move in report.moves) == victims
        assert all(src == "shard-1" for _, src, _ in report.moves)
        after = fleet.placements()
        for vid in corpus:
            if vid in victims:
                assert after[vid] != "shard-1"
            else:
                assert after[vid] == before[vid]
        result = fleet.query("RETRIEVE fly_out")
        assert result.coverage.complete
        assert "shard-1" not in result.coverage.targeted
        assert not fleet.convergence_report()
        fleet.close()

    def test_rebalance_without_handles_fails_loudly(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=2)
        fleet.register_document(make_document("race0"), "f1")
        owner = fleet.placements()["race0"]
        fleet.close()
        reopened = make_fleet(tmp_path, shards=2)  # placements, no handles
        reopened.mark_dead(owner)
        with pytest.raises(PlacementError, match="no document handle"):
            reopened.rebalance()
        reopened.close()

    @pytest.mark.parametrize("site", PLACEMENT_KILL_SITES)
    def test_rebalance_killed_mid_move_reopens_consistent_and_finishes(
        self, tmp_path, site
    ):
        """A rebalance move is a registration: the same two phases, the
        same kill points, the same roll-back/roll-forward on reopen."""
        corpus = {
            vid: make_document(vid)
            for vid in ("race0", "race1", "race2", "race3", "race4", "race5")
        }

        def reopen(faults=None):
            fleet = make_fleet(tmp_path, faults=faults)
            for vid, doc in corpus.items():
                fleet.register_document(doc, "f1")  # restores the handles
            return fleet

        reopen().close()
        site, _, record = site.partition("@")
        plan = FaultPlan(
            seed=1,
            name="rebalance-kill",
            specs=(
                FaultSpec(
                    site=site,
                    kind="kill",
                    max_triggers=1,
                    skip=int(record == "commit"),
                ),
            ),
        )
        crashing = reopen(FaultInjector(plan))
        crashing.mark_dead("shard-1")
        with pytest.raises(SimulatedCrash):
            crashing.rebalance()
        crashing.close()

        reopened = reopen()
        assert reopened.convergence_report() == []
        reopened.mark_dead("shard-1")
        reopened.rebalance()
        assert "shard-1" not in reopened.placements().values()
        result = reopened.query("RETRIEVE fly_out")
        assert result.coverage.complete and len(result.records) == len(corpus)
        assert reopened.convergence_report() == []
        reopened.close()

    def test_status_snapshot_is_deterministic(self, tmp_path):
        fleet = make_fleet(tmp_path, shards=2)
        fleet.register_document(make_document("race0"), "f1")
        status = fleet.status()
        assert status.documents == 1
        assert sum(s.documents for s in status.shards) == 1
        assert status == fleet.status()
        assert "sharded fleet: 2 shard(s)" in status.describe()
        fleet.close()


# ---------------------------------------------------------------------------
# the seeded chaos scenario + CLI
# ---------------------------------------------------------------------------


class TestChaosScenario:
    def test_scenario_converges_and_is_deterministic(self, tmp_path):
        first = shard_death(tmp_path / "a", fsync=False)
        assert first.ok, first.describe()
        payload = first.payload
        assert payload["dead"] == ["shard-1"]
        assert payload["fenced_retries"] == 1
        assert payload["epochs"]["shard-2"] == 2  # survived by in-shard failover
        assert payload["degraded_coverage"]["documents_covered"] == 2
        second = shard_death(tmp_path / "b", fsync=False)
        assert first.to_dict() == second.to_dict()


class TestCli:
    def test_cli_reports_convergence_and_exits_zero(self, tmp_path, capsys):
        from repro.chaos.__main__ import main

        out = tmp_path / "CHAOS_shard-death.json"
        code = main(
            [
                "shard-death",
                "migration",
                "--dir", str(tmp_path / "scratch"),
                "--out", str(out),
                "--no-fsync",
            ]
        )
        assert code == 0
        assert "chaos: CONVERGED" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["format"] == "repro-chaos/1"
        assert document["ok"]
        assert all(s["deterministic"] for s in document["scenarios"].values())
        section = document["scenarios"]["shard-death"]
        assert len(section["sweep"]["results"]) == len(PLACEMENT_KILL_SITES)


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def test_service_routes_through_the_fleet(self, tmp_path):
        from repro.service import QueryService

        fleet = make_fleet(tmp_path)
        service = QueryService(fleet)
        for vid in ("race0", "race1", "race2"):
            service.submit_register(make_document(vid), "f1")
        service.run_until_idle()
        ticket = service.submit_query("RETRIEVE fly_out")
        report = service.run_until_idle()
        result = ticket.result()
        assert result.coverage.complete
        registers = [r for r in report.records if r.kind == "register"]
        assert all(r.detail.startswith("placed@") for r in registers)
        query = next(r for r in report.records if r.kind == "query")
        assert query.detail.startswith("gather@")
        assert "coverage=1.000" in query.detail
        final = service.shutdown()
        assert final.sharding is not None
        assert final.sharding.documents == 3
        assert "sharded fleet" in final.describe()
        fleet.close()
