"""Kill-point chaos: SimulatedCrash injection, the sweep, durable VDBMS."""

import pytest

from repro.chaos import kill_sweep
from repro.chaos.durability import (
    ABSENT,
    CRASH_SITES,
    DURABLE,
    NEUTRAL,
    crash_site,
    sweep,
)
from repro.chaos.harness import describe_section
from repro.cobra.catalog import DomainKnowledge
from repro.cobra.model import RawVideo, VideoDocument, VideoObject
from repro.cobra.vdbms import CobraVDBMS, DrainedFailures
from repro.durability import DurableStore
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector, FaultPlan, FaultSpec, get_plan
from repro.monet.kernel import MonetKernel
from repro.resilience import CircuitBreaker
from repro.synth.annotations import Interval


def make_document(video_id="race1"):
    doc = VideoDocument(
        raw=RawVideo(video_id, "synthetic://x", 100.0, 10.0, 192, 144, 16000)
    )
    doc.add_object(VideoObject(f"{video_id}/d1", "driver", "HAKKINEN"))
    doc.new_event(
        "fly_out", Interval(10, 18), 0.9, {"driver": f"{video_id}/d1"}, "dbn"
    )
    doc.new_event("highlight", Interval(9, 20), 0.8, source="dbn")
    return doc


class TestKillFaultKind:
    def test_kill_raises_simulated_crash_and_is_logged(self):
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(site="wal.commit:mid", kind="kill"),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(SimulatedCrash) as excinfo:
            injector.on_call("wal.commit:mid")
        assert excinfo.value.site == "wal.commit:mid"
        assert len(injector.injections) == 1

    def test_simulated_crash_evades_generic_except_exception(self):
        # BaseException on purpose: resilient wrappers that swallow
        # Exception must not absorb a process kill
        assert not issubclass(SimulatedCrash, Exception)

    def test_crash_commit_named_plan_kills_a_durable_kernel(self, tmp_path):
        kernel = MonetKernel(store=DurableStore(tmp_path / "s", faults=get_plan("crash-commit")))
        from tests.test_durability import lap_bat

        with pytest.raises(SimulatedCrash):
            with kernel.transaction():
                kernel.persist("laps", lap_bat())
        kernel.close()
        state = DurableStore(tmp_path / "s").recover()
        assert state.catalog == {}  # the kill preceded the commit marker


class TestKillPointSweep:
    def test_every_classified_site_is_a_real_crash_point(self):
        assert len(CRASH_SITES) == 13
        assert set(CRASH_SITES.values()) == {DURABLE, ABSENT, NEUTRAL}

    def test_checkpoint_replaced_kill_survives_the_directory_entry(
        self, tmp_path
    ):
        # the kill lands between os.replace and the parent-directory fsync:
        # both the old and the new checkpoint state are acceptable, but the
        # store must recover to a committed catalog either way
        assert CRASH_SITES["checkpoint:replaced"] == NEUTRAL
        [result] = kill_sweep(tmp_path, ["checkpoint:replaced"], crash_site, False)
        assert result.payload["crashed"]
        assert result.ok, result.failures

    def test_single_site_run_reports_the_killed_step(self, tmp_path):
        [result] = kill_sweep(tmp_path, ["wal.commit:mid"], crash_site, False)
        assert result.payload["crashed"]
        assert result.ok, result.failures
        assert "txn" in result.payload["crashed_step"]
        assert result.payload["transactions_discarded"] == 1

    def test_sweep_recovers_last_committed_state_at_every_site(self, tmp_path):
        # the acceptance bar: for every WAL/checkpoint crash point, kill +
        # recover yields exactly the last committed catalog — never a
        # partial transaction, never a lost committed mutation
        reports = sweep(tmp_path, fsync=False)
        assert len(reports) == len(CRASH_SITES)
        assert all(report.ok for report in reports), describe_section(reports)
        results = [report.payload for report in reports]
        assert all(result["crashed"] for result in results)
        # uncommitted work is discarded, not surfaced
        for result in results:
            if result["classification"] == ABSENT and "txn" in (
                result["crashed_step"] or ""
            ):
                assert result["transactions_committed"] == 0


class TestDurableVdbms:
    def test_registered_metadata_survives_restart(self, tmp_path):
        db = CobraVDBMS(store=tmp_path / "s")
        db.register_domain(DomainKnowledge("f1"))
        db.register_document(make_document(), "f1")
        before = db.metadata.events("race1")
        assert len(before) == 2
        db.close()

        revived = CobraVDBMS(store=tmp_path / "s")
        assert revived.recovery is not None
        assert revived.recovery.bats_recovered >= 13  # the meta_* groups
        revived.register_domain(DomainKnowledge("f1"))
        # re-registering restores the Python-side handle; the recovered
        # BAT rows must not be duplicated
        revived.register_document(make_document(), "f1")
        after = revived.metadata.events("race1")
        assert [e["event_id"] for e in after] == [
            e["event_id"] for e in before
        ]
        flyout = next(e for e in after if e["kind"] == "fly_out")
        assert flyout["roles"] == {"driver": "race1/d1"}
        # a query over recovered metadata needs no re-extraction
        result = revived.query("RETRIEVE fly_out WHERE ROLE driver = HAKKINEN")
        assert len(result) == 1
        assert not result.report.ran_extraction
        revived.close()

    def test_checkpoint_through_the_facade(self, tmp_path):
        db = CobraVDBMS(store=tmp_path / "s")
        db.register_domain(DomainKnowledge("f1"))
        db.register_document(make_document(), "f1")
        assert db.checkpoint() == 1
        db.close()
        state = DurableStore(tmp_path / "s").recover()
        assert state.report.wal_records == 0
        assert state.catalog["meta_event_event_id"].count() == 2

    def test_checkpoint_without_store_raises(self):
        from repro.errors import MonetError

        with pytest.raises(MonetError):
            CobraVDBMS().checkpoint()


class TestBreakerOperations:
    def _tripped(self):
        breaker = CircuitBreaker(
            "audio_dbn", failure_threshold=2, recovery_timeout=1000
        )
        for _ in range(2):
            breaker.record_failure()
        return breaker

    def test_reset_rearms_an_open_breaker(self):
        from repro.errors import CircuitOpenError

        breaker = self._tripped()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        breaker.reset()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.allow()  # no longer raises

    def test_drain_failures_exposes_breaker_panel(self):
        db = CobraVDBMS()
        db._breakers["audio_dbn"] = self._tripped()
        drained = db.drain_failures()
        assert isinstance(drained, DrainedFailures)
        assert drained.breakers["audio_dbn"] == CircuitBreaker.OPEN
        assert len(drained) == 0  # no failure reports pending
