"""The overload-safe query service: admission, shedding, drain, replay.

Unit tests run against a minimal fake VDBMS (the service only touches
``faults``, ``kernel``, ``query`` and ``register_document``), which keeps
queue/limiter/shed semantics observable and fast. The integration test at
the bottom reruns the ``overload`` scenario of :mod:`repro.chaos` and
asserts its determinism bar.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.chaos import overload
from repro.errors import (
    MilCheckError,
    OverloadError,
    ReproError,
    RequestCancelled,
)
from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.monet.kernel import MonetKernel
from repro.service import (
    AdmissionQueue,
    Priority,
    QueryService,
    RequestRecord,
    ServiceConfig,
    ServiceReport,
    TERMINAL_STATUSES,
    TokenBucket,
    percentile,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class FakeVdbms:
    """The minimal surface QueryService drives, with observable call order."""

    def __init__(self, faults: FaultInjector | None = None):
        self.faults = faults or FaultInjector.disabled()
        self.kernel = MonetKernel(faults=self.faults)
        self.calls: list[tuple[str, object]] = []

    def query(self, coql, token=None):
        if token is not None:
            token.check("fake.query")
        self.calls.append(("query", coql))
        return f"result:{coql}"

    def register_document(self, document, domain, token=None):
        if token is not None:
            token.check("fake.register")
        self.calls.append(("register", document))
        return document


class SlowFakeVdbms(FakeVdbms):
    """Each query burns one second of the injected fake clock."""

    def __init__(self, clock: FakeClock):
        super().__init__()
        self.clock = clock

    def query(self, coql, token=None):
        self.clock.now += 1.0
        return super().query(coql, token)


class BlockingFakeVdbms(FakeVdbms):
    """Queries spin until their token is cancelled — a wedged extractor."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()

    def query(self, coql, token=None):
        self.started.set()
        while True:
            time.sleep(0.005)
            if token is not None:
                token.check("fake.blocking")


def entry(priority: Priority, lane: str = "x", tag: str = ""):
    return SimpleNamespace(priority=priority, lane=lane, tag=tag)


class TestAdmissionQueue:
    def test_rejects_when_full_without_shedding(self):
        queue = AdmissionQueue(2)
        queue.push(entry(Priority.BATCH))
        queue.push(entry(Priority.BATCH))
        with pytest.raises(OverloadError) as err:
            queue.push(entry(Priority.INTERACTIVE))
        assert err.value.reason == "queue-full"

    def test_shed_oldest_evicts_oldest_least_urgent(self):
        queue = AdmissionQueue(2)
        first = entry(Priority.BATCH, tag="first")
        queue.push(first)
        queue.push(entry(Priority.BATCH, tag="second"))
        victim = queue.push(entry(Priority.INTERACTIVE), shed_oldest=True)
        assert victim is first

    def test_batch_cannot_displace_interactive(self):
        queue = AdmissionQueue(2)
        queue.push(entry(Priority.INTERACTIVE))
        queue.push(entry(Priority.INTERACTIVE))
        with pytest.raises(OverloadError) as err:
            queue.push(entry(Priority.BATCH), shed_oldest=True)
        assert err.value.reason == "queue-full"

    def test_pop_serves_interactive_first_fifo_within_class(self):
        queue = AdmissionQueue(4)
        b1 = entry(Priority.BATCH, tag="b1")
        i1 = entry(Priority.INTERACTIVE, tag="i1")
        b2 = entry(Priority.BATCH, tag="b2")
        i2 = entry(Priority.INTERACTIVE, tag="i2")
        for e in (b1, i1, b2, i2):
            queue.push(e)
        assert [queue.pop().tag for _ in range(4)] == ["i1", "i2", "b1", "b2"]
        assert queue.pop() is None

    def test_pop_lane_filters_by_lane(self):
        queue = AdmissionQueue(4)
        queue.push(entry(Priority.BATCH, lane="batch", tag="b"))
        queue.push(entry(Priority.INTERACTIVE, lane="interactive", tag="i"))
        assert queue.pop_lane_wait("batch", 0).tag == "b"
        assert queue.pop_lane_wait("batch", 0) is None
        assert queue.pop_lane_wait("interactive", 0).tag == "i"


class TestTokenBucket:
    def test_burst_then_rate_limited_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=2, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        retry_after = bucket.try_acquire()
        assert retry_after == pytest.approx(1.0)
        clock.now += 1.0
        assert bucket.try_acquire() is None

    def test_refill_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=3, clock=clock)
        clock.now += 100.0
        assert bucket.available() == pytest.approx(3.0)


class TestServiceAdmission:
    def test_queue_full_rejection_is_typed_and_on_the_record(self):
        service = QueryService(
            FakeVdbms(), ServiceConfig(queue_capacity=1, shed_policy="reject")
        )
        ticket = service.submit_query("RETRIEVE a FROM b")
        with pytest.raises(OverloadError) as err:
            service.submit_query("RETRIEVE c FROM d")
        assert err.value.reason == "queue-full"
        report = service.run_until_idle()
        assert [r.status for r in report.records] == ["completed", "rejected"]
        assert report.records[1].detail == "queue-full"
        assert ticket.result() == "result:RETRIEVE a FROM b"

    def test_interactive_displaces_queued_batch_under_shed_oldest(self):
        service = QueryService(
            FakeVdbms(), ServiceConfig(queue_capacity=2, shed_policy="oldest")
        )
        shed_me = service.submit_query("old batch", priority=Priority.BATCH)
        service.submit_query("young batch", priority=Priority.BATCH)
        service.submit_query("urgent", priority=Priority.INTERACTIVE)
        report = service.run_until_idle()
        assert report.records[0].status == "shed"
        assert report.records[0].detail == "shed"
        with pytest.raises(OverloadError) as err:
            shed_me.result()
        assert err.value.reason == "shed"
        # the survivors both completed; the interactive one ran first
        assert report.records[1].status == "completed"
        assert report.records[2].status == "completed"

    def test_rate_limited_admission(self):
        clock = FakeClock()
        service = QueryService(
            FakeVdbms(),
            ServiceConfig(queue_capacity=8, rate_limit=1.0, rate_burst=1),
            clock=clock,
        )
        service.submit_query("first")
        with pytest.raises(OverloadError) as err:
            service.submit_query("too fast")
        assert err.value.reason == "rate-limited"
        assert err.value.retry_after and err.value.retry_after > 0
        clock.now += err.value.retry_after
        service.submit_query("after backoff")
        report = service.run_until_idle()
        assert report.counts() == {"completed": 2, "rejected": 1}

    def test_draining_service_refuses_new_work(self):
        service = QueryService(FakeVdbms(), ServiceConfig(queue_capacity=2))
        service.shutdown()
        with pytest.raises(OverloadError) as err:
            service.submit_query("late")
        assert err.value.reason == "draining"

    def test_unknown_proc_submission_fails_fast(self):
        service = QueryService(FakeVdbms())
        with pytest.raises(ReproError):
            service.submit_proc_call("never_registered")


BURST_EVERY_QUERY = FaultPlan(
    seed=7,
    name="unit-burst",
    specs=(FaultSpec(site="service.submit:query", kind="burst", rate=1.0, factor=3),),
)


class TestBurstShedding:
    def _run_once(self) -> ServiceReport:
        service = QueryService(
            FakeVdbms(FaultInjector(BURST_EVERY_QUERY)),
            ServiceConfig(queue_capacity=4, shed_policy="oldest"),
        )
        for i in range(3):
            service.submit_query(f"q{i}")
        service.run_until_idle()
        return service.shutdown()

    def test_shed_oldest_under_burst_is_deterministic(self):
        """3 arrivals x4 amplification into a 4-deep queue: sheds replay."""
        report = self._run_once()
        replay = self._run_once()
        assert report.records == replay.records
        assert len(report) == 12
        assert report.shed == 8
        assert report.completed == 4
        assert report.all_terminal
        # clones carry their original's seq, so amplification is auditable
        clones = [r for r in report.records if r.clone_of is not None]
        assert len(clones) == 9

    def test_burst_clones_rejected_loudly_under_reject_policy(self):
        service = QueryService(
            FakeVdbms(FaultInjector(BURST_EVERY_QUERY)),
            ServiceConfig(queue_capacity=2, shed_policy="reject"),
        )
        ticket = service.submit_query("q")  # 4 arrivals against capacity 2
        report = service.run_until_idle()
        assert ticket.result() == "result:q"
        assert report.counts() == {"completed": 2, "rejected": 2}
        for record in (r for r in report.records if r.status == "rejected"):
            assert record.detail == "queue-full"
            assert record.clone_of == 0


class TestDrain:
    def test_sync_drain_sheds_what_the_deadline_cannot_fund(self):
        clock = FakeClock()
        service = QueryService(
            SlowFakeVdbms(clock),
            ServiceConfig(queue_capacity=8),
            clock=clock,
        )
        for i in range(4):
            service.submit_query(f"q{i}")
        report = service.shutdown(deadline=2.5)
        # each query burns 1.0s of fake clock: three fit, the fourth sheds
        assert [r.status for r in report.records] == [
            "completed",
            "completed",
            "completed",
            "shed",
        ]
        assert report.records[3].detail == "draining"

    def test_sync_drain_without_deadline_finishes_everything(self):
        service = QueryService(FakeVdbms(), ServiceConfig(queue_capacity=8))
        for i in range(3):
            service.submit_query(f"q{i}")
        report = service.shutdown()
        assert report.completed == 3
        assert report.all_terminal

    def test_threaded_drain_cancels_in_flight_work(self):
        db = BlockingFakeVdbms()
        service = QueryService(db, ServiceConfig(queue_capacity=4))
        service.start()
        ticket = service.submit_query("wedged")
        assert db.started.wait(timeout=2.0)
        report = service.shutdown(deadline=0.1)
        assert ticket.status == "cancelled"
        with pytest.raises(RequestCancelled):
            ticket.result()
        assert report.all_terminal

    def test_client_cancel_stops_a_running_request(self):
        db = BlockingFakeVdbms()
        service = QueryService(db, ServiceConfig(queue_capacity=4))
        service.start()
        ticket = service.submit_query("doomed")
        assert db.started.wait(timeout=2.0)
        ticket.cancel("client changed its mind")
        for _ in range(200):
            if ticket.status == "cancelled":
                break
            time.sleep(0.01)
        assert ticket.status == "cancelled"
        service.shutdown(deadline=1.0)


SPIN_FOREVER = """
PROC spin() : int := {
  VAR stop := 0;
  VAR x := 0;
  WHILE (stop < 1) { x := x + 1; }
  RETURN x;
}
"""

SPIN_WITH_CHECKPOINT = """
PROC spin_ck() : int := {
  VAR stop := 0;
  VAR x := 0;
  VAR c := 0;
  WHILE (stop < 1) { c := cancelpoint(); x := x + 1; stop := fuse(); }
  RETURN x;
}
"""

BOUNDED_HOP = """
PROC hop(int n) : int := {
  VAR i := 0;
  VAR c := 0;
  WHILE (i < n) { c := cancelpoint(); i := i + 1; }
  RETURN i;
}
"""


class TestRegisterProc:
    def test_unbounded_while_without_cancelpoint_is_rejected(self):
        service = QueryService(FakeVdbms())
        with pytest.raises(MilCheckError) as err:
            service.register_proc(SPIN_FOREVER)
        assert any(d.code == "SVC001" for d in err.value.diagnostics)
        assert not service._db.kernel.has_command("spin")

    @pytest.mark.parametrize(
        "loop_body, rejected",
        [
            # the drain is a mutation wherever it sits in the statement
            ("VAR left := b.delete(0).count;", False),
            ("IF (b.delete(0).count > 3) { left := 1; }", False),
            ("left := tally(b.delete(0));", False),
            # reading b, or mutating something else, never ends the loop
            ("VAR left := b.count;", True),
            ("IF (b.count > 3) { other.delete(0); }", True),
        ],
    )
    def test_svc001_counts_mutations_anywhere_in_the_body(self, loop_body, rejected):
        db = FakeVdbms()
        db.kernel.register_command("tally", lambda bat: len(bat))
        service = QueryService(db)
        source = (
            "PROC drain(BAT[void,dbl] b, BAT[void,dbl] other) : int := {\n"
            "  VAR left := 0;\n"
            f"  WHILE (b.count > 0) {{ {loop_body} }}\n"
            "  RETURN left;\n"
            "}\n"
        )
        if rejected:
            with pytest.raises(MilCheckError) as err:
                service.register_proc(source)
            assert [d.code for d in err.value.diagnostics] == ["SVC001"]
        else:
            assert service.register_proc(source) == ["drain"]

    def test_cancelpoint_satisfies_the_gate(self):
        db = FakeVdbms()
        db.kernel.register_command("fuse", lambda: 1)
        service = QueryService(db)
        assert service.register_proc(SPIN_WITH_CHECKPOINT) == ["spin_ck"]

    def test_registered_proc_runs_through_the_service(self):
        service = QueryService(FakeVdbms())
        assert service.register_proc(BOUNDED_HOP) == ["hop"]
        ticket = service.submit_proc_call("hop", (5,))
        report = service.run_until_idle()
        assert ticket.result() == 5
        assert report.records[0].kind == "proc"
        assert report.records[0].status == "completed"


class TestServiceReport:
    def test_equality_ignores_latency_measurements(self):
        records = (
            RequestRecord(seq=0, kind="query", priority="INTERACTIVE",
                          lane="interactive", status="completed"),
        )
        a = ServiceReport(records=records, checkpoint_seqno=1,
                          admission_latencies=(0.001,))
        b = ServiceReport(records=records, checkpoint_seqno=1,
                          admission_latencies=(9.999,))
        assert a == b

    def test_percentile_nearest_rank(self):
        assert percentile([], 99.0) == 0.0
        assert percentile([0.5], 99.0) == 0.5
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 100.0
        assert percentile(values, 100.0) == 100.0

    def test_terminal_statuses_cover_every_outcome(self):
        assert {"completed", "failed", "rejected", "shed", "cancelled",
                "timed-out"} == set(TERMINAL_STATUSES)


class TestOverloadChaosScenario:
    """The CI acceptance scenario: sustained 4x burst against a durable
    kernel — deterministic sheds, typed failures, real progress."""

    def test_seeded_burst_replays_exactly(self, tmp_path):
        assert overload.CAPACITY == 8
        run = overload.scenario(tmp_path / "run1", fsync=False)
        replay = overload.scenario(tmp_path / "run2", fsync=False)
        assert run.ok, run.describe()
        records = run.payload["report"]["records"]
        assert records == replay.payload["report"]["records"]
        statuses = [record["status"] for record in records]
        assert set(statuses) <= TERMINAL_STATUSES
        assert statuses.count("shed") + statuses.count("rejected") > 0, (
            "overload controls never engaged"
        )
        assert "completed" in statuses, "the service made no progress"
        for record in records:
            if record["status"] == "failed":
                assert record["detail"], "untyped failure"
        assert run.payload["committed"], "no registration survived to the WAL"
