"""One front door: the same requests through :class:`QueryService` over
every topology it can front.

The four stacks are an in-memory :class:`CobraVDBMS`, a durable one, a
one-shard fleet with two replicas (the replicated single kernel) and a
three-shard fleet. Each gets the same registrations, PROC and query, and
must give the same answers.
"""

import pytest

from repro.cobra.catalog import DomainKnowledge
from repro.cobra.vdbms import CobraVDBMS
from repro.durability import DurableStore
from repro.errors import (
    MilCheckError,
    QuerySyntaxError,
    RequestCancelled,
    TimeoutExpired,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience import CancellationToken
from repro.service import QueryService, ServiceConfig
from repro.sharding import ShardConfig, ShardedKernel
from tests.test_service import BOUNDED_HOP, SPIN_FOREVER, FakeClock
from tests.test_sharding import make_document

VIDEOS = ("race0", "race1", "race2")
QUERY = "RETRIEVE fly_out WHERE ROLE driver = HAKKINEN"


def in_memory(tmp_path):
    db = CobraVDBMS(check="off")
    db.register_domain(DomainKnowledge("f1"))
    return db


def durable(tmp_path):
    db = CobraVDBMS(check="off", store=DurableStore(tmp_path / "db", fsync=False))
    db.register_domain(DomainKnowledge("f1"))
    return db


def replicated(tmp_path, faults=None):
    return ShardedKernel(
        tmp_path, 1, ShardConfig(replication=2, fsync=False), faults=faults
    )


def three_shards(tmp_path, faults=None):
    return ShardedKernel(tmp_path, 3, ShardConfig(fsync=False), faults=faults)


STACKS = [in_memory, durable, replicated, three_shards]


def close(topology):
    topology.close()


def proc_answer(value):
    """A fleet gathers one value per shard; one kernel returns one."""
    values = getattr(value, "values", None)
    return set(values.values()) if values is not None else {value}


def rows(result):
    return [(r["video_id"], r["kind"], r["interval"]) for r in result.records]


def serve(topology):
    """The shared request script: 3 registrations, a PROC, a query, drain."""
    service = QueryService(topology)
    for video in VIDEOS:
        service.submit_register(make_document(video, n_events=2), "f1")
    service.run_until_idle()  # queries outrank registrations in the queue
    assert service.register_proc(BOUNDED_HOP) == ["hop"]
    hop = service.submit_proc_call("hop", (5,))
    answer = service.submit_query(QUERY)
    report = service.shutdown()
    assert report.counts() == {"completed": 5}, [str(r) for r in report.records]
    return rows(answer.result()), proc_answer(hop.result()), report


@pytest.mark.parametrize("stack", STACKS, ids=lambda s: s.__name__)
def test_every_stack_gives_the_same_answers(stack, tmp_path):
    expected_rows, expected_proc, _ = serve(in_memory(tmp_path / "oracle"))
    topology = stack(tmp_path / "stack")
    try:
        answer, proc, report = serve(topology)
    finally:
        close(topology)
    assert len(expected_rows) == 6
    assert answer == expected_rows
    assert proc == expected_proc == {5}
    assert report.all_terminal


@pytest.mark.parametrize("stack", STACKS, ids=lambda s: s.__name__)
def test_svc001_rejects_an_uncancellable_while_on_every_stack(stack, tmp_path):
    topology = stack(tmp_path)
    try:
        service = QueryService(topology)
        with pytest.raises(MilCheckError) as err:
            service.register_proc(SPIN_FOREVER)
        assert "SVC001" in [d.code for d in err.value.diagnostics]
    finally:
        close(topology)


@pytest.mark.parametrize("stack", STACKS, ids=lambda s: s.__name__)
@pytest.mark.parametrize(
    "condition", ["LAP = x", "CONFIDENCE >= high", "POSITION a = b"]
)
def test_a_bad_literal_is_a_query_syntax_error(stack, condition, tmp_path):
    topology = stack(tmp_path)
    try:
        topology.register_document(make_document("race0"), "f1")
        with pytest.raises(QuerySyntaxError, match="at token"):
            topology.query(f"RETRIEVE fly_out WHERE {condition}")
    finally:
        close(topology)


def test_a_failover_mid_run_keeps_serving_through_the_new_primary(tmp_path):
    fleet = replicated(tmp_path)
    group = fleet.shard("shard-0").group
    service = QueryService(fleet)
    for video in VIDEOS[:2]:
        service.submit_register(make_document(video), "f1")
    service.run_until_idle()
    deposed = group.primary
    group.failover()
    service.submit_register(make_document(VIDEOS[2]), "f1")
    service.run_until_idle()
    answer = service.submit_query(QUERY)
    report = service.shutdown()
    assert report.counts() == {"completed": 4}
    assert sorted(r["video_id"] for r in answer.result().records) == list(VIDEOS)
    # the stale lease is fenced once and the write retried on the new
    # primary, so no acknowledged write is lost to the fence
    assert report.sharding.fenced_retries == 1
    assert report.sharding.shards[0].failovers == 1
    assert group.primary is not deposed
    assert fleet.shard("shard-0").view()._has_rows_for(VIDEOS[2])
    fleet.close()


def test_service_procs_reach_every_shard(tmp_path):
    fleet = three_shards(tmp_path)
    service = QueryService(fleet)
    service.register_proc("PROC two() : int := { RETURN 2; }")
    ticket = service.submit_proc_call("two")
    service.run_until_idle()
    assert ticket.result().values == {f"shard-{i}": 2 for i in range(3)}
    fleet.close()


class TestFleetCancellation:
    def test_a_cancelled_token_stops_every_fleet_call(self, tmp_path):
        fleet = three_shards(tmp_path)
        fleet.register_document(make_document("race0"), "f1")
        fleet.run("PROC two() : int := { RETURN 2; }")
        token = CancellationToken()
        token.cancel("client gave up")
        with pytest.raises(RequestCancelled):
            fleet.query(QUERY, token=token)
        with pytest.raises(RequestCancelled):
            fleet.call("two", token=token)
        with pytest.raises(RequestCancelled):
            fleet.register_document(make_document("race1"), "f1", token=token)
        assert sorted(fleet.placements()) == ["race0"]
        fleet.close()

    def test_an_over_budget_fleet_query_times_out_without_blaming_the_shard(
        self, tmp_path
    ):
        stall = FaultPlan(
            seed=1,
            name="stalled-shard",
            specs=(
                FaultSpec(
                    site="sharding.transport:*", kind="stall", delay=2.0, max_triggers=1
                ),
            ),
        )
        # one blamed sub-request would open a breaker
        fleet = ShardedKernel(
            tmp_path,
            3,
            ShardConfig(fsync=False, failure_threshold=1),
            faults=FaultInjector(stall),
        )
        fleet.register_document(make_document("race0"), "f1")
        service = QueryService(fleet, ServiceConfig(interactive_budget=0.05))
        ticket = service.submit_query(QUERY)
        report = service.run_until_idle()
        assert ticket.status == "timed-out"
        assert report.records[0].detail == "TimeoutExpired"
        assert all(s.breaker == "closed" for s in fleet.status().shards)
        fleet.close()

    @pytest.mark.parametrize("gives_up", ["expired", "cancelled"])
    def test_a_caller_giving_up_mid_probe_gives_the_probe_back(
        self, gives_up, tmp_path
    ):
        clock = FakeClock()

        def stall(seconds):
            # the caller gives up while the recovering shard answers its probe
            if gives_up == "cancelled":
                token.cancel("client gave up")
            else:
                clock.now += 2.0

        probe_stall = FaultPlan(
            seed=1,
            name="stalled-probe",
            specs=(
                FaultSpec(
                    site="sharding.transport:shard-0",
                    kind="stall",
                    delay=0.05,
                    max_triggers=1,
                ),
            ),
        )
        fleet = ShardedKernel(
            tmp_path,
            3,
            ShardConfig(fsync=False, failure_threshold=1, recovery_timeout=10.0),
            faults=FaultInjector(probe_stall, sleep=stall),
            clock=clock,
        )
        for video in VIDEOS:
            fleet.register_document(make_document(video), "f1")
        breaker = fleet.shard("shard-0").breaker
        breaker.record_failure()
        clock.now += 11.0
        assert breaker.state == "half_open"
        token = CancellationToken(1.0, clock=clock)
        with pytest.raises((TimeoutExpired, RequestCancelled)):
            fleet.query(QUERY, token=token)
        result = fleet.query(QUERY)
        assert "shard-0" in result.coverage.answered
        assert breaker.state == "closed"
        fleet.close()
