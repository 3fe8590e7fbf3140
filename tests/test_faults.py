"""Chaos suite: fault injection, resilience primitives, fault-tolerant
execution across all three architecture levels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExtractionError,
    InjectedPermanentError,
    InjectedTransientError,
    PermanentError,
    ReproError,
    TransientError,
    TransientExtractionError,
    annotate,
    is_transient,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    get_plan,
    install_global,
    plan_names,
    resolve_injector,
)
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FailureReport,
    ResiliencePolicy,
    RetryPolicy,
)


@pytest.fixture(autouse=True)
def _no_global_plan(monkeypatch):
    """Keep each test's injector explicit: clear env plan + global install."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    install_global(None)
    yield
    install_global(None)


def no_sleep(_seconds: float) -> None:
    pass


class TestErrorTaxonomy:
    def test_transient_permanent_split(self):
        assert issubclass(TransientError, ReproError)
        assert issubclass(PermanentError, ReproError)
        assert is_transient(InjectedTransientError("x"))
        assert not is_transient(InjectedPermanentError("x"))
        assert is_transient(TransientExtractionError("x"))
        assert issubclass(TransientExtractionError, ExtractionError)

    def test_annotate_records_notes(self):
        error = ValueError("base")
        annotate(error, "extra context")
        assert "extra context" in getattr(error, "context_notes", [])


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ReproError):
            FaultSpec(site="x", kind="explode")
        with pytest.raises(ReproError):
            FaultSpec(site="x", rate=1.5)
        with pytest.raises(ReproError):
            FaultSpec(site="", kind="fail")

    def test_trigger_decision_is_deterministic(self):
        plan = FaultPlan(seed=42, specs=(FaultSpec(site="s", rate=0.3),))
        first = [plan.triggers(0, "s", i) for i in range(50)]
        second = [plan.triggers(0, "s", i) for i in range(50)]
        assert first == second
        assert any(first) and not all(first)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, specs=(FaultSpec(site="s", rate=0.5),))
        b = FaultPlan(seed=2, specs=(FaultSpec(site="s", rate=0.5),))
        assert [a.triggers(0, "s", i) for i in range(64)] != [
            b.triggers(0, "s", i) for i in range(64)
        ]

    def test_named_plans_resolve(self):
        for name in plan_names():
            assert get_plan(name).specs
        with pytest.raises(ReproError):
            get_plan("definitely-not-a-plan")


class TestFaultInjector:
    def test_disabled_injector_is_inert(self):
        injector = FaultInjector.disabled()
        assert not injector.enabled
        injector.on_call("anything")
        assert not injector.should_drop("anything")
        values = np.ones(10)
        assert injector.corrupt_array("anything", values) is values
        assert injector.injections == []

    def test_fail_transient_and_permanent(self):
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(site="t", kind="fail", transient=True),
                FaultSpec(site="p", kind="fail", transient=False),
            ),
        )
        injector = FaultInjector(plan)
        with pytest.raises(InjectedTransientError):
            injector.on_call("t")
        with pytest.raises(InjectedPermanentError):
            injector.on_call("p")
        assert [i.kind for i in injector.injections] == ["fail", "fail"]

    def test_delay_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="d", kind="delay", delay=0.25),)
        )
        injector = FaultInjector(plan, sleep=slept.append)
        injector.on_call("d")
        assert slept == [0.25]

    def test_site_globbing(self):
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="kernel.command:*", kind="fail"),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(InjectedTransientError):
            injector.on_call("kernel.command:hmmP")
        injector.on_call("extractor:flyout")  # no match, no fault

    def test_max_triggers(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(site="s", kind="drop", rate=1.0, max_triggers=2),),
        )
        injector = FaultInjector(plan)
        results = [injector.should_drop("s") for _ in range(5)]
        assert results == [True, True, False, False, False]

    def test_skip_lets_the_first_invocations_of_a_site_pass(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(site="s*", kind="drop", skip=2, max_triggers=1),),
        )
        injector = FaultInjector(plan)
        assert [injector.should_drop("s1") for _ in range(4)] == [
            False, False, True, False,
        ]
        with pytest.raises(ReproError, match="skip"):
            FaultSpec(site="s", skip=-1)

    def test_corrupt_array_deterministic_and_bounded(self):
        plan = FaultPlan(
            seed=9, specs=(FaultSpec(site="a", kind="corrupt", severity=0.3),)
        )
        values = np.linspace(0.2, 0.9, 200)
        one = FaultInjector(plan).corrupt_array("a", values)
        two = FaultInjector(plan).corrupt_array("a", values)
        assert one is not values
        assert one.shape == values.shape
        np.testing.assert_array_equal(one, two)
        assert not np.array_equal(one, values)

    def test_corrupt_text_deterministic(self):
        plan = FaultPlan(
            seed=3, specs=(FaultSpec(site="t", kind="corrupt", severity=0.5),)
        )
        one = FaultInjector(plan).corrupt_text("t", "SCHUMACHER")
        two = FaultInjector(plan).corrupt_text("t", "SCHUMACHER")
        assert one == two
        assert len(one) == len("SCHUMACHER")
        assert one != "SCHUMACHER"

    def test_frame_loss_mask_spares_first_frame(self):
        plan = FaultPlan(
            seed=4, specs=(FaultSpec(site="v", kind="corrupt", severity=0.2),)
        )
        mask = FaultInjector(plan).frame_loss_mask("v", 100)
        assert mask is not None
        assert not mask[0]
        assert 0 < int(mask.sum()) <= 20

    def test_counts_summary(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec(site="s", kind="drop"),))
        injector = FaultInjector(plan)
        injector.should_drop("s")
        injector.should_drop("s")
        assert injector.counts() == {"drop@s": 2}


class TestGlobalInjector:
    def test_env_var_enables_global_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kernel-transient")
        injector = resolve_injector(None)
        assert injector.enabled
        assert injector.plan is not None and injector.plan.name == "kernel-transient"

    def test_no_env_no_injection(self):
        assert not resolve_injector(None).enabled

    def test_explicit_install_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kernel-transient")
        mine = FaultInjector(FaultPlan(seed=5, specs=(FaultSpec(site="x"),)))
        install_global(mine)
        assert resolve_injector(None) is mine

    def test_resolve_accepts_plan(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(site="x"),))
        injector = resolve_injector(plan)
        assert injector.enabled and injector.plan is plan


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining() == float("inf")
        deadline.check("anywhere")

    def test_expiry_with_fake_clock(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(1.0)
        now[0] = 2.0
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("kernel.command:hmmP")
        assert info.value.site == "kernel.command:hmmP"


class TestRetryPolicy:
    def test_backoff_sequence_and_bounded_attempts(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.01, multiplier=2.0, sleep=slept.append
        )
        calls = []

        def always_transient():
            calls.append(1)
            raise InjectedTransientError("nope")

        with pytest.raises(InjectedTransientError):
            policy.call(always_transient)
        assert len(calls) == 4
        assert slept == [0.01, 0.02, 0.04]

    def test_succeeds_after_transient_glitch(self):
        policy = RetryPolicy(max_attempts=3, sleep=no_sleep)
        state = {"failures": 2}

        def flaky():
            if state["failures"]:
                state["failures"] -= 1
                raise InjectedTransientError("glitch")
            return "ok"

        retries = []
        assert policy.call(flaky, on_retry=lambda n, e: retries.append(n)) == "ok"
        assert retries == [1, 2]

    def test_permanent_not_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)
        calls = []

        def permanent():
            calls.append(1)
            raise InjectedPermanentError("broken")

        with pytest.raises(InjectedPermanentError):
            policy.call(permanent)
        assert len(calls) == 1

    def test_circuit_open_not_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)
        calls = []

        def open_circuit():
            calls.append(1)
            raise CircuitOpenError("open")

        with pytest.raises(CircuitOpenError):
            policy.call(open_circuit)
        assert len(calls) == 1

    def test_deadline_bounds_retry_loop(self):
        now = [0.0]

        def clock():
            now[0] += 0.4
            return now[0]

        policy = RetryPolicy(max_attempts=10, base_delay=0.01, sleep=no_sleep)
        deadline = Deadline(1.0, clock=clock)
        with pytest.raises((DeadlineExceeded, InjectedTransientError)):
            policy.call(
                lambda: (_ for _ in ()).throw(InjectedTransientError("x")),
                deadline=deadline,
            )
        assert now[0] < 5.0  # gave up long before 10 attempts' worth of clock


class TestCircuitBreaker:
    def make(self, now):
        return CircuitBreaker(
            name="extractor:test",
            failure_threshold=3,
            recovery_timeout=10.0,
            clock=lambda: now[0],
        )

    def test_opens_after_threshold(self):
        now = [0.0]
        breaker = self.make(now)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()
        assert info.value.retry_after == pytest.approx(10.0)

    def test_half_open_then_close_on_success(self):
        now = [0.0]
        breaker = self.make(now)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 11.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.allow()  # trial call admitted
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_reopens_on_failure(self):
        now = [0.0]
        breaker = self.make(now)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 11.0
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_call_wrapper(self):
        now = [0.0]
        breaker = self.make(now)
        assert breaker.call(lambda: 5) == 5
        with pytest.raises(ValueError):
            breaker.call(lambda: (_ for _ in ()).throw(ValueError("x")))


def retry_fast(**kwargs) -> RetryPolicy:
    return RetryPolicy(sleep=no_sleep, **kwargs)


class TestKernelFaultTolerance:
    def test_transient_command_fault_retried(self):
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    site="kernel.command:wobble",
                    kind="fail",
                    transient=True,
                    max_triggers=1,
                ),
            ),
        )
        kernel = MonetKernel(
            faults=FaultInjector(plan),
            resilience=ResiliencePolicy(retry=retry_fast()),
        )
        kernel.register_command("wobble", lambda: 42)
        assert kernel.run("RETURN wobble();") == 42
        reports = kernel.drain_failures()
        assert [r.action for r in reports] == ["retried"]
        assert reports[0].site == "kernel.command:wobble"
        assert reports[0].transient

    def test_permanent_command_fault_raises(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(site="kernel.command:*", kind="fail", transient=False),),
        )
        kernel = MonetKernel(
            faults=FaultInjector(plan),
            resilience=ResiliencePolicy(retry=retry_fast()),
        )
        kernel.register_command("doomed", lambda: 1)
        with pytest.raises(InjectedPermanentError):
            kernel.run("RETURN doomed();")

    def test_five_percent_transient_faults_all_recovered(self):
        """The acceptance rate: 5% transient kernel faults, zero escapes."""
        kernel = MonetKernel(
            faults=get_plan("kernel-transient"),
            resilience=ResiliencePolicy(retry=retry_fast()),
        )
        kernel.register_command("work", lambda x: x + 1)
        for i in range(200):
            assert kernel.run(f"RETURN work({i});") == i + 1
        reports = kernel.drain_failures()
        assert reports, "a 5% plan should have triggered over 200 calls"
        assert all(r.action == "retried" for r in reports)
        # backoff bounds retries: never more than max_attempts - 1 per call
        assert max(r.attempts for r in reports) <= 2

    def test_deadline_expires_mid_parallel(self):
        now = [0.0]

        def clock():
            now[0] += 0.3
            return now[0]

        kernel = MonetKernel()
        kernel.register_command("slowstep", lambda: None)
        kernel.run(
            """
            PROC grind() : int := {
              VAR n := threadcnt(3);
              PARALLEL {
                slowstep(); slowstep(); slowstep(); slowstep();
                slowstep(); slowstep(); slowstep(); slowstep();
              }
              RETURN 1;
            }
            """
        )
        with pytest.raises(DeadlineExceeded):
            kernel.call("grind", deadline=Deadline(1.0, clock=clock))

    def test_per_call_timeout(self, monkeypatch):
        kernel = MonetKernel(
            resilience=ResiliencePolicy(retry=retry_fast(), call_timeout=1.0)
        )
        kernel.register_command("slow", lambda: "done")
        ticks = [0.0, 5.0]
        monkeypatch.setattr(
            "time.monotonic", lambda: ticks.pop(0) if ticks else 100.0
        )
        with pytest.raises(DeadlineExceeded):
            kernel.run("RETURN slow();")

    def test_transactional_rollback_is_byte_identical(self):
        kernel = MonetKernel()
        scores = BAT("str", "dbl")
        scores.insert_bulk(["a", "b", "c"], [0.1, 0.2, 0.3])
        kernel.persist("scores", scores)

        def poison():
            raise InjectedPermanentError("disk died")

        kernel.register_command("poison", poison)
        before_heads, before_tails = scores.heads(), scores.tails()
        with pytest.raises(InjectedPermanentError):
            kernel.run(
                """
                scores.insert("d", 0.4);
                scores.insert("e", 0.5);
                poison();
                """,
                transactional=True,
            )
        live = kernel.bat("scores")
        assert live is scores  # references survive the rollback
        assert live.heads() == before_heads
        assert live.tails() == before_tails
        reports = kernel.drain_failures()
        assert any(r.action == "rolled-back" for r in reports)

    def test_rollback_drops_bats_created_after_snapshot(self):
        kernel = MonetKernel()
        kernel.register_command("fail_now", lambda: (_ for _ in ()).throw(
            InjectedPermanentError("x")
        ))
        with pytest.raises(InjectedPermanentError):
            kernel.run(
                """
                VAR fresh := new(str, int);
                fresh.insert("k", 1);
                VAR kept := persist("fresh", fresh);
                fail_now();
                """,
                transactional=True,
            )
        assert "fresh" not in kernel.catalog_names()

    def test_query_budget_from_policy(self):
        kernel = MonetKernel(
            resilience=ResiliencePolicy(retry=retry_fast(), query_budget=-0.0)
        )
        kernel.register_command("noop", lambda: 1)
        # zero budget expires on the first statement tick
        with pytest.raises(DeadlineExceeded):
            kernel.run("noop(); noop();")


class TestMoaInvokeHook:
    def test_invoke_site_faulted(self):
        from repro.moa.extension import ExtensionRegistry, MoaExtension

        class Ext(MoaExtension):
            name = "demo"

            def operators(self):
                return {"op": lambda x: x * 2}

        plan = FaultPlan(
            seed=0, specs=(FaultSpec(site="moa.invoke:demo.op", kind="fail"),)
        )
        registry = ExtensionRegistry(faults=FaultInjector(plan))
        registry.register(Ext())
        with pytest.raises(InjectedTransientError):
            registry.invoke("demo", "op", [3])

    def test_invoke_clean_without_plan(self):
        from repro.moa.extension import ExtensionRegistry, MoaExtension

        class Ext(MoaExtension):
            name = "demo"

            def operators(self):
                return {"op": lambda x: x * 2}

        registry = ExtensionRegistry()
        registry.register(Ext())
        assert registry.invoke("demo", "op", [3]) == 6


class TestPreprocessorResilience:
    def make_db(self, extract, *, on_error="raise", quality=0.9):
        from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
        from repro.cobra.model import RawVideo, VideoDocument
        from repro.cobra.vdbms import CobraVDBMS

        knowledge = DomainKnowledge(domain="f1")
        knowledge.methods.append(
            ExtractionMethod(
                name="flaky_detector",
                produces=("fly_out",),
                extract=extract,
                cost=1.0,
                quality=quality,
            )
        )
        db = CobraVDBMS(
            resilience=ResiliencePolicy(retry=retry_fast(), on_error=on_error)
        )
        db.register_domain(knowledge)
        raw = RawVideo("race1", "synthetic://x", 60.0, 10.0, 192, 144, 16000)
        db.register_document(VideoDocument(raw=raw), "f1")
        return db

    @staticmethod
    def event(event_id="e1"):
        from repro.cobra.model import VideoEvent
        from repro.synth.annotations import Interval

        return VideoEvent(
            event_id=event_id,
            kind="fly_out",
            interval=Interval(5.0, 9.0),
        )

    def test_transient_extractor_retried_to_success(self):
        state = {"failures": 1}

        def extract(document):
            if state["failures"]:
                state["failures"] -= 1
                raise InjectedTransientError("decoder hiccup")
            return [self.event()]

        db = self.make_db(extract)
        result = db.query("RETRIEVE fly_out")
        assert len(result) == 1
        assert not result.degraded
        assert any(f.action == "retried" for f in result.failures)

    def test_permanent_failure_raises_in_strict_mode(self):
        def extract(document):
            raise RuntimeError("model file corrupt")

        db = self.make_db(extract)
        with pytest.raises(ExtractionError):
            db.query("RETRIEVE fly_out")

    def test_degrade_mode_answers_without_failed_kind(self):
        def extract(document):
            raise RuntimeError("model file corrupt")

        db = self.make_db(extract, on_error="degrade")
        result = db.query("RETRIEVE fly_out")
        assert len(result) == 0
        assert result.degraded
        assert result.report.dropped[0][0] == "fly_out"
        assert any("fly_out" in note for note in result.degradations())

    def test_breaker_opens_and_persists_across_queries(self):
        calls = []

        def extract(document):
            calls.append(1)
            raise InjectedTransientError("always down")

        db = self.make_db(extract, on_error="degrade")
        for _ in range(3):
            db.query("RETRIEVE fly_out")
        breaker = db._breakers["flaky_detector"]
        assert breaker.state == CircuitBreaker.OPEN
        attempts_before = len(calls)
        result = db.query("RETRIEVE fly_out")  # circuit open: fails fast
        assert len(calls) == attempts_before
        assert any(f.error == "CircuitOpenError" for f in result.failures)

    def test_failed_extraction_rolls_back_event_store(self):
        def extract(document):
            half = [self.event("good")]
            # the events are fine; storage will be poisoned instead
            return half

        db = self.make_db(extract)
        # poison store_event for the first call only
        original = db.metadata.store_event
        state = {"poisoned": True}

        def poisoned_store(video_id, event):
            if state["poisoned"]:
                state["poisoned"] = False
                raise InjectedPermanentError("BAT write failed")
            return original(video_id, event)

        db.metadata.store_event = poisoned_store
        with pytest.raises(InjectedPermanentError):
            db.query("RETRIEVE fly_out")
        # neither the BAT store nor the in-memory document kept the event
        assert not db.metadata.has_events("race1", "fly_out")
        assert "good" not in db.document("race1").events
        # second run succeeds cleanly and stores it
        result = db.query("RETRIEVE fly_out")
        assert len(result) == 1


class TestFaultsCli:
    def test_list_runs(self, capsys):
        from repro.faults.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in plan_names():
            assert name in out

    def test_requires_plan(self):
        from repro.faults.__main__ import main

        with pytest.raises(SystemExit):
            main([])
