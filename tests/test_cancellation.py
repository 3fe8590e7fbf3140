"""Deadline propagation and cooperative cancellation across the stack.

Covers the service-layer token machinery end to end: the
:class:`CancellationToken` / :class:`TimeoutExpired` taxonomy, the
ambient ``cancel_scope`` / ``cancel_checkpoint`` plumbing (including its
propagation into ``ParallelExecutor`` worker threads), the MIL
statement-level checkpoint ("a cancelled query stops within one MIL
statement"), mid-inference DBN cancellation, and the half-open
single-probe circuit-breaker fix.
"""

import numpy as np
import pytest

from repro.dbn.compiled import CompiledDbn
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.scan import SCAN_BLOCK
from repro.dbn.template import DbnTemplate
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    OverloadError,
    PermanentError,
    RequestCancelled,
    TimeoutExpired,
    TransientError,
)
from repro.monet.kernel import MonetKernel
from repro.monet.parallel import ParallelExecutor
from repro.resilience import (
    CancellationToken,
    CircuitBreaker,
    Deadline,
    FailureReport,
    RetryPolicy,
    cancel_checkpoint,
    cancel_scope,
    current_token,
)


class FakeClock:
    """A monotonic clock tests advance by hand."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class CountdownToken(CancellationToken):
    """Cancels itself at the N-th checkpoint — deterministic mid-loop stop."""

    def __init__(self, trips: int):
        super().__init__(None)
        self._trips = trips
        self.checks = 0

    def check(self, site: str = "") -> None:
        self.checks += 1
        self._trips -= 1
        if self._trips <= 0:
            self.cancel("countdown reached zero")
        super().check(site)


def two_chain(seed: int = 42) -> DbnTemplate:
    t = DbnTemplate()
    t.add_node("X", 2)
    t.add_node("Y", 2)
    t.add_node("F", 2, observed=True)
    t.add_node("G", 3, observed=True)
    t.add_intra_edge("X", "Y")
    t.add_intra_edge("Y", "F")
    t.add_intra_edge("X", "G")
    t.add_inter_edge("X", "X")
    t.add_inter_edge("Y", "Y")
    t.randomize(np.random.default_rng(seed))
    t.validate()
    return t


class TestCancellationToken:
    def test_unbounded_uncancelled_check_is_noop(self):
        token = CancellationToken(None)
        token.check("anywhere")
        assert not token.cancelled

    def test_cancel_raises_request_cancelled_with_site_and_reason(self):
        token = CancellationToken(None)
        token.cancel("client closed the connection")
        with pytest.raises(RequestCancelled) as err:
            token.check("mil.statement")
        assert err.value.site == "mil.statement"
        assert "client closed the connection" in str(err.value)

    def test_cancel_is_idempotent(self):
        token = CancellationToken(None)
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        with pytest.raises(RequestCancelled):
            token.check()

    def test_deadline_expiry_raises_timeout_expired_with_overshoot(self):
        clock = FakeClock()
        token = CancellationToken(1.0, clock=clock)
        token.check("early")  # within budget
        clock.now = 2.5
        with pytest.raises(TimeoutExpired) as err:
            token.check("dbn.filter")
        assert err.value.site == "dbn.filter"
        assert err.value.overshoot == pytest.approx(1.5)

    def test_cancellation_outranks_deadline(self):
        clock = FakeClock()
        token = CancellationToken(1.0, clock=clock)
        clock.now = 5.0
        token.cancel("stopped before anyone noticed the deadline")
        with pytest.raises(RequestCancelled):
            token.check()


class TestErrorTaxonomy:
    def test_timeout_expired_is_transient_and_deadline_exceeded(self):
        assert issubclass(TimeoutExpired, TransientError)
        assert issubclass(TimeoutExpired, DeadlineExceeded)
        exc = TimeoutExpired("budget spent", site="kernel.command:sort", overshoot=0.2)
        assert isinstance(exc, TransientError)
        assert exc.site == "kernel.command:sort"

    def test_request_cancelled_is_neither_transient_nor_permanent(self):
        assert not issubclass(RequestCancelled, TransientError)
        assert not issubclass(RequestCancelled, PermanentError)

    def test_failure_report_classifies_timeout_as_transient(self):
        report = FailureReport.from_exception(
            "svc", TimeoutExpired("spent", site="s"), action="gave-up"
        )
        assert report.transient
        cancelled = FailureReport.from_exception(
            "svc", RequestCancelled("stopped"), action="cancelled"
        )
        assert not cancelled.transient

    def test_retry_policy_gives_up_immediately_on_timeout(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        attempts = []

        def spender():
            attempts.append(1)
            raise TimeoutExpired("budget spent", site="x")

        with pytest.raises(TimeoutExpired):
            policy.call(spender, site="test")
        assert len(attempts) == 1

    def test_retry_policy_gives_up_immediately_on_overload(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        attempts = []

        def saturated():
            attempts.append(1)
            raise OverloadError("queue full", reason="queue-full")

        with pytest.raises(OverloadError):
            policy.call(saturated, site="test")
        assert len(attempts) == 1

    def test_retry_policy_still_retries_plain_transients(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise TransientError("blip")
            return "ok"

        assert policy.call(flaky, site="test") == "ok"
        assert len(attempts) == 2


class TestAmbientScope:
    def test_no_token_outside_any_scope(self):
        assert current_token() is None
        cancel_checkpoint("hot.loop")  # must be a no-op, not an error

    def test_scope_installs_and_restores(self):
        token = CancellationToken(None)
        assert current_token() is None
        with cancel_scope(token):
            assert current_token() is token
            inner = CancellationToken(None)
            with cancel_scope(inner):
                assert current_token() is inner
            assert current_token() is token
        assert current_token() is None

    def test_checkpoint_raises_inside_cancelled_scope(self):
        token = CancellationToken(None)
        token.cancel("stop")
        with cancel_scope(token):
            with pytest.raises(RequestCancelled) as err:
                cancel_checkpoint("moa.map")
        assert err.value.site == "moa.map"

    def test_parallel_executor_propagates_token_into_workers(self):
        token = CancellationToken(None)
        executor = ParallelExecutor(threads=2)
        with cancel_scope(token):
            seen = executor.run([lambda: current_token() is token] * 4)
        assert seen == [True] * 4

    def test_parallel_branches_observe_cancellation(self):
        token = CancellationToken(None)
        token.cancel("stop the fan-out")
        executor = ParallelExecutor(threads=2)

        def probe():
            try:
                cancel_checkpoint("branch")
                return "ran"
            except RequestCancelled:
                return "stopped"

        with cancel_scope(token):
            outcomes = executor.run([probe] * 3)
        assert outcomes == ["stopped"] * 3


class TestMilCancellation:
    def test_cancelled_run_stops_within_one_statement(self):
        """After the cancel lands, not a single further MIL statement runs."""
        kernel = MonetKernel()
        ticks = []
        token = CancellationToken(None)
        kernel.register_command("tick", lambda: ticks.append(1) or len(ticks))
        kernel.register_command("trip", lambda: token.cancel("mid-run") or 0)
        source = """
        VAR a := tick();
        VAR b := trip();
        VAR c := tick();
        VAR d := tick();
        RETURN d;
        """
        with cancel_scope(token):
            with pytest.raises(RequestCancelled) as err:
                kernel.run(source)
        assert ticks == [1], "statements after the cancel must not execute"
        assert err.value.site == "mil.statement"

    def test_cancelpoint_builtin_is_noop_outside_scope(self):
        kernel = MonetKernel()
        assert kernel.run("RETURN cancelpoint();") == 0

    def test_cancelpoint_observes_cancelled_token(self):
        kernel = MonetKernel()
        token = CancellationToken(None)
        token.cancel("stop")
        with cancel_scope(token):
            with pytest.raises(RequestCancelled):
                kernel.run("RETURN cancelpoint();")

    def test_deadline_on_call_uses_timeout_expired(self):
        clock = FakeClock()
        kernel = MonetKernel()
        kernel.register_command("step", lambda: 0)
        deadline = Deadline(1.0, clock=clock)
        clock.now = 3.0
        with pytest.raises(TimeoutExpired) as err:
            kernel.run("RETURN step();", deadline=deadline)
        assert err.value.overshoot == pytest.approx(2.0)


class TestDbnCancellation:
    """The scan kernel polls once per block of ``SCAN_BLOCK`` steps."""

    BLOCKS = 12

    def _long_evidence(self, template):
        steps = 1 + self.BLOCKS * SCAN_BLOCK
        rng = np.random.default_rng(0)
        return EvidenceSequence(
            template,
            hard={"F": rng.integers(0, 2, steps), "G": rng.integers(0, 3, steps)},
        )

    def _cancelled_at_tenth_block(self, method):
        template = two_chain()
        evidence = self._long_evidence(template)
        dbn = CompiledDbn(template)
        token = CountdownToken(trips=10)
        with cancel_scope(token):
            with pytest.raises(RequestCancelled) as err:
                getattr(dbn, method)(evidence)
        assert token.checks == 10  # ten blocks in, of twelve
        return err.value.site

    def test_cancellation_mid_filter(self):
        """The forward pass stops at a block checkpoint, not at the end."""
        assert self._cancelled_at_tenth_block("filter") == "dbn.filter"

    def test_cancellation_mid_smooth(self):
        assert self._cancelled_at_tenth_block("smooth") == "dbn.smooth"

    def test_one_checkpoint_per_block(self):
        template = two_chain()
        evidence = self._long_evidence(template)
        dbn = CompiledDbn(template)
        token = CountdownToken(trips=10**9)
        with cancel_scope(token):
            dbn.filter(evidence)
        assert token.checks == self.BLOCKS
        token = CountdownToken(trips=10**9)
        with cancel_scope(token):
            dbn.smooth(evidence)  # forward and backward
        assert token.checks == 2 * self.BLOCKS

    def test_deadline_mid_filter(self):
        """An expiring budget surfaces as TimeoutExpired from inside the loop."""
        template = two_chain()
        evidence = self._long_evidence(template)
        dbn = CompiledDbn(template)
        clock = FakeClock()

        def ticking():
            clock.now += 1.0
            return clock.now

        token = CancellationToken(10.0, clock=ticking)
        with cancel_scope(token):
            with pytest.raises(TimeoutExpired) as err:
                dbn.filter(evidence)
        assert err.value.site == "dbn.filter"

    def test_uncancelled_scope_leaves_inference_untouched(self):
        template = two_chain()
        evidence = self._long_evidence(template)
        dbn = CompiledDbn(template)
        baseline = dbn.filter(evidence)
        smoothed = dbn.smooth(evidence)
        with cancel_scope(CancellationToken(None)):
            scoped = dbn.filter(evidence)
            scoped_smooth = dbn.smooth(evidence)
        np.testing.assert_array_equal(baseline.gamma, scoped.gamma)
        assert baseline.log_likelihood == scoped.log_likelihood
        np.testing.assert_array_equal(smoothed.gamma, scoped_smooth.gamma)


class TestHalfOpenProbe:
    """The circuit breaker admits exactly one half-open probe at a time."""

    def _tripped_breaker(self, clock):
        breaker = CircuitBreaker(
            "probe-test", failure_threshold=1, recovery_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        return breaker

    def test_concurrent_half_open_callers_fail_fast(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # still open
        clock.now += 6.0
        breaker.allow()  # first caller takes the probe slot
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # second caller must not also probe

    def test_release_probe_frees_the_slot_without_a_verdict(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        clock.now += 6.0
        breaker.allow()
        breaker.release_probe()  # probe was cancelled mid-flight
        breaker.allow()  # the slot is available again
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_probe_success_closes_the_circuit(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        clock.now += 6.0
        breaker.allow()
        breaker.record_success()
        breaker.allow()
        breaker.allow()  # closed: unlimited callers again

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        clock.now += 6.0
        breaker.allow()
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.allow()
