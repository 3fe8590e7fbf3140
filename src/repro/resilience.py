"""Resilient-execution primitives shared by all three architecture levels.

A production video DBMS answers queries over messy broadcast material: slow
extractors, transient kernel glitches, whole modalities that fail to decode.
This module supplies the machinery the kernel (`repro.monet`), the algebra
(`repro.moa`) and the conceptual level (`repro.cobra`) use to keep going:

* :class:`Deadline` — a monotonic-clock budget shared per call or per query;
  an expired check raises :class:`repro.errors.TimeoutExpired` carrying the
  site and the overshoot, so ``FailureReport.from_exception`` classifies it
  as transient,
* :class:`CancellationToken` — a Deadline that can also be cancelled
  cooperatively; hot loops across all three levels call
  :func:`cancel_checkpoint` against the ambient token installed by
  :func:`cancel_scope`, so an expired or cancelled request stops doing work
  within one kernel step,
* :class:`RetryPolicy` — bounded retry with exponential backoff, applied only
  to :class:`repro.errors.TransientError`; ``TimeoutExpired``,
  ``OverloadError`` and ``CircuitOpenError`` are transient but excluded by
  default so exhausted budgets, saturated services and open circuits fail
  fast instead of being hammered,
* :class:`CircuitBreaker` — closed/open/half-open protection around each
  registered extractor so a persistently failing method fails fast; in the
  half-open state exactly one in-flight probe is allowed at a time,
* :class:`FailureReport` — the structured record that replaces raw
  tracebacks on ``QueryResult`` / ``PreprocessReport``,
* :class:`ResiliencePolicy` — the bundle of the above a `CobraVDBMS` or
  `MonetKernel` is configured with.

Everything takes an injectable clock/sleep so chaos tests are deterministic.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    OverloadError,
    RequestCancelled,
    TimeoutExpired,
    TransientError,
    is_transient,
)

__all__ = [
    "Deadline",
    "CancellationToken",
    "cancel_scope",
    "current_token",
    "cancel_checkpoint",
    "RetryPolicy",
    "CircuitBreaker",
    "FailureReport",
    "ResiliencePolicy",
]


class Deadline:
    """A monotonic-clock time budget.

    ``Deadline(None)`` never expires; :meth:`after` starts a finite budget
    now. Checks are cooperative — long-running Python calls are measured
    after the fact, which still bounds retries and multi-statement work.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(
        self,
        budget_seconds: float | None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        if budget_seconds is None:
            self._expires_at: float | None = None
        else:
            if budget_seconds < 0:
                raise TimeoutExpired(
                    "deadline created already expired",
                    overshoot=-budget_seconds,
                )
            self._expires_at = clock() + budget_seconds

    @classmethod
    def after(
        cls, seconds: float | None, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(seconds, clock=clock)

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self._clock() >= self._expires_at

    def remaining(self) -> float:
        """Seconds left; ``inf`` for an unbounded deadline, floored at 0."""
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - self._clock())

    def check(self, site: str = "") -> None:
        """Raise :class:`repro.errors.TimeoutExpired` if the budget is spent.

        The raised error carries the checkpoint ``site`` and the overshoot
        (how far past the deadline the check noticed the expiry), and is
        classified as transient by :meth:`FailureReport.from_exception` —
        the same work may succeed under a fresh budget.
        """
        if self._expires_at is None:
            return
        now = self._clock()
        if now >= self._expires_at:
            raise TimeoutExpired(
                "deadline exceeded",
                site=site or None,
                overshoot=now - self._expires_at,
            )


class CancellationToken(Deadline):
    """A :class:`Deadline` that can additionally be cancelled cooperatively.

    One token rides along with each service request, from admission through
    the conceptual preprocessor into Moa evaluation, MIL interpretation,
    DBN inference steps and per-chunk frame extraction. Hot loops call
    :meth:`check` (directly, where a deadline is already threaded through)
    or :func:`cancel_checkpoint` (against the ambient token installed with
    :func:`cancel_scope`), and the first checkpoint after :meth:`cancel`
    or deadline expiry raises — so a cancelled request stops consuming
    kernel steps within one MIL statement / block of inference steps /
    frame chunk.
    """

    __slots__ = ("_cancelled", "_cancel_reason")

    def __init__(
        self,
        budget_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(budget_seconds, clock=clock)
        self._cancelled = False
        self._cancel_reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation; idempotent and thread-safe.

        (A plain attribute write: booleans are atomic under the GIL and
        the flag only ever flips False -> True.)
        """
        if not self._cancelled:
            self._cancel_reason = reason
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def check(self, site: str = "") -> None:
        """Raise :class:`RequestCancelled` when cancelled, else defer to the
        deadline check (:class:`TimeoutExpired` when the budget is spent)."""
        if self._cancelled:
            raise RequestCancelled(
                self._cancel_reason or "request cancelled", site=site or None
            )
        super().check(site)


#: The ambient token of the request currently executing on this thread /
#: context. Low layers (MIL statement dispatch, DBN inference, per-chunk
#: frame extraction) consult it through :func:`cancel_checkpoint` so cancellation
#: propagates without threading a token through every signature.
_CURRENT_TOKEN: contextvars.ContextVar[CancellationToken | None] = (
    contextvars.ContextVar("repro_cancellation_token", default=None)
)


def current_token() -> CancellationToken | None:
    """The ambient :class:`CancellationToken`, or None outside any scope."""
    return _CURRENT_TOKEN.get()


def cancel_scope(token: CancellationToken | None) -> "_CancelScope":
    """Install ``token`` as the ambient cancellation token for this context.

    ``ParallelExecutor`` propagates the context into worker threads, so
    checkpoints inside PARALLEL branches observe the same token. ``None``
    installs nothing: the enclosing scope's token, if any, stays in force.
    """
    return _CancelScope(token)


class _CancelScope:
    # A plain class rather than a @contextmanager generator: it wraps every
    # query and registration, where the generator measurably raised the
    # ingest benchmark's peak memory.
    __slots__ = ("_token", "_handle")

    def __init__(self, token: CancellationToken | None):
        self._token = token

    def __enter__(self) -> CancellationToken | None:
        if self._token is not None:
            self._handle = _CURRENT_TOKEN.set(self._token)
        return self._token

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _CURRENT_TOKEN.reset(self._handle)


def cancel_checkpoint(site: str = "") -> None:
    """Cooperative cancellation checkpoint against the ambient token.

    A no-op outside any :func:`cancel_scope` (one context-variable read),
    so hot loops can call it unconditionally.
    """
    token = _CURRENT_TOKEN.get()
    if token is not None:
        token.check(site)


#: The longest backoff sleep between two retries (seconds).
MAX_RETRY_DELAY = 0.25
#: Transient errors :class:`RetryPolicy` never retries (see there).
GIVE_UP_ON: tuple[type[BaseException], ...] = (
    CircuitOpenError,
    TimeoutExpired,
    OverloadError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient faults.

    Only :class:`repro.errors.TransientError` is retried, and never the
    ones in :data:`GIVE_UP_ON`: :class:`repro.errors.CircuitOpenError`,
    :class:`repro.errors.TimeoutExpired` and
    :class:`repro.errors.OverloadError` are all transient (a later, fresh
    attempt may succeed) but retrying *now* — against an open circuit, an
    exhausted budget, or a saturated service — only makes the condition
    worse. Sleeps never exceed :data:`MAX_RETRY_DELAY` nor the active
    deadline's remaining budget.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    sleep: Callable[[float], None] = time.sleep

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.base_delay * self.multiplier ** (attempt - 1), MAX_RETRY_DELAY)

    def call(
        self,
        fn: Callable[[], Any],
        site: str = "",
        deadline: Deadline | None = None,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> Any:
        """Run ``fn`` with retries; returns its value or raises the last error.

        ``on_retry(attempt, error)`` fires before each backoff sleep so
        callers can log a :class:`FailureReport` per recovery.
        """
        attempt = 0
        while True:
            attempt += 1
            if deadline is not None:
                deadline.check(site)
            try:
                return fn()
            except TransientError as exc:
                if isinstance(exc, GIVE_UP_ON) or attempt >= self.max_attempts:
                    raise
                pause = self.delay_for(attempt)
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise TimeoutExpired(
                            "deadline exhausted during retry backoff",
                            site=site or None,
                            overshoot=0.0,
                        ) from exc
                    pause = min(pause, remaining)
                if on_retry is not None:
                    on_retry(attempt, exc)
                if pause > 0:
                    self.sleep(pause)


class CircuitBreaker:
    """Closed / open / half-open protection around one extractor.

    Closed: calls pass through; ``failure_threshold`` consecutive failures
    open the circuit. Open: calls raise :class:`CircuitOpenError` without
    running until ``recovery_timeout`` elapses. Half-open: exactly ONE trial
    call is let through at a time — :meth:`allow` hands the single probe
    slot to the first caller and fails every concurrent caller fast until
    the probe reports back (success closes the circuit, failure re-opens
    it). Without the slot, every worker of a saturated pool would probe the
    recovering extractor at once, re-creating the thundering herd the
    breaker exists to prevent.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 3,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        #: Whether the half-open state's single probe slot is taken.
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_state()

    def _probe_state(self) -> str:
        """Current state, promoting open -> half-open after the timeout."""
        if self._state == self.OPEN:
            assert self._opened_at is not None
            if self._clock() - self._opened_at >= self.recovery_timeout:
                self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> None:
        """Raise :class:`CircuitOpenError` when calls must not run.

        In the half-open state only a single in-flight probe is allowed:
        the first caller takes the probe slot; every concurrent caller
        fails fast with ``CircuitOpenError`` until the probe's outcome is
        recorded.
        """
        with self._lock:
            state = self._probe_state()
            if state == self.OPEN:
                assert self._opened_at is not None
                wait = self.recovery_timeout - (self._clock() - self._opened_at)
                raise CircuitOpenError(
                    f"circuit {self.name or '<anonymous>'} is open "
                    f"({self._consecutive_failures} consecutive failures)",
                    retry_after=max(wait, 0.0),
                )
            if state == self.HALF_OPEN:
                if self._probe_in_flight:
                    raise CircuitOpenError(
                        f"circuit {self.name or '<anonymous>'} is half-open "
                        f"with its probe already in flight",
                        retry_after=0.0,
                    )
                self._probe_in_flight = True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = self.CLOSED
            self._opened_at = None
            self._probe_in_flight = False

    def reset(self) -> None:
        """Operator re-arm: close the breaker and forget failure history.

        Unlike the half-open trial, this is unconditional — use it after a
        recovery/deploy when the operator knows the underlying extractor is
        healthy again and the breaker should not wait out its timeout.
        """
        self.record_success()

    def release_probe(self) -> None:
        """Give the half-open probe slot back without recording an outcome.

        For probes that did not run to a verdict — the caller's own budget
        expired or its request was cancelled mid-probe. The circuit stays
        half-open and the next caller may probe.
        """
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self._probe_state()
            if (
                state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
            self._probe_in_flight = False

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the breaker, recording the outcome."""
        self.allow()
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


@dataclass
class FailureReport:
    """One structured failure/degradation record (instead of a traceback).

    Attributes:
        site: where it happened (``kernel.command:hmmP``,
            ``extractor:flyout_visual``, ``extract.visual`` ...).
        error: exception class name.
        message: the exception message.
        transient: whether the fault was retryable.
        action: what the system did about it — ``"retried"``,
            ``"dropped"``, ``"rolled-back"``, ``"circuit-open"``,
            ``"masked"``, ``"failed"``.
        attempts: how many attempts had run when the record was made.
        detail: free-form extra context (dropped kind, masked nodes, ...).
    """

    site: str
    error: str
    message: str
    transient: bool
    action: str
    attempts: int = 1
    detail: str = ""

    @classmethod
    def from_exception(
        cls,
        site: str,
        exc: BaseException,
        action: str,
        attempts: int = 1,
        detail: str = "",
    ) -> "FailureReport":
        return cls(
            site=site,
            error=type(exc).__name__,
            message=str(exc),
            transient=is_transient(exc),
            action=action,
            attempts=attempts,
            detail=detail,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" [{self.detail}]" if self.detail else ""
        return (
            f"{self.site}: {self.error}({self.message!r}) -> "
            f"{self.action} after {self.attempts} attempt(s){extra}"
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """The fault-handling configuration of a kernel / VDBMS.

    Attributes:
        retry: backoff policy for transient faults.
        call_timeout: per-call budget (seconds) for guarded kernel commands
            and extractor invocations; ``None`` = unbounded.
        query_budget: per-query budget (seconds); ``None`` = unbounded.
        on_error: ``"raise"`` keeps the historical fail-fast behaviour;
            ``"degrade"`` drops what failed, records a
            :class:`FailureReport`, and answers from what survived.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    call_timeout: float | None = None
    query_budget: float | None = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_error must be 'raise' or 'degrade', got {self.on_error!r}"
            )

    @property
    def degrade(self) -> bool:
        return self.on_error == "degrade"

    def query_deadline(self) -> Deadline:
        return Deadline(self.query_budget)

    def new_breaker(self, name: str) -> CircuitBreaker:
        """A per-extractor breaker with :class:`CircuitBreaker`'s defaults."""
        return CircuitBreaker(name=name)
