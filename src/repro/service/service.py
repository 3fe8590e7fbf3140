"""The overload-safe query service in front of one :class:`Topology`.

The paper's prototype serves one interactive client; the service layer is
what stands between that prototype and real traffic. It fronts exactly one
object through one small surface (:class:`Topology`): a
:class:`repro.cobra.vdbms.CobraVDBMS`, in memory or durable, or a
:class:`repro.sharding.ShardedKernel` — a one-shard fleet with
``ShardConfig(replication=N)`` is the replicated single kernel. Every
request passes through the same pipeline:

1. **admission** — synchronous, under one lock: the drain gate, the
   token-bucket rate limiter, then the bounded priority queue (with the
   shed-oldest policy under saturation). Rejections are typed
   :class:`repro.errors.OverloadError`\\ s, never silent.
2. **execution** — per-lane bulkhead executors; each request runs under
   its own :class:`CancellationToken` (deadline + explicit cancel) which
   the whole stack observes through ambient checkpoints, down to MIL
   statement dispatch.
3. **completion** — the outcome lands on the request record; a ticket
   lets the submitter read the result or the typed failure.

Two execution modes:

* :meth:`QueryService.run_until_idle` — synchronous, deterministic: the
  queue drains in (priority, arrival) order, lane batches run through the
  bulkhead pool, and the resulting :class:`ServiceReport` is byte-equal
  across runs of the same scenario + seeded fault plan.
* :meth:`QueryService.start` — background worker threads per lane, for
  callers that need mid-flight cancellation; :meth:`QueryService.shutdown`
  drains gracefully either way.

Shutdown semantics: admissions stop immediately (``reason="draining"``),
in-flight and queued work is finished while the drain deadline lasts,
whatever remains is cancelled/shed with typed errors, and the topology is
flushed (:meth:`Topology.flush`: WAL checkpoints, replica shipping) so
nothing admitted-and-completed can be lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol

from repro.errors import (
    OverloadError,
    ReproError,
    RequestCancelled,
    TimeoutExpired,
)
from repro.resilience import CancellationToken, Deadline
from repro.service.limiter import TokenBucket
from repro.service.metrics import RequestRecord, ServiceReport
from repro.service.pool import BulkheadPool
from repro.service.queue import AdmissionQueue, Priority

if TYPE_CHECKING:
    from repro.cobra.vdbms import QueryResult
    from repro.faults import FaultInjector

__all__ = ["ServiceConfig", "Request", "Ticket", "QueryService", "Topology"]

#: Bulkhead lane name -> worker width. Width 1 keeps lanes strictly
#: serial, which is what the deterministic-report acceptance bar requires.
DEFAULT_LANES: Mapping[str, int] = {"interactive": 1, "batch": 1}


class Topology(Protocol):
    """Everything :class:`QueryService` calls on the one object it fronts;
    :class:`repro.cobra.vdbms.CobraVDBMS` and
    :class:`repro.sharding.ShardedKernel` implement it. Each call runs
    with ``token`` as the ambient cancellation token."""

    faults: "FaultInjector"  # consulted for burst faults on every arrival

    def query(self, coql: str, token: CancellationToken | None = None) -> "QueryResult":
        """A sharded answer carries its ``coverage``."""

    def register_document(
        self, document: Any, domain: str, token: CancellationToken | None = None
    ) -> str | None:
        """Returns the owning shard, when there are shards."""

    def call(self, name: str, args: tuple = (), token: CancellationToken | None = None) -> Any:
        """Call a PROC defined through :meth:`register_proc`."""

    def register_proc(self, mil_source: str) -> list[str]:
        """Define PROCs that pass the ``service`` check stage (SVC001,
        CALLnnn) against the topology's own kernel(s); returns their names."""

    def flush(self) -> int | None:
        """Make everything acknowledged durable and converged; returns the
        seqno of the checkpoint written when the topology has one log,
        else None."""

    def status(self) -> Any:
        """The report's ``sharding`` block; None for one kernel."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for admission control and execution.

    Attributes:
        queue_capacity: bound on queued (not yet running) requests.
        interactive_budget: per-request deadline (seconds) for interactive
            queries; None = unbounded.
        batch_budget: per-request deadline for batch work; None = unbounded.
        rate_limit: sustained admissions per second (token-bucket refill);
            None disables rate limiting.
        rate_burst: token-bucket capacity (burst allowance).
        shed_policy: ``"oldest"`` evicts the oldest least-urgent queued
            request to admit a newcomer under saturation; ``"reject"``
            refuses the newcomer instead.
    """

    queue_capacity: int = 8
    interactive_budget: float | None = None
    batch_budget: float | None = None
    rate_limit: float | None = None
    rate_burst: int = 4
    shed_policy: str = "oldest"

    def __post_init__(self) -> None:
        if self.shed_policy not in ("oldest", "reject"):
            raise ReproError(
                f"shed_policy must be 'oldest' or 'reject', got {self.shed_policy!r}"
            )


@dataclass
class Request:
    """One submission's full lifecycle, from arrival to terminal status."""

    seq: int
    kind: str  # "query" | "register" | "proc"
    priority: Priority
    lane: str
    payload: Any
    token: CancellationToken
    submitted_at: float
    clone_of: int | None = None
    status: str = "queued"
    detail: str = ""
    coverage: Any = None  # fleet gathers: ShardCoverageReport.to_dict()
    result: Any = None
    error: BaseException | None = None
    admitted_at: float | None = None
    finished_at: float | None = None

    def record(self) -> RequestRecord:
        return RequestRecord(
            seq=self.seq,
            kind=self.kind,
            priority=self.priority.name,
            lane=self.lane,
            status=self.status,
            detail=self.detail,
            clone_of=self.clone_of,
            coverage=self.coverage,
        )


class Ticket:
    """The submitter's handle on an admitted request."""

    def __init__(self, request: Request):
        self._request = request

    @property
    def seq(self) -> int:
        return self._request.seq

    @property
    def status(self) -> str:
        return self._request.status

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Cooperatively cancel: the request stops at its next checkpoint."""
        self._request.token.cancel(reason)

    def result(self) -> Any:
        """The request's result; raises its typed error on any failure."""
        request = self._request
        if request.status == "completed":
            return request.result
        if request.error is not None:
            raise request.error
        raise ReproError(
            f"request #{request.seq} is not finished (status {request.status!r})"
        )


class QueryService:
    """Admission control + bulkhead execution + graceful drain."""

    def __init__(
        self,
        topology: Topology,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._topology = topology
        self._config = config or ServiceConfig()
        self._clock = clock
        self._queue = AdmissionQueue(self._config.queue_capacity)
        self._pool = BulkheadPool(DEFAULT_LANES)
        self._limiter = (
            TokenBucket(self._config.rate_limit, self._config.rate_burst, clock=clock)
            if self._config.rate_limit is not None
            else None
        )
        self._lock = threading.Lock()
        self._requests: list[Request] = []
        self._running: set[int] = set()
        self._draining = False
        self._stop = threading.Event()
        self._workers: list[threading.Thread] = []
        self._checkpoint: int | None = None
        self._service_procs: set[str] = set()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_query(
        self, coql: str, priority: Priority = Priority.INTERACTIVE
    ) -> Ticket:
        """Admit a COQL query (interactive lane by default)."""
        lane = "interactive" if priority == Priority.INTERACTIVE else "batch"
        return self._submit("query", coql, priority, lane)

    def submit_register(self, document: Any, domain: str) -> Ticket:
        """Admit a document registration on the batch lane."""
        return self._submit("register", (document, domain), Priority.BATCH, "batch")

    def submit_proc_call(self, name: str, args: tuple = ()) -> Ticket:
        """Admit a call to a PROC registered via :meth:`register_proc`."""
        if name not in self._service_procs:
            raise ReproError(
                f"PROC {name!r} is not registered for service execution; "
                f"call register_proc() first"
            )
        return self._submit("proc", (name, args), Priority.BATCH, "batch")

    def _submit(
        self, kind: str, payload: Any, priority: Priority, lane: str
    ) -> Ticket:
        with self._lock:
            if self._draining:
                raise OverloadError(
                    "service is draining; not accepting new work",
                    reason="draining",
                )
            # A seeded burst fault amplifies this arrival: the clones go
            # through the same admission pipeline (and may shed or be
            # rejected) so overload scenarios are replayable without a
            # thousand real clients.
            extra = self._topology.faults.burst_count(f"service.submit:{kind}")
            request = self._admit(kind, payload, priority, lane, clone_of=None)
            for _ in range(extra):
                try:
                    self._admit(kind, payload, priority, lane, clone_of=request.seq)
                except OverloadError:
                    pass  # the clone's rejection is on its record
            return Ticket(request)

    def _admit(
        self,
        kind: str,
        payload: Any,
        priority: Priority,
        lane: str,
        clone_of: int | None,
    ) -> Request:
        budget = (
            self._config.interactive_budget
            if priority == Priority.INTERACTIVE
            else self._config.batch_budget
        )
        request = Request(
            seq=len(self._requests),
            kind=kind,
            priority=priority,
            lane=lane,
            payload=payload,
            token=CancellationToken(budget, clock=self._clock),
            submitted_at=self._clock(),
            clone_of=clone_of,
        )
        self._requests.append(request)
        if self._limiter is not None:
            retry_after = self._limiter.try_acquire()
            if retry_after is not None:
                error = OverloadError(
                    f"rate limit exceeded; retry in {retry_after:.3f}s",
                    reason="rate-limited",
                    retry_after=retry_after,
                )
                self._refuse(request, error)
                raise error
        try:
            victim = self._queue.push(
                request, shed_oldest=self._config.shed_policy == "oldest"
            )
        except OverloadError as error:
            self._refuse(request, error)
            raise
        if victim is not None:
            self._mark_shed(victim, "shed")
        return request

    def _refuse(self, request: Request, error: OverloadError, status: str = "rejected") -> None:
        """End a request that never ran: rejected at admission, or shed."""
        request.status = status
        request.detail = error.reason
        request.error = error
        request.finished_at = self._clock()

    def _mark_shed(self, victim: Request, reason: str) -> None:
        error = OverloadError(f"request #{victim.seq} shed under {reason} policy", reason=reason)
        self._refuse(victim, error, status="shed")
        victim.token.cancel(f"shed ({reason})")

    # ------------------------------------------------------------------
    # PROC registration (SVC001 gate)
    # ------------------------------------------------------------------
    def register_proc(self, mil_source: str) -> list[str]:
        """Define MIL PROCs for service execution.

        Beyond the kernel's own static checks, the topology runs the
        ``service`` check stage: an unbounded ``WHILE`` with no
        ``cancelpoint()`` is rejected (SVC001), because a service lane
        cannot preempt it, and so are unresolved call targets,
        uncancellable recursion and the other ``CALLnnn`` violations —
        long-lived service procs are exactly where cross-proc holes
        accumulate.
        """
        names = self._topology.register_proc(mil_source)
        self._service_procs.update(names)
        return names

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_until_idle(self) -> ServiceReport:
        """Drain the queue synchronously and deterministically.

        Requests execute in (priority, arrival) order, batched per lane
        through the bulkhead pool; lanes are processed in sorted-name
        order so the schedule — and the report — is reproducible.
        """
        while True:
            batches: dict[str, list[Request]] = {}
            for entry in self._queue.drain():
                batches.setdefault(entry.lane, []).append(entry)
            if not batches:
                return self.report()
            for lane in sorted(batches):
                entries = batches[lane]
                self._pool.run_batch(
                    lane,
                    [lambda e=e: self._execute(e) for e in entries],
                    labels=[f"request #{e.seq}" for e in entries],
                )

    def _execute(self, request: Request) -> None:
        """Run one request to a terminal status; never raises.

        (Except :class:`SimulatedCrash`, which models a process kill and
        must never be absorbed by recovery machinery.)
        """
        request.admitted_at = self._clock()
        request.status = "running"
        with self._lock:
            self._running.add(request.seq)
        try:
            request.token.check(f"service.start:{request.kind}")
            request.result = self._dispatch(request)
            request.status = "completed"
        except Exception as exc:  # noqa: BLE001 - recorded, typed, never silent
            if isinstance(exc, RequestCancelled):
                request.status = "cancelled"
            elif isinstance(exc, TimeoutExpired):
                request.status = "timed-out"
            else:
                request.status = "failed"
            request.detail = type(exc).__name__
            request.error = exc
        finally:
            request.finished_at = self._clock()
            with self._lock:
                self._running.discard(request.seq)

    def _dispatch(self, request: Request) -> Any:
        token = request.token
        if request.kind == "query":
            result = self._topology.query(request.payload, token=token)
            coverage = result.coverage
            if coverage is not None:
                # a sharded answer: the coverage achieved lands on the
                # record, so a degraded-but-served answer is visible in
                # the report, not silent; the full report rides along as
                # JSON-round-trip material (ShardCoverageReport.from_dict)
                request.detail = (
                    f"gather@{len(coverage.answered)}/"
                    f"{len(coverage.targeted)} "
                    f"coverage={coverage.fraction:.3f}"
                )
                request.coverage = coverage.to_dict()
            return result
        if request.kind == "register":
            document, domain = request.payload
            shard = self._topology.register_document(document, domain, token=token)
            if shard is not None:
                request.detail = f"placed@{shard}"
            return shard
        if request.kind == "proc":
            name, args = request.payload
            return self._topology.call(name, args, token=token)
        raise ReproError(f"unknown request kind {request.kind!r}")

    # ------------------------------------------------------------------
    # threaded mode
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn background workers: ``width`` threads per bulkhead lane."""
        if self._workers:
            raise ReproError("service workers already started")
        self._stop.clear()
        for lane in self._pool.lanes():
            for index in range(self._pool.width(lane)):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(lane,),
                    name=f"svc-{lane}-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)

    def _worker_loop(self, lane: str) -> None:
        while not self._stop.is_set():
            entry = self._queue.pop_lane_wait(lane, timeout=0.02)
            if entry is not None:
                self._execute(entry)

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def shutdown(self, deadline: float | Deadline | None = None) -> ServiceReport:
        """Graceful drain: stop admissions, finish what the budget allows,
        cancel/shed the rest with typed errors, flush the durable store.

        ``deadline`` is a budget in seconds (or a prepared
        :class:`Deadline`); None drains without a time bound.
        """
        with self._lock:
            self._draining = True
        if not isinstance(deadline, Deadline):
            deadline = Deadline(deadline, clock=self._clock)
        if self._workers:
            self._drain_threaded(deadline)
        else:
            self._drain_sync(deadline)
        self._checkpoint = self._topology.flush()
        return self.report()

    def _drain_sync(self, deadline: Deadline) -> None:
        while True:
            entry = self._queue.pop()
            if entry is None:
                return
            if deadline.expired:
                self._mark_shed(entry, "draining")
                continue
            self._execute(entry)

    def _drain_threaded(self, deadline: Deadline) -> None:
        # Let the workers chew through the backlog until the budget runs
        # out, then cancel every in-flight token — cooperative checkpoints
        # stop each request within one kernel step — and shed the queue.
        while not deadline.expired:
            with self._lock:
                busy = bool(self._running)
            if not busy and len(self._queue) == 0:
                break
            time.sleep(0.005)
        for entry in self._queue.drain():
            self._mark_shed(entry, "draining")
        with self._lock:
            in_flight = set(self._running)
        for request in self._requests:
            if request.seq in in_flight:
                request.token.cancel("service draining")
        self._stop.set()
        for worker in self._workers:
            worker.join()
        self._workers.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """The deterministic outcome of everything submitted so far."""
        with self._lock:
            requests = list(self._requests)
        latencies = tuple(
            request.admitted_at - request.submitted_at
            for request in requests
            if request.admitted_at is not None
        )
        return ServiceReport(
            records=tuple(request.record() for request in requests),
            checkpoint_seqno=self._checkpoint,
            admission_latencies=latencies,
            sharding=self._topology.status(),
        )
