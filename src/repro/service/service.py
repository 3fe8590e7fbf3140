"""The overload-safe query service in front of :class:`CobraVDBMS`.

The paper's prototype serves one interactive client; the service layer is
what stands between that prototype and real traffic. Every request passes
through the same pipeline:

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
whatever remains is cancelled/shed with typed errors, and the durable
store — when attached — is flushed through the kernel's WAL checkpoint so
nothing admitted-and-completed can be lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import (
    MilCheckError,
    OverloadError,
    ReproError,
    RequestCancelled,
    TimeoutExpired,
)
from repro.monet.mil import ProcDef, parse
from repro.resilience import CancellationToken, Deadline, cancel_scope
from repro.service.limiter import TokenBucket
from repro.service.metrics import RequestRecord, ServiceReport
from repro.service.pool import BulkheadPool
from repro.service.queue import AdmissionQueue, Priority

__all__ = ["ServiceConfig", "Request", "Ticket", "QueryService"]

#: Default bulkhead widths. Width 1 keeps lanes strictly serial, which is
#: what the deterministic-report acceptance bar requires; raise widths for
#: read-only workloads that want intra-lane parallelism.
DEFAULT_LANES: Mapping[str, int] = {"interactive": 1, "batch": 1}


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
        lanes: bulkhead lane name -> worker width.
        checkpoint_on_drain: flush the durable store (WAL checkpoint) as
            the final drain step.
    """

    queue_capacity: int = 8
    interactive_budget: float | None = None
    batch_budget: float | None = None
    rate_limit: float | None = None
    rate_burst: int = 4
    shed_policy: str = "oldest"
    lanes: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_LANES))
    checkpoint_on_drain: bool = True

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
        vdbms: Any,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        group: Any | None = None,
        fleet: Any | None = None,
    ):
        self._db = vdbms
        self._config = config or ServiceConfig()
        self._clock = clock
        #: Optional repro.replication.KernelGroup fronting the vdbms
        #: kernel: queries route through its read policy and the report
        #: carries its status (epoch, lag, failovers, fenced writes).
        self._group = group
        #: Optional repro.sharding.ShardedKernel: queries scatter-gather
        #: across the fleet (degraded answers carry their coverage on the
        #: request record), registrations route to the owning shard, and
        #: the report carries the fleet status. Mutually exclusive with
        #: ``group`` — a fleet already replicates per shard.
        self._fleet = fleet
        if group is not None and fleet is not None:
            raise ReproError(
                "pass either group= (one replicated kernel group) or "
                "fleet= (a sharded fleet of groups), not both"
            )
        self._queue = AdmissionQueue(self._config.queue_capacity)
        self._pool = BulkheadPool(self._config.lanes)
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
        self._checkpoint_seqno: int | None = None
        self._service_procs: set[str] = set()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

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
        if not self._pool.has_lane(lane):
            raise ReproError(f"service has no lane {lane!r}")
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
            extra = self._db.faults.burst_count(f"service.submit:{kind}")
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
                self._finish_rejected(request, error)
                raise error
        try:
            victim = self._queue.push(
                request, shed_oldest=self._config.shed_policy == "oldest"
            )
        except OverloadError as error:
            self._finish_rejected(request, error)
            raise
        if victim is not None:
            self._mark_shed(victim, "shed")
        return request

    def _finish_rejected(self, request: Request, error: OverloadError) -> None:
        request.status = "rejected"
        request.detail = error.reason
        request.error = error
        request.finished_at = self._clock()

    def _mark_shed(self, victim: Request, reason: str) -> None:
        error = OverloadError(
            f"request #{victim.seq} shed under {reason} policy", reason=reason
        )
        victim.status = "shed"
        victim.detail = reason
        victim.error = error
        victim.finished_at = self._clock()
        victim.token.cancel(f"shed ({reason})")

    # ------------------------------------------------------------------
    # PROC registration (SVC001 gate)
    # ------------------------------------------------------------------
    def register_proc(self, mil_source: str) -> list[str]:
        """Define MIL PROCs for service execution.

        Beyond the kernel's own static checks, service registration runs
        the SVC001 pass: an unbounded ``WHILE`` with no ``cancelpoint()``
        is rejected, because a service lane cannot preempt it. The
        whole-program pass runs alongside it: long-lived service procs are
        exactly where cross-proc holes accumulate, so unresolved call
        targets (CALL001), uncancellable recursion (CALL002), and the
        other ``CALLnnn`` violations are rejected here too.
        """
        from repro.check.pipeline import check_source

        # a fresh summary cache: a rejected registration must not leave
        # entries behind on the interpreter's live one
        report = check_source(
            self._db.kernel.interpreter.check_environment(),
            mil_source,
            "<service proc>",
            stage="service",
        )
        if report.has_errors():
            raise MilCheckError(
                "PROC rejected for service execution", report.sorted()
            )
        self._db.kernel.run(mil_source)
        names = [s.name for s in parse(mil_source) if isinstance(s, ProcDef)]
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
            batches = self._take_lane_batches()
            if not batches:
                return self.report()
            for lane in sorted(batches):
                entries = batches[lane]
                self._pool.run_batch(
                    lane,
                    [self._executor_thunk(e) for e in entries],
                    labels=[f"request #{e.seq}" for e in entries],
                )

    def _take_lane_batches(self) -> dict[str, list[Request]]:
        batches: dict[str, list[Request]] = {}
        for entry in self._queue.drain():
            batches.setdefault(entry.lane, []).append(entry)
        return batches

    def _executor_thunk(self, request: Request) -> Callable[[], None]:
        return lambda: self._execute(request)

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
        except RequestCancelled as exc:
            request.status = "cancelled"
            request.detail = type(exc).__name__
            request.error = exc
        except TimeoutExpired as exc:
            request.status = "timed-out"
            request.detail = type(exc).__name__
            request.error = exc
        except Exception as exc:  # noqa: BLE001 - recorded, typed, never silent
            request.status = "failed"
            request.detail = type(exc).__name__
            request.error = exc
        finally:
            request.finished_at = self._clock()
            with self._lock:
                self._running.discard(request.seq)

    def _dispatch(self, request: Request) -> Any:
        if request.kind == "query":
            if self._fleet is not None:
                # scatter-gather across the fleet; the coverage achieved
                # (shards answered / targeted, corpus fraction) lands on
                # the record, so a degraded-but-served answer is visible
                # in the report, not silent
                result = self._fleet.query(request.payload)
                coverage = result.coverage
                request.detail = (
                    f"gather@{len(coverage.answered)}/"
                    f"{len(coverage.targeted)} "
                    f"coverage={coverage.fraction:.3f}"
                )
                # the full report rides the record too — JSON-round-trip
                # material for artifacts (ShardCoverageReport.from_dict),
                # including the migrating/dual_read counters a mid-split
                # gather reports
                request.coverage = coverage.to_dict()
                return result
            if self._group is not None:
                # the group's read policy picks the node; a replica read
                # executes on the replica's applied state, primary reads
                # stay on the vdbms path. The routed node lands on the
                # record so reports expose the read fan-out.
                routed = self._group.route_read()
                request.detail = f"read@{routed.node}"
                if not routed.is_primary:
                    with cancel_scope(request.token):
                        return routed.replica.query(request.payload)
            return self._db.query(request.payload, token=request.token)
        if request.kind == "register":
            document, domain = request.payload
            if self._fleet is not None:
                shard = self._fleet.register_document(document, domain)
                request.detail = f"placed@{shard}"
                return shard
            return self._db.register_document(document, domain, token=request.token)
        if request.kind == "proc":
            name, args = request.payload
            with cancel_scope(request.token):
                if self._fleet is not None:
                    return self._fleet.scatter_call(name, args)
                return self._db.kernel.call(name, args, deadline=request.token)
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
        if self._fleet is not None:
            # flush and converge every shard: each live shard checkpoints
            # its WAL and ships its replicas, so the drained fleet is as
            # durable as a drained single kernel
            if self._config.checkpoint_on_drain:
                self._fleet.checkpoint()
            self._fleet.pump()
        elif (
            self._config.checkpoint_on_drain
            and getattr(self._db.kernel, "store", None) is not None
        ):
            self._checkpoint_seqno = self._db.kernel.checkpoint()
        if self._group is not None:
            # converge the replicas on the drained (checkpointed) state so
            # the final report shows the group caught up, not mid-flight
            self._group.pump()
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
            checkpoint_seqno=self._checkpoint_seqno,
            admission_latencies=latencies,
            replication=(
                self._group.status() if self._group is not None else None
            ),
            sharding=(
                self._fleet.status() if self._fleet is not None else None
            ),
        )
