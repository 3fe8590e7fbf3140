"""The concurrent query-serving layer in front of the Cobra VDBMS.

The paper's prototype answers one query at a time for one researcher; a
production deployment faces traffic. This package adds the overload
machinery between the two, in front of one :class:`Topology` — a
:class:`repro.cobra.vdbms.CobraVDBMS` or a
:class:`repro.sharding.ShardedKernel` (one shard with replicas is the
replicated single kernel):

* :mod:`repro.service.queue` — bounded admission queue with priority
  classes (interactive vs. batch) and the shed-oldest policy;
* :mod:`repro.service.limiter` — token-bucket rate limiting;
* :mod:`repro.service.pool` — bulkhead worker lanes on
  :class:`repro.monet.parallel.ParallelExecutor`;
* :class:`repro.resilience.CancellationToken` — carried from admission
  down to MIL statement dispatch; it lives in :mod:`repro.resilience` so
  the low layers can checkpoint against it without importing this package;
* :mod:`repro.service.service` — :class:`QueryService`: submit, execute,
  and drain, over the :class:`Topology` protocol;
* :mod:`repro.service.metrics` — the deterministic, replayable
  :class:`ServiceReport`.

The ``overload`` scenario of :mod:`repro.chaos` drives it to saturation
(burst+stall plan, zero lost WAL commits, bounded p99 admission
latency).
"""

from repro.service.limiter import TokenBucket
from repro.service.metrics import (
    RequestRecord,
    ServiceReport,
    TERMINAL_STATUSES,
    percentile,
)
from repro.service.pool import BulkheadPool
from repro.service.queue import AdmissionQueue, Priority
from repro.service.service import QueryService, Request, ServiceConfig, Ticket, Topology

__all__ = [
    "AdmissionQueue",
    "BulkheadPool",
    "Priority",
    "QueryService",
    "Request",
    "RequestRecord",
    "ServiceConfig",
    "ServiceReport",
    "TERMINAL_STATUSES",
    "Ticket",
    "TokenBucket",
    "Topology",
    "percentile",
]
