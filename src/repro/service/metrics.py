"""The deterministic service report.

Every request the service ever saw — admitted, rejected, shed, completed,
failed, cancelled — leaves exactly one :class:`RequestRecord`, and the
:class:`ServiceReport` is the ordered tuple of them. The record fields are
pure functions of the arrival order and the seeded fault plan, so two runs
of the same scenario produce *equal* reports; wall-clock measurements
(admission latencies) ride along but are excluded from equality.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "RequestRecord",
    "ServiceReport",
    "percentile",
    "TERMINAL_STATUSES",
]

#: Every request must end in one of these — "no silent drops".
TERMINAL_STATUSES = frozenset(
    {"completed", "failed", "rejected", "shed", "cancelled", "timed-out"}
)


@dataclass(frozen=True)
class RequestRecord:
    """One request's deterministic outcome."""

    seq: int
    kind: str  # "query" | "register" | "proc"
    priority: str  # Priority member name
    lane: str
    status: str  # see TERMINAL_STATUSES, plus transient "queued"/"running"
    detail: str = ""  # rejection reason, shed reason, or error type
    clone_of: int | None = None  # seq of the original for burst clones
    #: For queries answered by a sharded fleet: the gather's
    #: :meth:`repro.sharding.ShardCoverageReport.to_dict` payload — how
    #: degraded (or dual-read, mid-migration) this specific answer was.
    #: None for non-fleet requests. Deterministic, so part of equality.
    coverage: Any = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" ({self.detail})" if self.detail else ""
        clone = f" clone-of=#{self.clone_of}" if self.clone_of is not None else ""
        return f"#{self.seq} {self.kind}/{self.priority}@{self.lane}: {self.status}{extra}{clone}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "priority": self.priority,
            "lane": self.lane,
            "status": self.status,
            "detail": self.detail,
            "clone_of": self.clone_of,
            "coverage": dict(self.coverage) if self.coverage else None,
        }


@dataclass(frozen=True)
class ServiceReport:
    """Everything a service run did, replayable under the same fault plan.

    Equality covers only the deterministic fields (``records`` and
    ``checkpoint_seqno``); latencies are measurements and excluded.
    """

    records: tuple[RequestRecord, ...]
    #: Durable-store checkpoint written by the drain, or None.
    checkpoint_seqno: int | None = None
    #: Queue-wait per executed request (seconds), in seq order.
    admission_latencies: tuple[float, ...] = field(default=(), compare=False)
    #: Status of the attached replicated kernel group at report time (a
    #: :class:`repro.replication.GroupStatus` — epoch, per-replica lag,
    #: failovers, fenced writes; its wall-clock staleness readings are
    #: excluded from equality by that type itself), or None when the
    #: service fronts a single kernel.
    replication: Any = None
    #: Status of the attached sharded fleet at report time (a
    #: :class:`repro.sharding.FleetStatus` — per-shard document counts,
    #: dead shards, epochs, fenced retries; fully deterministic), or None
    #: when the service fronts a single kernel or one replicated group.
    sharding: Any = None

    def __len__(self) -> int:
        return len(self.records)

    def counts(self) -> dict[str, int]:
        """Records per terminal status."""
        out: dict[str, int] = {}
        for record in self.records:
            out[record.status] = out.get(record.status, 0) + 1
        return out

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "completed")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.status == "shed")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.status == "rejected")

    @property
    def all_terminal(self) -> bool:
        """True when no request was left in limbo — the no-silent-drops bar."""
        return all(r.status in TERMINAL_STATUSES for r in self.records)

    def p99_admission_latency(self) -> float:
        """99th-percentile queue wait in seconds (0 with no executions)."""
        return percentile(self.admission_latencies, 99.0)

    def describe(self) -> str:
        lines = [f"ServiceReport: {len(self.records)} request(s)"]
        for status, n in sorted(self.counts().items()):
            lines.append(f"  {status}: {n}")
        if self.admission_latencies:
            lines.append(
                f"  p99 admission latency: {self.p99_admission_latency() * 1e3:.1f} ms"
            )
        if self.checkpoint_seqno is not None:
            lines.append(f"  drain checkpoint: seqno {self.checkpoint_seqno}")
        if self.replication is not None:
            lines.extend(
                "  " + line for line in self.replication.describe().splitlines()
            )
        if self.sharding is not None:
            lines.extend(
                "  " + line for line in self.sharding.describe().splitlines()
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of the deterministic fields.

        Fleet query records carry their per-gather coverage payload
        (round-trippable through
        :meth:`repro.sharding.ShardCoverageReport.from_dict`); the
        attached replication/sharding statuses serialize through their
        own ``to_dict`` when they have one, ``dataclasses.asdict``
        otherwise. Wall-clock latencies are excluded, matching equality.
        """
        return {
            "records": [record.to_dict() for record in self.records],
            "checkpoint_seqno": self.checkpoint_seqno,
            "replication": _jsonable(self.replication),
            "sharding": _jsonable(self.sharding),
        }


def _jsonable(status: Any) -> Any:
    if status is None:
        return None
    to_dict = getattr(status, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if dataclasses.is_dataclass(status):
        return dataclasses.asdict(status)
    return repr(status)  # pragma: no cover - no such status type today


def percentile(values: tuple[float, ...] | list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]
