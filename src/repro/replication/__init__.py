"""Replicated kernel groups: WAL-shipping replicas, failover, fencing.

The replication layer turns the durability machinery of
:mod:`repro.durability` into a small replicated system: a
:class:`KernelGroup` fronts one durable primary :class:`MonetKernel` and N
:class:`Replica` read replicas, each fed by streaming the primary's WAL
records over a :class:`ReplicationLink` and applying them through the same
replay semantics as crash recovery. Reads route by staleness policy
(``primary`` / ``any`` / ``bounded(ms)``), failed primaries are detected
by circuit-breaker probes and replaced by promoting the least-lagged
replica, epoch fencing rejects a deposed primary's late writes, and
partitioned replicas catch back up from a checkpoint snapshot + WAL tail.
The ``replication`` scenario of :mod:`repro.chaos` verifies all of it
under seeded kills and partitions; :mod:`repro.check.replcheck`
statically vets group configurations (REPL001-REPL003).
"""

from repro.replication.group import (
    FailoverEvent,
    GroupConfig,
    GroupStatus,
    KernelGroup,
    Lease,
    ReplicaStatus,
    RoutedRead,
)
from repro.replication.link import ReplicaPosition, ReplicationLink, Shipment
from repro.replication.replica import Replica

__all__ = [
    "FailoverEvent",
    "GroupConfig",
    "GroupStatus",
    "KernelGroup",
    "Lease",
    "Replica",
    "ReplicaPosition",
    "ReplicaStatus",
    "ReplicationLink",
    "RoutedRead",
    "Shipment",
]
