"""Sharded kernel fleet with partial-failure-tolerant scatter-gather.

The Cobra stack so far scales *down* gracefully — one kernel, one
replicated group — but the paper's ambition (a broadcast archive of
Formula 1 races) needs to scale *out*: more video than one kernel's BAT
catalog should hold, served by a fleet that keeps answering when part of
it is on fire. This package partitions the metadata by document
(consistent hashing on the video id, :mod:`repro.sharding.ring`) across
shards — each shard a durable :class:`repro.monet.MonetKernel`, optionally
its own replicated :class:`repro.replication.KernelGroup` — behind a
:class:`ShardedKernel` front (:mod:`repro.sharding.fleet`) that plans
scatter-gather execution and degrades honestly: lost shards produce a
:class:`ShardCoverageReport` on the result, not a stack trace, until
coverage falls below the caller's floor and the gather fails loudly with
:class:`repro.errors.InsufficientCoverageError`.

The fleet also grows online: :mod:`repro.sharding.migration` adds a
shard to a live fleet and moves exactly the documents the extended ring
remaps through a journaled five-phase protocol (plan → copy → catch-up →
cutover → retire) that survives a crash at any kill point, keeps reads
answering through dual routing (the ``migrating``/``dual_read`` counters
on the coverage report), and fences stale pre-cutover writes with
:class:`repro.errors.FencedWriteError`.

The ``shard-death`` and ``migration`` scenarios of :mod:`repro.chaos`
kill shards mid-scatter and run a split under load, check the degraded
answers against exact coverage reports, crash registration and migration
at every kill point, and require the surviving catalogs to converge
byte-for-byte — twice, with identical reports, or the run fails.
"""

from repro.sharding.fleet import (
    FleetStatus,
    GatherResult,
    RebalanceReport,
    ShardConfig,
    ShardCoverageReport,
    ShardStatus,
    ShardedKernel,
)
from repro.sharding.migration import (
    MIGRATION_KILL_POINTS,
    MigrationCoordinator,
    MigrationState,
    PlacementLease,
    SplitReport,
)
from repro.sharding.ring import HashRing

__all__ = [
    "FleetStatus",
    "GatherResult",
    "HashRing",
    "MIGRATION_KILL_POINTS",
    "MigrationCoordinator",
    "MigrationState",
    "PlacementLease",
    "RebalanceReport",
    "ShardConfig",
    "ShardCoverageReport",
    "ShardStatus",
    "ShardedKernel",
    "SplitReport",
]
