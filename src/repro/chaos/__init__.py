"""Seeded chaos scenarios for the durable, replicated and sharded stack.

Every scenario is deterministic — a pure function of its fault plans — so
chaos is a reproducible test, not flakiness: ``python -m repro.chaos``
runs each selected scenario twice in fresh directories and fails unless
both runs pass and serialize identically.

* ``durability`` — the single-node write path killed at every WAL and
  checkpoint crash point, then recovered (:mod:`repro.chaos.durability`);
* ``replication`` — a replicated primary killed mid-transaction, failed
  over, fenced and healed, at every commit-path crash point
  (:mod:`repro.chaos.replication`);
* ``shard-death`` — shards killed mid-scatter, degraded gathers, rebalance,
  plus registration crashed at every placement crash point;
* ``migration`` — an online split under load, plus the split crashed at
  every migration kill point (both :mod:`repro.chaos.sharding`);
* ``overload`` — the query service driven to 4x saturation against a
  durable kernel (:mod:`repro.chaos.overload`).

:data:`SCENARIOS` maps each name to its sections, each section a
``(directory, fsync) -> ChaosReport | list[ChaosReport]`` run. The
plumbing they share — the report type, the kill-sweep driver and the
run-twice check — is :mod:`repro.chaos.harness`.
"""

from repro.chaos import durability, overload, replication, sharding
from repro.chaos.harness import ChaosReport, kill_sweep, run_twice

__all__ = ["SCENARIOS", "ChaosReport", "kill_sweep", "run_twice"]

SCENARIOS = {
    "durability": {"sweep": durability.sweep},
    "replication": {"scenario": replication.scenario, "sweep": replication.sweep},
    "shard-death": {"scenario": sharding.shard_death, "sweep": sharding.placement_sweep},
    "migration": {"split": sharding.split_under_load, "migration_sweep": sharding.migration_sweep},
    "overload": {"scenario": overload.scenario},
}
