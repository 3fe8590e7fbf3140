"""Static analysis of sharded-fleet configurations.

:func:`check_fleet_config` runs at :class:`repro.sharding.ShardedKernel`
construction, mirroring :mod:`repro.check.replcheck`'s choke-point
pattern. The fleet's safety properties (writes to the owning shard,
epoch-fenced replicated shards, fenced and accounted migrations) are not
configurable, so the one finding left is advisory:

* ``SHARD002`` (warning) — the fleet's default ``min_coverage`` floor is
  zero. Gathers then degrade all the way to an empty answer without any
  caller noticing unless every call site remembers to pass its own floor;
  declaring a fleet-wide floor makes "how wrong may an answer be" an
  explicit contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.diagnostics import DiagnosticReport, Severity

if TYPE_CHECKING:  # structural only; no runtime import of sharding
    from repro.sharding.fleet import ShardConfig

__all__ = ["check_fleet_config"]

_SOURCE = "sharded-fleet"


def check_fleet_config(config: "ShardConfig") -> DiagnosticReport:
    """SHARD002 over one fleet configuration."""
    report = DiagnosticReport()
    if config.min_coverage <= 0.0:
        report.add(
            "SHARD002",
            "the fleet declares no coverage floor (min_coverage=0): a "
            "gather that loses every shard degrades to an empty answer "
            "without failing; declare a fleet-wide floor (callers can still "
            "override per query) so degraded answers are a contract, not "
            "an accident",
            Severity.WARNING,
            source=_SOURCE,
        )
    return report
