"""Static analysis of sharded-fleet configurations.

:func:`check_fleet_config` runs at :class:`repro.sharding.ShardedKernel`
construction, mirroring :mod:`repro.check.replcheck`'s choke-point
pattern: misconfigurations that would silently mis-place writes or hide
degraded answers are rejected before any document is registered.

Diagnostics:

* ``SHARD001`` (error) — write routing targets anything but the owning
  shard. The placement map records one owner per document; a write routed
  elsewhere puts rows where no gather will ever look, which is silent data
  loss, not a policy choice.
* ``SHARD002`` (warning) — the fleet's default ``min_coverage`` floor is
  zero. Gathers then degrade all the way to an empty answer without any
  caller noticing unless every call site remembers to pass its own floor;
  declaring a fleet-wide floor makes "how wrong may an answer be" an
  explicit contract.
* ``SHARD003`` (error) — replicated shards with epoch fencing disabled.
  After a per-shard failover the deposed primary's late cross-shard write
  would be accepted into the new epoch: the same split-brain REPL002
  rejects, multiplied by the number of shards.
* ``SHARD005`` (error) — online migration with coverage accounting
  disabled. During a split a document's rows live on two shards and the
  gather may answer it through a dual read; with
  ``migration_accounting=False`` the ``migrating``/``dual_read`` counters
  stay zero, so a degraded mid-migration answer is indistinguishable from
  a healthy one — the honest-degradation contract breaks silently.
* ``SHARD006`` (error) — migration cutover without epoch fencing. A
  write intent issued before a cutover names the old owner; with
  ``migration_fencing=False`` the stale source shard accepts the write
  after the ring advances, landing rows the ownership-filtered gather
  will never read — the single-shard twin of the split-brain SHARD003
  rejects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.check.diagnostics import DiagnosticReport, Severity

if TYPE_CHECKING:  # structural only; no runtime import of sharding
    from repro.sharding.fleet import ShardConfig

__all__ = ["check_fleet_config"]

_SOURCE = "sharded-fleet"


def check_fleet_config(
    config: "ShardConfig", shards: Iterable[str]
) -> DiagnosticReport:
    """SHARD001-SHARD003 over one fleet configuration and its shard set."""
    report = DiagnosticReport()
    names = sorted(shards)

    if config.write_routing != "owner":
        report.add(
            "SHARD001",
            f"write routing targets {config.write_routing!r}: the placement "
            f"map records one owning shard per document, so a write routed "
            f"anywhere else lands in BATs no gather will ever read — silent "
            f"data loss, not a policy choice",
            Severity.ERROR,
            source=_SOURCE,
        )

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

    if not config.migration_accounting:
        report.add(
            "SHARD005",
            "online migration without coverage accounting: the "
            "migrating/dual_read counters on ShardCoverageReport stay "
            "zero, so a gather answered through a mid-split dual read "
            "looks identical to a healthy one — degradation must stay "
            "visible to stay honest",
            Severity.ERROR,
            source=_SOURCE,
        )

    if not config.migration_fencing:
        report.add(
            "SHARD006",
            "migration cutover is not epoch-fenced: a write intent issued "
            "before a cutover would be honored by the stale source shard "
            "after the ring advances, landing rows the ownership-filtered "
            "gather never reads (silent lost update; the single-shard "
            "twin of SHARD003's split-brain)",
            Severity.ERROR,
            source=_SOURCE,
        )

    if config.replication > 0 and not config.fencing:
        report.add(
            "SHARD003",
            f"epoch fencing is disabled on a fleet of {len(names)} "
            f"replicated shard(s): after any per-shard failover the deposed "
            f"primary's late cross-shard writes would be accepted into the "
            f"new epoch (unfenced epoch transition / split-brain, once per "
            f"shard)",
            Severity.ERROR,
            source=_SOURCE,
        )
    return report
