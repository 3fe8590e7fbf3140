"""Static analysis of kernel-group (replication) configurations.

Run at :class:`repro.replication.KernelGroup` construction — the same
choke-point pattern as :mod:`repro.check.servicecheck`: a read policy the
replicas can never satisfy is rejected before any record ships. Writes
always go to the primary and always pass the epoch fence, so neither is
configurable and neither needs a check.

Diagnostics:

* ``REPL003`` — the ``bounded(ms)`` staleness bound versus each replica's
  registered steady-state link lag: a warning per replica whose registered
  lag exceeds the bound (bounded reads will never route to it), an error
  when *every* replica exceeds it (the bound is unsatisfiable and bounded
  reads degenerate to primary-only).

This module also owns :func:`parse_read_policy`, the tiny config language
the router and the checker must agree on.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.errors import ReplicationError

if TYPE_CHECKING:  # structural only; no runtime import of replication
    from repro.replication.group import GroupConfig

__all__ = ["check_group_config", "parse_read_policy"]

_SOURCE = "kernel-group"
_BOUNDED = re.compile(r"bounded\(\s*(\d+(?:\.\d+)?)\s*(?:ms)?\s*\)")


def parse_read_policy(policy: str) -> tuple[str, float | None]:
    """Parse a read policy into ``(mode, bound_ms)``.

    ``"primary"`` and ``"any"`` carry no bound; ``"bounded(250)"`` (an
    optional ``ms`` suffix is accepted) yields ``("bounded", 250.0)``.
    Malformed policies raise :class:`repro.errors.ReplicationError`.
    """
    text = policy.strip()
    if text == "primary":
        return ("primary", None)
    if text == "any":
        return ("any", None)
    match = _BOUNDED.fullmatch(text)
    if match:
        return ("bounded", float(match.group(1)))
    raise ReplicationError(
        f"unknown read policy {policy!r}; expected 'primary', 'any', "
        f"or 'bounded(<ms>)'"
    )


def check_group_config(
    config: "GroupConfig", replicas: Iterable[str]
) -> DiagnosticReport:
    """REPL003 over one group configuration and its replica set."""
    report = DiagnosticReport()
    names = sorted(replicas)
    mode, bound = parse_read_policy(config.read_policy)
    if mode == "bounded" and bound is not None:
        registered = dict(config.registered_lag_ms)
        over = [
            name for name in names if registered.get(name, 0.0) > bound
        ]
        for name in over:
            report.add(
                "REPL003",
                f"replica {name!r} has registered link lag "
                f"{registered[name]:g}ms, over the {bound:g}ms staleness "
                f"bound; bounded reads will never route to it",
                Severity.WARNING,
                source=_SOURCE,
            )
        if names and len(over) == len(names):
            report.add(
                "REPL003",
                f"staleness bound {bound:g}ms is unsatisfiable: every "
                f"replica's registered link lag exceeds it, so bounded "
                f"reads degenerate to primary-only and the replicas serve "
                f"nothing",
                Severity.ERROR,
                source=_SOURCE,
            )
    return report
