"""Cross-level dataflow rules: ranges, rates and definite assignment.

Where :mod:`repro.check.milcheck` checks types and scopes, ``flowcheck``
reads the flow component of the shared abstract run
(:mod:`repro.check.absint`) — for MIL procedures and Moa expression trees.
Its variables live in one flat environment that each ``IF`` branch and
``WHILE`` body copies and that is joined after. It tracks a type (only
its BAT columns are read) and:

* *interval* — a ``[lo, hi]`` over-approximation of the numeric values a
  scalar (or every tail value of a BAT) can take.  ``BAT[void,dbl]``
  procedure parameters are feature streams by the fusion-layer contract and
  seed at ``[0, 1]``; literals seed exact points; arithmetic, ``mmap``,
  ``mselect`` and the BAT aggregation methods have transfer functions.
* *rate* — sampling-rate metadata in Hz.  Feature-stream parameters seed at
  the paper's 10 Hz; bulk operators that keep one value per step preserve
  it, filtering operators drop it.
* *assignment* — whether a variable is assigned on every path, some, or
  none, and which store no read has seen yet.

Commands may declare value contracts (``arg_ranges`` / ``returns_range`` on
:class:`repro.monet.module.CommandSignature`); the analysis proves or
refutes them before the plan runs.  An interval that provably escapes a
contract is an error; an unknown interval is silently accepted (the runtime
sanitizer, :mod:`repro.check.sanitize`, covers that residue dynamically).

Diagnostic codes:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
FLOW001   error     use of a variable that is definitely unassigned
FLOW001   warning   use of a variable assigned on only some paths
FLOW002   warning   dead store — value overwritten before any read
FLOW003   warning   BAT-typed variable is never read
FLOW004   error     exact column-type mismatch at an extension boundary
FLOW005   error     value range provably escapes a declared contract
FLOW006   error     sampling-rate violation in a feature set
========  ========  =====================================================

``FLOW002`` is suppressed inside ``PARALLEL`` blocks and ``WHILE`` bodies:
concurrent branches and loop-carried stores are not dead even when a later
store textually follows.  A BAT-typed dead store is flagged like any other:
the interpreter materializes every store.  ``FLOW004`` only fires when both the
declared and the inferred BAT column types are fully known — unlike the
permissive widening of MIL006, it demands the exact atom at module
boundaries.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from repro.check.absint import (
    FEATURE_RANGE,
    FEATURE_RATE,
    BatT,
    DeadStore,
    Evidence,
    InterpretedPass,
    Interpreter,
    Interval,
    MoaInterpreter,
    Nested,
    Read,
    Resolved,
    column_value,
    named_type,
    point,
)
from repro.check.diagnostics import DiagnosticReport, Severity

__all__ = [
    "FEATURE_RANGE",
    "FEATURE_RATE",
    "FlowChecker",
    "Interval",
    "check_feature_set",
    "check_moa_flow",
]

class FlowChecker(InterpretedPass):
    """Range, rate and definite-assignment rules over the shared run."""

    def findings(self, run: Interpreter) -> DiagnosticReport:
        report = DiagnosticReport()
        for fact in run.facts:
            match fact:
                case Nested(run=inner):
                    report.extend(self.findings(inner))
                case Read(ident=ident, line=line, assigned="no"):
                    report.add(
                        "FLOW001",
                        f"variable {ident!r} is used before it is assigned",
                        Severity.ERROR,
                        line=line,
                    )
                case Read(ident=ident, line=line):
                    report.add(
                        "FLOW001",
                        f"variable {ident!r} may be unassigned on some paths",
                        Severity.WARNING,
                        line=line,
                    )
                case DeadStore(ident=ident, store_line=store, line=line):
                    report.add(
                        "FLOW002",
                        f"dead store to {ident!r}: value is overwritten at "
                        f"line {line} before any read",
                        Severity.WARNING,
                        line=store,
                        end_line=line,
                    )
                case Resolved(checked=signature, args=args) if signature is not None:
                    for index, actual in enumerate(arg.flow for arg in args):
                        self._boundary(fact.node, signature, index, actual, report)
                        contract = signature.arg_range(index)
                        if contract is not None and actual.interval.escapes(*contract):
                            lo, hi = contract
                            report.add(
                                "FLOW005",
                                f"{signature.describe()} argument {index + 1} "
                                f"has inferred range {actual.interval}, escaping "
                                f"the declared contract [{lo:g}, {hi:g}]",
                                Severity.ERROR,
                                line=fact.node.line,
                            )
        for ident, line, is_bat in run.decls:
            if is_bat and ident not in run.reads:
                report.add(
                    "FLOW003",
                    f"BAT variable {ident!r} is never read",
                    Severity.WARNING,
                    line=line,
                )
        return report

    def _boundary(
        self, node: Any, signature: Any, index: int, actual: Any, report: DiagnosticReport
    ) -> None:
        """FLOW004: exact BAT column typing at extension-module boundaries."""
        if signature.module is None or not signature.args or (
            not signature.varargs and index >= len(signature.args)
        ):
            return
        expected = named_type(signature.args[min(index, len(signature.args) - 1)])
        if not isinstance(expected, BatT) or not actual.is_bat:
            return
        columns = (expected.head, expected.tail, actual.type.head, actual.type.tail)
        if any(c in ("?", "any") for c in columns):
            return
        if column_value(expected.head) != column_value(actual.type.head) or (
            column_value(expected.tail) != column_value(actual.type.tail)
        ):
            report.add(
                "FLOW004",
                f"{signature.describe()} argument {index + 1} crosses the "
                f"{signature.module!r} extension boundary as {actual.type}, "
                f"but the command requires exactly "
                f"BAT[{expected.head},{expected.tail}]",
                Severity.ERROR,
                line=node.line,
            )


# ---------------------------------------------------------------------------
# Moa expression trees
# ---------------------------------------------------------------------------


def check_moa_flow(run: MoaInterpreter, source: str = "<moa>") -> DiagnosticReport:
    """FLOW005 where a DBN/HMM evidence argument of a Moa expression's run
    provably escapes the feature contract ``[0, 1]``.

    Free ``Var``s named like feature streams (``f1``, ``f2``, ...) — or any
    listed in the interpreter's ``ranges`` — seed the interval lattice.
    """
    report = DiagnosticReport()
    lo, hi = FEATURE_RANGE
    for fact in run.facts:
        if isinstance(fact, Evidence) and fact.interval.escapes(lo, hi):
            report.add(
                "FLOW005",
                f"{fact.extension}.{fact.operator} evidence argument "
                f"{fact.index + 1} has inferred range {fact.interval}, "
                f"escaping the feature contract [{lo:g}, {hi:g}]",
                Severity.ERROR,
                source=source,
            )
    return report


# ---------------------------------------------------------------------------
# fusion-layer feature-profile checks
# ---------------------------------------------------------------------------


def check_feature_set(
    streams: Mapping[str, Sequence[float]],
    duration: float | None = None,
    rate: float = FEATURE_RATE,
    source: str = "<features>",
) -> DiagnosticReport:
    """Verify extracted feature streams against the fusion contract.

    Every stream must hold finite values inside :data:`FEATURE_RANGE`
    (FLOW005) and all streams must agree on one length; when ``duration``
    is given, that length must equal ``int(duration * rate)`` — the 10 Hz
    sampling contract (FLOW006).
    """
    report = DiagnosticReport()
    lengths: dict[str, int] = {}
    lo, hi = FEATURE_RANGE
    for name in sorted(streams):
        values = list(streams[name])
        lengths[name] = len(values)
        for step, value in enumerate(values):
            number = float(value)
            if math.isnan(number) or not point(number).within(lo, hi):
                report.add(
                    "FLOW005",
                    f"feature stream {name!r} value {number:g} at step "
                    f"{step} is outside [{lo:g}, {hi:g}]",
                    Severity.ERROR,
                    source=source,
                )
                break  # one finding per stream is enough
    distinct = set(lengths.values())
    if len(distinct) > 1:
        detail = ", ".join(f"{n}={lengths[n]}" for n in sorted(lengths))
        report.add(
            "FLOW006",
            f"feature streams disagree on length ({detail}); a uniform "
            f"{rate:g} Hz series needs one step count",
            Severity.ERROR,
            source=source,
        )
    elif duration is not None and lengths:
        expected = int(duration * rate)
        actual = distinct.pop()
        if actual != expected:
            report.add(
                "FLOW006",
                f"feature streams have {actual} steps but {duration:g} s at "
                f"{rate:g} Hz requires {expected}",
                Severity.ERROR,
                source=source,
            )
    return report
