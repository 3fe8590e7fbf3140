"""Static race detection over ``PARALLEL`` MIL blocks.

PR 2's :class:`repro.monet.parallel.ParallelExecutor` runs the top-level
statements of a ``PARALLEL { ... }`` block concurrently, and PR 3's WAL
auto-commits every ``persist``/``drop``.  This pass assigns each branch an
ownership label and checks the cross-branch effect sets — a static lockset
analysis specialised to the two shared stores of the kernel: BAT variables
and catalog names.

The analysis honours the paper's Fig. 4 idiom: BATs are safe for
*concurrent appends* (``insert`` / ``insert_bulk`` take the BAT lock and
commute), so append/append and append/read pairs are clean.  Non-append
mutation (``delete``, ``replace``) and catalog mutation (``persist``,
``drop``) are exclusive writes.

Diagnostic codes:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
RACE001   error     write-write conflict on one BAT or catalog name
                    across concurrent branches
RACE002   error     read-write conflict: one branch reads a BAT another
                    branch mutates non-append
RACE003   warning   lost update — two branches assign the same enclosing
                    variable
RACE004   warning   catalog mutation inside a PARALLEL branch commits the
                    WAL mid-fan-out (transaction-boundary misuse)
RACE005   —         reserved for the runtime sanitizer: catalog mutation
                    from a thread that does not own the open transaction
========  ========  =====================================================

``RACE004`` is suppressed for occurrences already reported as a RACE001
conflict (one finding per defect).  ``RACE005`` has no static form — thread
identity exists only at runtime — and is raised by
:mod:`repro.check.sanitize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.effects import APPEND_METHODS, WRITE_METHODS, shared_events
from repro.check.environment import MilPass
from repro.monet.mil import Parallel, ProcDef, walk

__all__ = ["RaceChecker", "APPEND_METHODS", "WRITE_METHODS"]


@dataclass
class _Effect:
    """One access to a shared name inside a branch."""

    kind: str  # "read" | "append" | "write" | "assign"
    line: int | None


@dataclass
class _BranchEffects:
    """Effect summary of one PARALLEL branch."""

    label: str
    line: int | None
    #: variable name -> effects on it (BAT methods and scalar reads alike)
    variables: dict[str, list[_Effect]] = field(default_factory=dict)
    #: catalog name (or None when not a literal) -> catalog-write effects
    catalog: dict[str | None, list[_Effect]] = field(default_factory=dict)

    def touch(self, ident: str, kind: str, line: int | None) -> None:
        self.variables.setdefault(ident, []).append(_Effect(kind, line))

    def kinds(self, ident: str) -> set[str]:
        return {e.kind for e in self.variables.get(ident, ())}


class RaceChecker(MilPass):
    """Lockset/ownership analysis of PARALLEL blocks in MIL programs."""

    def _check_definition(
        self, definition: ProcDef, label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        return self._check_toplevel(definition.body, label, procs)

    def _check_toplevel(
        self, statements: list[Any], label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        report = DiagnosticReport()
        for node in walk(statements):
            match node:
                case Parallel(body=body, line=line):
                    self._check_parallel(body, line, report, label)
                case ProcDef(body=body):  # nested definition: walk() stops here
                    report.extend(self._check_toplevel(body, label, procs))
        return report

    # -- PARALLEL analysis -----------------------------------------------
    def _check_parallel(
        self,
        body: list[Any],
        line: int | None,
        report: DiagnosticReport,
        source: str,
    ) -> None:
        branches: list[_BranchEffects] = []
        for index, statement in enumerate(body):
            branch = _BranchEffects(
                f"branch {index + 1}", getattr(statement, "line", line)
            )
            for event in shared_events(statement):
                if event.kind == "commit":
                    branch.catalog.setdefault(event.name, []).append(
                        _Effect("write", event.line)
                    )
                else:
                    branch.touch(event.name, event.kind, event.line)
            branches.append(branch)
        if len(branches) < 2:
            return
        self._report_variable_races(branches, report, source)
        self._report_catalog_races(branches, report, source)

    def _report_variable_races(
        self,
        branches: list[_BranchEffects],
        report: DiagnosticReport,
        source: str,
    ) -> None:
        names = sorted({n for b in branches for n in b.variables})
        for ident in names:
            involved = [b for b in branches if ident in b.variables]
            if len(involved) < 2:
                continue
            writers = [b for b in involved if "write" in b.kinds(ident)]
            appenders = [b for b in involved if "append" in b.kinds(ident)]
            readers = [b for b in involved if "read" in b.kinds(ident)]
            assigners = [b for b in involved if "assign" in b.kinds(ident)]
            if len(writers) >= 2 or (writers and appenders):
                first, second = (writers + appenders)[:2]
                report.add(
                    "RACE001",
                    f"write-write race on BAT {ident!r}: {first.label} and "
                    f"{second.label} both mutate it concurrently",
                    Severity.ERROR,
                    source=source,
                    line=self._first_line(first, ident, ("write", "append")),
                )
            elif writers and readers:
                reader = next(b for b in readers if b is not writers[0])
                report.add(
                    "RACE002",
                    f"read-write race on BAT {ident!r}: {writers[0].label} "
                    f"mutates it while {reader.label} reads it",
                    Severity.ERROR,
                    source=source,
                    line=self._first_line(writers[0], ident, ("write",)),
                )
            if len(assigners) >= 2:
                report.add(
                    "RACE003",
                    f"lost update: {ident!r} is assigned in "
                    f"{len(assigners)} concurrent branches; the surviving "
                    f"value depends on scheduling",
                    Severity.WARNING,
                    source=source,
                    line=self._first_line(assigners[0], ident, ("assign",)),
                )

    def _report_catalog_races(
        self,
        branches: list[_BranchEffects],
        report: DiagnosticReport,
        source: str,
    ) -> None:
        names = sorted(
            {n for b in branches for n in b.catalog if n is not None}
        )
        conflicted: set[str] = set()
        for catalog_name in names:
            involved = [b for b in branches if catalog_name in b.catalog]
            if len(involved) >= 2:
                conflicted.add(catalog_name)
                first, second = involved[:2]
                report.add(
                    "RACE001",
                    f"write-write race on catalog name {catalog_name!r}: "
                    f"{first.label} and {second.label} both persist or drop "
                    f"it concurrently",
                    Severity.ERROR,
                    source=source,
                    line=first.catalog[catalog_name][0].line,
                )
        for branch in branches:
            for catalog_name, effects in branch.catalog.items():
                if catalog_name in conflicted:
                    continue  # already a RACE001; one finding per defect
                report.add(
                    "RACE004",
                    f"catalog mutation"
                    + (f" of {catalog_name!r}" if catalog_name else "")
                    + f" inside {branch.label} auto-commits the WAL "
                    f"mid-fan-out; move it outside the PARALLEL block or "
                    f"into a transaction",
                    Severity.WARNING,
                    source=source,
                    line=effects[0].line,
                )

    @staticmethod
    def _first_line(
        branch: _BranchEffects, ident: str, kinds: tuple[str, ...]
    ) -> int | None:
        for effect in branch.variables.get(ident, ()):
            if effect.kind in kinds:
                return effect.line
        return branch.line
