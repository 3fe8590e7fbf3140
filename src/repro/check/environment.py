"""What every MIL pass checks against, and the entry points they share.

:class:`Environment` is the kernel state a static pass may consult —
command names, declared signatures, global/catalog names and the already
defined procedures — normalised once. The interpreter hands one out through
:meth:`repro.monet.mil.MilInterpreter.check_environment`; tests build one
implicitly by passing the four values to a checker class.

An environment also remembers analyses other passes reuse (the abstract run
of a procedure, its call sites), so passes built over *the same*
environment compute each of them once per definition no matter which pass
asks first — see :meth:`Environment.once`.

:class:`MilPass` is the base of the checker classes: the constructor every
one of them had, and the ``check_source`` / ``check_program`` /
``check_proc`` boilerplate (parse, ``MIL000`` ownership, the per-``PROC``
loop, ``MilProcedure`` unwrapping) they all repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, TypeVar

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.errors import MilSyntaxError
from repro.monet.mil import MilProcedure, ProcDef, parse

__all__ = ["Environment", "MilPass", "definition_of", "parse_program"]

T = TypeVar("T")


def definition_of(proc: ProcDef | MilProcedure) -> ProcDef:
    """The parsed definition, whether or not it is wrapped as registered."""
    return proc.definition if isinstance(proc, MilProcedure) else proc


def _or_empty(value: Any) -> Any:
    # not ``value or ()``: the kernel's catalog view is a dict whose own
    # length is 0 while catalog names shine through its iteration
    return () if value is None else value


@dataclass(eq=False)
class Environment:
    """Kernel facts for static analysis, plus a per-definition analysis memo.

    Attributes:
        commands: known kernel command names (built from any mapping or
            iterable of names).
        signatures: declared :class:`CommandSignature` per command name.
        globals_names: names visible at global scope (the BAT catalog plus
            interpreter globals).
        procedures: already defined procedures, callable from the checked
            code (name -> ``ProcDef``; ``MilProcedure`` values are unwrapped).

    ``None`` stands for "empty" everywhere. Treat an environment as
    immutable: the memo is only sound while the four values (and the
    analysed nodes) stay as they were.
    """

    commands: frozenset[str] = frozenset()
    signatures: dict[str, Any] = field(default_factory=dict)
    globals_names: frozenset[str] = frozenset()
    procedures: dict[str, ProcDef] = field(default_factory=dict)
    _memo: dict[tuple[str, int], tuple[Any, Any]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        # the declared types are what the passes read; construction takes
        # whatever the kernel, the CLI or a test has at hand
        self.commands = frozenset(_or_empty(self.commands))
        self.signatures = dict(_or_empty(self.signatures))
        self.globals_names = frozenset(_or_empty(self.globals_names))
        self.procedures = {
            name: definition_of(proc)
            for name, proc in dict(_or_empty(self.procedures)).items()
        }

    def once(self, analysis: str, node: Any, compute: Callable[[], T]) -> T:
        """``compute()`` for ``node``, at most once per environment.

        Keyed by node identity (AST nodes are unhashable dataclasses); the
        node is pinned alongside the result so its id cannot be recycled.
        """
        key = (analysis, id(node))
        if key not in self._memo:
            self._memo[key] = (node, compute())
        return self._memo[key][1]


def parse_program(source: str, name: str) -> tuple[list[Any] | None, DiagnosticReport]:
    """Parse MIL source; a syntax error is a ``MIL000`` report, not a raise."""
    report = DiagnosticReport()
    try:
        return parse(source), report
    except MilSyntaxError as exc:
        report.add("MIL000", str(exc), Severity.ERROR, source=name, line=exc.line)
        return None, report


class MilPass:
    """Base class of the MIL checkers.

    Pass an :class:`Environment` in place of ``commands`` to share one —
    and the analyses memoised on it — between passes; otherwise the four
    arguments are normalised into a private one.

    A subclass implements :meth:`_check_definition` (and, when file-level
    statements matter to it, :meth:`_check_toplevel`); both are handed the
    procedures calls resolve to. One that needs every ``PROC`` of a file in
    view at once overrides :meth:`check_program`.
    """

    #: Whether a standalone :meth:`check_source` reports the ``MIL000`` for
    #: unparseable input (milcheck owns it; the others stay silent so a
    #: syntax error is one finding, not one per pass).
    reports_syntax_errors = False

    def __init__(
        self,
        commands: Mapping[str, Any] | Iterable[str] | Environment | None = None,
        signatures: Mapping[str, Any] | None = None,
        globals_names: Iterable[str] = (),
        procedures: Mapping[str, Any] | None = None,
    ):
        self.env = (
            commands
            if isinstance(commands, Environment)
            else Environment(commands, signatures, globals_names, procedures)
        )

    def check_source(self, source: str, name: str = "<mil>") -> DiagnosticReport:
        """Parse ``source`` and check the whole program."""
        statements, syntax = parse_program(source, name)
        if statements is None:
            return syntax if self.reports_syntax_errors else DiagnosticReport()
        return self.check_program(statements, name=name)

    def check_program(
        self, statements: list[Any], name: str = "<mil>"
    ) -> DiagnosticReport:
        """Check parsed statements: every ``PROC``, then the file-level rest.

        Calls resolve to the environment's procedures and the file's.
        """
        procs = dict(self.env.procedures)
        procs.update((s.name, s) for s in statements if isinstance(s, ProcDef))
        report = DiagnosticReport()
        for statement in statements:
            if isinstance(statement, ProcDef):
                report.extend(self._check_definition(statement, name, procs))
        toplevel = [s for s in statements if not isinstance(s, ProcDef)]
        if toplevel:
            report.extend(self._check_toplevel(toplevel, name, procs))
        return report

    def check_proc(
        self, definition: ProcDef | MilProcedure, source: str | None = None
    ) -> DiagnosticReport:
        """Check one procedure; ``source`` labels the findings. Calls
        resolve to the environment's procedures, and to ``definition``
        itself unless it redefines one of them."""
        definition = definition_of(definition)
        procs = dict(self.env.procedures)
        procs.setdefault(definition.name, definition)
        return self._check_definition(definition, source or definition.name, procs)

    def _check_definition(
        self, definition: ProcDef, label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        raise NotImplementedError

    def _check_toplevel(
        self, statements: list[Any], label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        return DiagnosticReport()
