"""Static analysis of MIL procedures — type/scope rules without execution.

The rules read the facts and the *type* component of the shared abstract
run (:mod:`repro.check.absint`) — types in lexical block scopes, where a
store overwrites in place, so after an ``IF`` a variable has the type of
its textually last store — and verify, before any statement runs:

* **scoping** — def-before-use of variables through ``IF``/``WHILE``/
  ``PARALLEL`` blocks, assignment to declared names only;
* **kernel calls** — existence, arity and (where declared) argument types of
  commands against the :class:`repro.monet.module.CommandSignature` table;
* **BAT method chains** — method existence, arity and argument kinds from
  the one BAT-method table, with head/tail types propagated through
  ``reverse``, ``find``, ``join``, ``max`` and friends
  (``new(void, int).reverse.find(3)`` knows the lookup key is an ``int``
  and the result an ``oid``);
* **control flow** — unreachable statements after ``RETURN`` and procedures
  whose declared return type is never produced on some path.

Diagnostic codes:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
MIL000    error     MIL source failed to parse
MIL001    error     use of an undefined name
MIL002    error     assignment to an undeclared variable
MIL003    warning   redeclaration of a variable in the same scope
MIL004    error     call to an unknown command or procedure
MIL005    error     wrong number of arguments in a call
MIL006    error     argument type incompatible with the declared type
MIL007    error     unknown method on a BAT
MIL008    error     wrong number of arguments to a BAT method
MIL009    warning   unreachable code after RETURN
MIL010    error     missing RETURN in a procedure with a return type
MIL011    error     malformed ``new()`` constructor or unknown atom type
MIL012    error     duplicate parameter/procedure definition
MIL013    warning   variable declared but never used
MIL014    warning   RETURN value type incompatible with declared type
========  ========  =====================================================
"""

from __future__ import annotations

from typing import Any

from repro.check.absint import (
    BAT_METHODS,
    BatT,
    InterpretedPass,
    Interpreter,
    Invoked,
    MilType,
    Nested,
    Resolved,
    Returned,
    Stored,
    Undefined,
    Unreachable,
    named_type,
)
from repro.check.diagnostics import DiagnosticReport, Severity, suggest
from repro.monet.atoms import ATOMS
from repro.monet.mil import MethodCall, Name, ProcDef

__all__ = ["MilChecker"]

_NUMERIC = {"int", "oid", "void", "flt", "dbl"}
_STRINGY = {"str", "chr"}


def _column_compatible(expected: str, actual: str) -> bool:
    if "?" in (expected, actual) or "any" in (expected, actual):
        return True
    if expected == actual:
        return True
    if expected in _NUMERIC and actual in _NUMERIC:
        return True
    return expected in _STRINGY and actual in _STRINGY


def _compatible(expected: MilType, actual: MilType) -> bool:
    """Permissive assignability: unknowns match, numerics widen."""
    if expected == "any" or actual == "any":
        return True
    if isinstance(expected, BatT):
        if not isinstance(actual, BatT):
            return False
        return _column_compatible(expected.head, actual.head) and _column_compatible(
            expected.tail, actual.tail
        )
    if isinstance(actual, BatT):
        return False
    if expected in _NUMERIC:
        return actual in _NUMERIC or actual == "bit"
    if expected == "bit":
        return actual == "bit" or actual in _NUMERIC
    if expected in _STRINGY:
        return actual in _STRINGY
    return True


class MilChecker(InterpretedPass):
    """Type and scope rules over the shared abstract run."""

    reports_syntax_errors = True

    def check_program(
        self, statements: list[Any], name: str = "<mil>"
    ) -> DiagnosticReport:
        """The base pass's findings, plus MIL012 for each ``PROC`` whose
        name the environment or a later ``PROC`` of the file defines."""
        report = super().check_program(statements, name)
        last = {s.name: s for s in statements if isinstance(s, ProcDef)}
        for statement in statements:
            if isinstance(statement, ProcDef) and (
                statement.name in self.env.procedures
                or last[statement.name] is not statement
            ):
                report.add(
                    "MIL012",
                    f"procedure {statement.name!r} is already defined",
                    Severity.ERROR,
                    source=name,
                    line=statement.line,
                )
        return report

    def findings(self, run: Interpreter) -> DiagnosticReport:
        report = DiagnosticReport()
        definition = run.definition
        if definition is not None:
            seen: set[str] = set()
            for param in definition.params:
                if param.ident in seen:
                    report.add(
                        "MIL012",
                        f"duplicate parameter {param.ident!r} in PROC "
                        f"{definition.name}",
                        Severity.ERROR,
                        line=definition.line,
                    )
                seen.add(param.ident)
        for fact in run.facts:
            match fact:
                case Nested(run=inner):
                    report.extend(self.findings(inner))
                case Undefined(ident=ident, line=line, candidates=candidates):
                    report.add(
                        "MIL001",
                        f"use of undefined name {ident!r}" + suggest(ident, candidates),
                        Severity.ERROR,
                        line=line,
                    )
                case Stored(ident=ident, line=line, binding="undeclared"):
                    report.add(
                        "MIL002",
                        f"assignment to undeclared variable {ident!r}",
                        Severity.ERROR,
                        line=line,
                    )
                case Stored(ident=ident, line=line, binding="redeclare"):
                    report.add(
                        "MIL003",
                        f"variable {ident!r} redeclared in the same scope",
                        Severity.WARNING,
                        line=line,
                    )
                case Unreachable(line=line):
                    report.add(
                        "MIL009",
                        "unreachable code after RETURN",
                        Severity.WARNING,
                        line=line,
                    )
                case Resolved():
                    self._call(fact, run, report)
                case Invoked():
                    self._method(fact, report)
                case Returned(node=node, value=value) if (
                    definition is not None and definition.return_type is not None
                ):
                    declared = named_type(definition.return_type)
                    if not _compatible(declared, value.type):
                        report.add(
                            "MIL014",
                            f"RETURN value type {value.type} is incompatible "
                            f"with the declared return type {declared}",
                            Severity.WARNING,
                            line=node.line,
                        )
        if definition is None:
            return report
        if definition.return_type is not None and not run.returns:
            report.add(
                "MIL010",
                f"PROC {definition.name} declares return type "
                f"{definition.return_type!r} but not every path RETURNs",
                Severity.ERROR,
                line=definition.line,
            )
        for ident, var in run.locals.items():
            if not (var.used or var.param) and var.effect_free:
                report.add(
                    "MIL013",
                    f"variable {ident!r} is declared but never used",
                    Severity.WARNING,
                    line=var.line,
                )
        return report

    # -- calls -----------------------------------------------------------
    def _call(
        self, fact: Resolved, run: Interpreter, report: DiagnosticReport
    ) -> None:
        node, args = fact.node, [v.type for v in fact.args]
        if fact.kind == "new":
            self._check_new(node, report)
        elif fact.kind == "proc":
            definition = fact.target
            if len(args) != len(definition.params):
                report.add(
                    "MIL005",
                    f"PROC {node.func} expects {len(definition.params)} "
                    f"argument(s), got {len(args)}",
                    Severity.ERROR,
                    line=node.line,
                )
                return
            for index, (param, actual) in enumerate(zip(definition.params, args)):
                if not _compatible(named_type(param.type_name), actual):
                    report.add(
                        "MIL006",
                        f"PROC {node.func} argument {index + 1} "
                        f"({param.ident}) expects {param.type_name}, "
                        f"got {actual}",
                        Severity.ERROR,
                        line=node.line,
                    )
        elif fact.kind == "command" and fact.target is not None:
            self._check_signature(node, fact.target, args, report)
        elif fact.kind == "unknown":
            report.add(
                "MIL004",
                f"call to unknown command or procedure {node.func!r}"
                + suggest(node.func, set(self.env.commands) | set(run.mil_procs)),
                Severity.ERROR,
                line=node.line,
            )

    def _check_new(self, node: Any, report: DiagnosticReport) -> None:
        type_names = [a.ident for a in node.args if isinstance(a, Name)]
        if len(node.args) != 2 or len(type_names) != 2:
            report.add(
                "MIL011",
                "new(head_type, tail_type) needs exactly two type names",
                Severity.ERROR,
                line=node.line,
            )
            return
        for type_name in type_names:
            if type_name not in ATOMS:
                report.add(
                    "MIL011",
                    f"unknown atom type {type_name!r} in new()"
                    + suggest(type_name, ATOMS.names()),
                    Severity.ERROR,
                    line=node.line,
                )

    def _check_signature(
        self, node: Any, signature: Any, args: list[MilType], report: DiagnosticReport
    ) -> None:
        n = len(args)
        if (signature.varargs and n < signature.min_args) or (
            not signature.varargs and n != len(signature.args)
        ):
            expected = (
                f"at least {signature.min_args}"
                if signature.varargs
                else str(len(signature.args))
            )
            report.add(
                "MIL005",
                f"{signature.describe()} expects {expected} argument(s), got {n}",
                Severity.ERROR,
                line=node.line,
            )
            return
        for index, actual in enumerate(args if signature.args else ()):
            slot = min(index, len(signature.args) - 1)
            if not _compatible(named_type(signature.args[slot]), actual):
                report.add(
                    "MIL006",
                    f"{signature.describe()} argument {index + 1} expects "
                    f"{signature.args[slot]}, got {actual}",
                    Severity.ERROR,
                    line=node.line,
                )

    # -- BAT methods -----------------------------------------------------
    def _method(self, fact: Invoked, report: DiagnosticReport) -> None:
        node: MethodCall = fact.node
        receiver, args = fact.receiver.type, [v.type for v in fact.args]
        row = fact.row
        if not isinstance(receiver, BatT):
            return  # only BAT chains are modelled
        if row is None:
            report.add(
                "MIL007",
                f"{receiver} has no MIL method {node.method!r}"
                + suggest(node.method, BAT_METHODS),
                Severity.ERROR,
                line=node.line,
            )
            return
        if not row.min_args <= len(args) <= row.max_args:
            expected = (
                str(row.min_args)
                if row.min_args == row.max_args
                else f"{row.min_args}..{row.max_args}"
            )
            report.add(
                "MIL008",
                f"BAT method {node.method!r} expects {expected} argument(s), "
                f"got {len(args)}",
                Severity.ERROR,
                line=node.line,
            )
            return
        if node.method == "insert" and len(args) == 1 and receiver.head not in ("void", "?"):
            report.add(
                "MIL006",
                f"single-argument insert needs a void head, receiver is {receiver}",
                Severity.ERROR,
                line=node.line,
            )
        kinds = row.kinds[len(row.kinds) - len(args):] if row.kinds else ()
        for index, (kind, actual) in enumerate(zip(kinds, args)):
            column = {"head": receiver.head, "tail": receiver.tail}.get(kind, kind)
            expected: MilType = BatT() if column == "BAT" else column
            if column != "?" and not _compatible(expected, actual):
                report.add(
                    "MIL006",
                    f"BAT method {node.method!r} argument {index + 1} expects "
                    f"{expected}, got {actual} (receiver {receiver})",
                    Severity.ERROR,
                    line=node.line,
                )
