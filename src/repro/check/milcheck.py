"""Static analysis of MIL procedures — type/scope checking without execution.

The analyzer walks the MIL AST produced by :func:`repro.monet.mil.parse` and
verifies, before any statement runs:

* **scoping** — def-before-use of variables through ``IF``/``WHILE``/
  ``PARALLEL`` blocks, assignment to declared names only;
* **kernel calls** — existence, arity and (where declared) argument types of
  commands against the :class:`repro.monet.module.CommandSignature` table;
* **BAT method chains** — method existence/arity on statically known BATs,
  with head/tail type propagation through ``reverse``, ``find``, ``join``,
  ``max`` and friends (``new(void, int).reverse.find(3)`` knows the lookup
  key is an ``int`` and the result an ``oid``);
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

from dataclasses import dataclass, field
import difflib
from typing import Any, Iterable, Mapping

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.environment import MilPass
from repro.monet.atoms import ATOMS
from repro.monet.mil import (
    Assign,
    BinOp,
    Call,
    ExprStmt,
    If,
    Literal,
    MethodCall,
    MilProcedure,
    Name,
    Parallel,
    ProcDef,
    Return,
    UnaryOp,
    VarDecl,
    While,
    walk,
)
from repro.monet.module import CommandSignature

__all__ = ["BatT", "MilChecker", "check_source", "check_proc"]

_NUMERIC = {"int", "oid", "void", "flt", "dbl"}
_STRINGY = {"str", "chr"}


@dataclass(frozen=True)
class BatT:
    """Statically inferred BAT type; ``"?"`` marks an unknown column type."""

    head: str = "?"
    tail: str = "?"

    def __str__(self) -> str:
        return f"BAT[{self.head},{self.tail}]"


#: Inferred MIL types are either a :class:`BatT` or an atom-type name string
#: ("int", "dbl", "str", "bit", ...); "any" is the unknown/escape type.
MilType = Any


def _named_type(type_name: str | None) -> MilType:
    """Map a declared MIL type name to an inferred type."""
    if type_name is None:
        return "any"
    if type_name == "BAT":
        return BatT()
    if type_name.startswith("BAT[") and type_name.endswith("]"):
        head, _, tail = type_name[4:-1].partition(",")
        return BatT(head.strip() or "?", tail.strip() or "?")
    if type_name in ATOMS or type_name in ("any", "bool"):
        return "bit" if type_name == "bool" else type_name
    return "any"


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


def _head_as_value(head: str) -> str:
    """Column type a void head materializes to when it becomes a value."""
    return "oid" if head == "void" else head


# ---------------------------------------------------------------------------
# BAT method table: name -> (min_args, max_args, result)
# ``result`` is a type name, "head"/"tail" (resolved against the receiver),
# "same" (the receiver type), or a callable (receiver, arg_types) -> MilType.
# ---------------------------------------------------------------------------

def _reverse_result(bat: BatT, args: list[MilType]) -> MilType:
    return BatT(_head_as_value(bat.tail), _head_as_value(bat.head))


def _join_result(bat: BatT, args: list[MilType]) -> MilType:
    other = args[0] if args else "any"
    tail = _head_as_value(other.tail) if isinstance(other, BatT) else "?"
    return BatT(_head_as_value(bat.head), tail)


_BAT_METHODS: dict[str, tuple[int, int, Any]] = {
    "insert": (1, 2, "same"),
    "insert_bulk": (2, 2, "same"),
    "delete": (1, 1, "same"),
    "replace": (2, 2, "same"),
    "find": (1, 1, "tail"),
    "exist": (1, 1, "bit"),
    "fetch": (1, 1, "any"),
    "reverse": (0, 0, _reverse_result),
    "mirror": (0, 0, lambda b, a: BatT(_head_as_value(b.head), _head_as_value(b.head))),
    "mark": (0, 1, lambda b, a: BatT(_head_as_value(b.head), "oid")),
    "copy": (0, 1, "same"),
    "slice": (2, 2, "same"),
    "unique": (0, 0, "same"),
    "sort": (0, 1, "same"),
    "select": (1, 2, lambda b, a: BatT(_head_as_value(b.head), b.tail)),
    "filter_tail": (1, 1, "same"),
    "join": (1, 1, _join_result),
    "semijoin": (1, 1, "same"),
    "kdiff": (1, 1, "same"),
    "kunion": (1, 1, "same"),
    "max": (0, 0, "tail"),
    "min": (0, 0, "tail"),
    "sum": (0, 0, "tail"),
    "avg": (0, 0, "dbl"),
    "count": (0, 0, "int"),
    "histogram": (0, 0, lambda b, a: BatT(_head_as_value(b.tail), "int")),
    "heads": (0, 0, "any"),
    "tails": (0, 0, "any"),
    "tail_array": (0, 0, "any"),
    "head_array": (0, 0, "any"),
    "name": (0, 0, "str"),
    "head_type": (0, 0, "str"),
    "tail_type": (0, 0, "str"),
}

#: Per-method argument type expectations, resolved against the receiver.
_BAT_METHOD_ARGS: dict[str, tuple[str, ...]] = {
    "find": ("head",),
    "delete": ("head",),
    "exist": ("head",),
    "replace": ("head", "tail"),
    "select": ("tail", "tail"),
    "slice": ("int", "int"),
    "fetch": ("int",),
    "join": ("BAT",),
    "semijoin": ("BAT",),
    "kdiff": ("BAT",),
    "kunion": ("BAT",),
}


@dataclass
class _VarInfo:
    type: MilType
    line: int
    used: bool = False
    is_param: bool = False
    effect_free_init: bool = False


@dataclass
class _Scope:
    variables: dict[str, _VarInfo] = field(default_factory=dict)
    parent: "_Scope | None" = None

    def lookup(self, ident: str) -> "_VarInfo | None":
        scope: _Scope | None = self
        while scope is not None:
            if ident in scope.variables:
                return scope.variables[ident]
            scope = scope.parent
        return None


def _suggest(name: str, candidates: Iterable[str]) -> str:
    matches = difflib.get_close_matches(name, list(candidates), n=2)
    if matches:
        return " (did you mean " + ", ".join(repr(m) for m in matches) + "?)"
    return ""


def _effect_free(node: Any) -> bool:
    """Whether evaluating ``node`` can have no side effect (for MIL013)."""
    return not any(isinstance(n, (Call, MethodCall)) for n in walk(node))


class MilChecker(MilPass):
    """Static analyzer for MIL programs and procedures."""

    reports_syntax_errors = True

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def check_program(
        self, statements: list[Any], name: str = "<mil>"
    ) -> DiagnosticReport:
        """Check a parsed statement list (top level plus PROC bodies)."""
        report = DiagnosticReport()
        # procedures see every PROC of the program (forward references are
        # legal as long as the callee is defined before the call *runs*).
        pending = {
            s.name: s for s in statements if isinstance(s, ProcDef)
        }
        known_procs = {**self.env.procedures, **pending}
        toplevel = self._global_scope()
        for statement in statements:
            if isinstance(statement, ProcDef):
                if (
                    statement.name in self.env.procedures
                    or pending.get(statement.name) is not statement
                ):
                    report.add(
                        "MIL012",
                        f"procedure {statement.name!r} is already defined",
                        Severity.ERROR,
                        source=name,
                        line=statement.line,
                    )
                report.extend(
                    self._check_proc_def(statement, known_procs, source=name)
                )
            else:
                self._check_block([statement], toplevel, report, name, None)
        return report

    def _check_definition(self, definition: ProcDef, label: str) -> DiagnosticReport:
        known = dict(self.env.procedures)
        known.setdefault(definition.name, definition)
        return self._check_proc_def(definition, known, label)

    def _global_scope(self) -> "_Scope":
        return _Scope(
            {g: _VarInfo("any", 0, used=True) for g in self.env.globals_names}
        )

    # ------------------------------------------------------------------
    # procedure / block analysis
    # ------------------------------------------------------------------
    def _check_proc_def(
        self,
        definition: ProcDef,
        known_procs: Mapping[str, ProcDef],
        source: str,
    ) -> DiagnosticReport:
        report = DiagnosticReport()
        body_scope = _Scope(parent=self._global_scope())
        seen_params: set[str] = set()
        for param in definition.params:
            if param.ident in seen_params:
                report.add(
                    "MIL012",
                    f"duplicate parameter {param.ident!r} in PROC "
                    f"{definition.name}",
                    Severity.ERROR,
                    source=source,
                    line=definition.line,
                )
            seen_params.add(param.ident)
            body_scope.variables[param.ident] = _VarInfo(
                _named_type(param.type_name), definition.line, is_param=True
            )
        terminated = self._check_block(
            definition.body,
            body_scope,
            report,
            source,
            known_procs,
            return_type=(
                _named_type(definition.return_type)
                if definition.return_type is not None
                else "__none__"
            ),
        )
        if definition.return_type is not None and not terminated:
            report.add(
                "MIL010",
                f"PROC {definition.name} declares return type "
                f"{definition.return_type!r} but not every path RETURNs",
                Severity.ERROR,
                source=source,
                line=definition.line,
            )
        self._report_unused(body_scope, report, source)
        return report

    def _check_block(
        self,
        statements: list[Any],
        scope: _Scope,
        report: DiagnosticReport,
        source: str,
        known_procs: Mapping[str, ProcDef] | None,
        return_type: MilType | str | None = "__unset__",
    ) -> bool:
        """Check a statement list; returns True when every path RETURNs."""
        terminated = False
        ever_terminated = False
        for statement in statements:
            if terminated:
                report.add(
                    "MIL009",
                    "unreachable code after RETURN",
                    Severity.WARNING,
                    source=source,
                    line=getattr(statement, "line", None),
                )
                ever_terminated = True
                terminated = False  # report once per block
            match statement:
                case ProcDef():
                    # nested definitions are checked like top-level ones
                    report.extend(
                        self._check_proc_def(
                            statement, known_procs or {}, source
                        )
                    )
                case VarDecl(ident=ident, value=value):
                    declared_type = "any"
                    if value is not None:
                        declared_type = self._infer(
                            value, scope, report, source, known_procs
                        )
                    if ident in scope.variables:
                        report.add(
                            "MIL003",
                            f"variable {ident!r} redeclared in the same scope",
                            Severity.WARNING,
                            source=source,
                            line=statement.line,
                        )
                    scope.variables[ident] = _VarInfo(
                        declared_type,
                        statement.line,
                        effect_free_init=_effect_free(value),
                    )
                case Assign(ident=ident, value=value):
                    value_type = self._infer(
                        value, scope, report, source, known_procs
                    )
                    info = scope.lookup(ident)
                    if info is None:
                        report.add(
                            "MIL002",
                            f"assignment to undeclared variable {ident!r}",
                            Severity.ERROR,
                            source=source,
                            line=statement.line,
                        )
                    else:
                        info.type = value_type
                case ExprStmt(expr=expr):
                    self._infer(expr, scope, report, source, known_procs)
                case Return(expr=expr):
                    if expr is not None:
                        value_type = self._infer(
                            expr, scope, report, source, known_procs
                        )
                        if (
                            return_type not in ("__unset__", "__none__")
                            and not _compatible(return_type, value_type)
                        ):
                            report.add(
                                "MIL014",
                                f"RETURN value type {value_type} is "
                                f"incompatible with the declared return "
                                f"type {return_type}",
                                Severity.WARNING,
                                source=source,
                                line=statement.line,
                            )
                    terminated = True
                case If(cond=cond, then=then, orelse=orelse):
                    self._infer(cond, scope, report, source, known_procs)
                    then_done = self._check_block(
                        then, _Scope(parent=scope), report, source,
                        known_procs, return_type,
                    )
                    else_done = self._check_block(
                        orelse, _Scope(parent=scope), report, source,
                        known_procs, return_type,
                    )
                    if then_done and else_done and orelse:
                        terminated = True
                case While(cond=cond, body=body):
                    self._infer(cond, scope, report, source, known_procs)
                    self._check_block(
                        body, _Scope(parent=scope), report, source,
                        known_procs, return_type,
                    )
                case Parallel(body=body):
                    self._check_block(
                        body, _Scope(parent=scope), report, source,
                        known_procs, return_type,
                    )
                case _:
                    pass
        return terminated or ever_terminated

    def _report_unused(
        self, scope: _Scope, report: DiagnosticReport, source: str
    ) -> None:
        for ident, info in scope.variables.items():
            if info.used or info.is_param or not info.effect_free_init:
                continue
            report.add(
                "MIL013",
                f"variable {ident!r} is declared but never used",
                Severity.WARNING,
                source=source,
                line=info.line,
            )

    # ------------------------------------------------------------------
    # expression typing
    # ------------------------------------------------------------------
    def _infer(
        self,
        node: Any,
        scope: _Scope,
        report: DiagnosticReport,
        source: str,
        known_procs: Mapping[str, ProcDef] | None,
    ) -> MilType:
        match node:
            case Literal(value=value):
                if isinstance(value, bool):
                    return "bit"
                if isinstance(value, int):
                    return "int"
                if isinstance(value, float):
                    return "dbl"
                if isinstance(value, str):
                    return "str"
                return "any"
            case Name(ident=ident):
                info = scope.lookup(ident)
                if info is not None:
                    info.used = True
                    return info.type
                if ident in self.env.commands or ident in (known_procs or {}):
                    return "any"  # command/proc referenced as a value
                report.add(
                    "MIL001",
                    f"use of undefined name {ident!r}"
                    + _suggest(ident, self._known_names(scope, known_procs)),
                    Severity.ERROR,
                    source=source,
                    line=node.line,
                )
                return "any"
            case Call():
                return self._infer_call(node, scope, report, source, known_procs)
            case MethodCall():
                return self._infer_method(node, scope, report, source, known_procs)
            case BinOp(op=op, left=left, right=right):
                left_type = self._infer(left, scope, report, source, known_procs)
                right_type = self._infer(right, scope, report, source, known_procs)
                if op in ("AND", "OR", "=", "!=", "<", ">", "<=", ">="):
                    return "bit"
                if left_type == "str" or right_type == "str":
                    return "str"
                if "dbl" in (left_type, right_type) or "flt" in (left_type, right_type):
                    return "dbl"
                if left_type == "int" and right_type == "int":
                    return "dbl" if op == "/" else "int"
                return "any"
            case UnaryOp(op=op, operand=operand):
                operand_type = self._infer(
                    operand, scope, report, source, known_procs
                )
                return "bit" if op == "NOT" else operand_type
            case _:
                return "any"

    def _known_names(
        self, scope: _Scope, known_procs: Mapping[str, ProcDef] | None
    ) -> set[str]:
        names: set[str] = set(self.env.commands) | set(known_procs or {})
        enclosing: _Scope | None = scope
        while enclosing is not None:
            names.update(enclosing.variables)
            enclosing = enclosing.parent
        return names

    def _infer_call(
        self,
        node: Call,
        scope: _Scope,
        report: DiagnosticReport,
        source: str,
        known_procs: Mapping[str, ProcDef] | None,
    ) -> MilType:
        procs = known_procs or {}
        if node.func == "new":
            return self._check_new(node, report, source)
        arg_types = [
            self._infer(a, scope, report, source, procs) for a in node.args
        ]
        # precedence mirrors the interpreter: procs, then scope, then commands
        if node.func in procs:
            definition = procs[node.func]
            if len(node.args) != len(definition.params):
                report.add(
                    "MIL005",
                    f"PROC {node.func} expects {len(definition.params)} "
                    f"argument(s), got {len(node.args)}",
                    Severity.ERROR,
                    source=source,
                    line=node.line,
                )
            else:
                for index, (param, actual) in enumerate(
                    zip(definition.params, arg_types)
                ):
                    expected = _named_type(param.type_name)
                    if not _compatible(expected, actual):
                        report.add(
                            "MIL006",
                            f"PROC {node.func} argument {index + 1} "
                            f"({param.ident}) expects {param.type_name}, "
                            f"got {actual}",
                            Severity.ERROR,
                            source=source,
                            line=node.line,
                        )
            return _named_type(definition.return_type)
        info = scope.lookup(node.func)
        if info is not None:
            info.used = True
            return "any"  # a variable holding a callable; nothing to check
        if node.func in self.env.signatures:
            return self._check_signature_call(
                node, self.env.signatures[node.func], arg_types, report, source
            )
        if node.func in self.env.commands:
            return "any"
        report.add(
            "MIL004",
            f"call to unknown command or procedure {node.func!r}"
            + _suggest(node.func, set(self.env.commands) | set(procs)),
            Severity.ERROR,
            source=source,
            line=node.line,
        )
        return "any"

    def _check_new(
        self, node: Call, report: DiagnosticReport, source: str
    ) -> MilType:
        type_names = [a.ident for a in node.args if isinstance(a, Name)]
        if len(node.args) != 2 or len(type_names) != 2:
            report.add(
                "MIL011",
                "new(head_type, tail_type) needs exactly two type names",
                Severity.ERROR,
                source=source,
                line=node.line,
            )
            return BatT()
        for type_name in type_names:
            if type_name not in ATOMS:
                report.add(
                    "MIL011",
                    f"unknown atom type {type_name!r} in new()"
                    + _suggest(type_name, ATOMS.names()),
                    Severity.ERROR,
                    source=source,
                    line=node.line,
                )
        return BatT(type_names[0], type_names[1])

    def _check_signature_call(
        self,
        node: Call,
        signature: CommandSignature,
        arg_types: list[MilType],
        report: DiagnosticReport,
        source: str,
    ) -> MilType:
        n = len(arg_types)
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
                f"{signature.describe()} expects {expected} argument(s), "
                f"got {n}",
                Severity.ERROR,
                source=source,
                line=node.line,
            )
        else:
            for index, actual in enumerate(arg_types):
                slot = min(index, len(signature.args) - 1) if signature.args else 0
                if not signature.args:
                    break
                expected = _named_type(signature.args[slot])
                if not _compatible(expected, actual):
                    report.add(
                        "MIL006",
                        f"{signature.describe()} argument {index + 1} expects "
                        f"{signature.args[slot]}, got {actual}",
                        Severity.ERROR,
                        source=source,
                        line=node.line,
                    )
        return _named_type(signature.returns)

    def _infer_method(
        self,
        node: MethodCall,
        scope: _Scope,
        report: DiagnosticReport,
        source: str,
        known_procs: Mapping[str, ProcDef] | None,
    ) -> MilType:
        receiver = self._infer(node.target, scope, report, source, known_procs)
        arg_types = [
            self._infer(a, scope, report, source, known_procs) for a in node.args
        ]
        if not isinstance(receiver, BatT):
            return "any"  # only BAT chains are statically modelled
        entry = _BAT_METHODS.get(node.method)
        if entry is None:
            report.add(
                "MIL007",
                f"{receiver} has no MIL method {node.method!r}"
                + _suggest(node.method, _BAT_METHODS),
                Severity.ERROR,
                source=source,
                line=node.line,
            )
            return "any"
        min_args, max_args, result = entry
        if not min_args <= len(arg_types) <= max_args:
            expected = (
                str(min_args)
                if min_args == max_args
                else f"{min_args}..{max_args}"
            )
            report.add(
                "MIL008",
                f"BAT method {node.method!r} expects {expected} argument(s), "
                f"got {len(arg_types)}",
                Severity.ERROR,
                source=source,
                line=node.line,
            )
        else:
            self._check_method_args(node, receiver, arg_types, report, source)
        if callable(result):
            return result(receiver, arg_types)
        if result == "same":
            return receiver
        if result == "tail":
            return _head_as_value(receiver.tail) if receiver.tail != "?" else "any"
        if result == "head":
            return _head_as_value(receiver.head) if receiver.head != "?" else "any"
        return result

    def _check_method_args(
        self,
        node: MethodCall,
        receiver: BatT,
        arg_types: list[MilType],
        report: DiagnosticReport,
        source: str,
    ) -> None:
        if node.method == "insert":
            if len(arg_types) == 1:
                if receiver.head not in ("void", "?"):
                    report.add(
                        "MIL006",
                        f"single-argument insert needs a void head, "
                        f"receiver is {receiver}",
                        Severity.ERROR,
                        source=source,
                        line=node.line,
                    )
                expected: list[str] = [receiver.tail]
            else:
                expected = [receiver.head, receiver.tail]
        else:
            spec = _BAT_METHOD_ARGS.get(node.method)
            if spec is None:
                return
            expected = [
                receiver.head if kind == "head"
                else receiver.tail if kind == "tail"
                else kind
                for kind in spec[: len(arg_types)]
            ]
        for index, (kind, actual) in enumerate(zip(expected, arg_types)):
            expected_type: MilType = BatT() if kind == "BAT" else kind
            if kind == "?":
                continue
            if not _compatible(expected_type, actual):
                report.add(
                    "MIL006",
                    f"BAT method {node.method!r} argument {index + 1} expects "
                    f"{expected_type}, got {actual} (receiver {receiver})",
                    Severity.ERROR,
                    source=source,
                    line=node.line,
                )


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------

def check_source(
    source: str, name: str = "<mil>", *environment: Any, **named: Any
) -> DiagnosticReport:
    """Parse and statically check MIL source text (environment as for
    :class:`MilChecker`)."""
    return MilChecker(*environment, **named).check_source(source, name=name)


def check_proc(
    definition: ProcDef | MilProcedure, *environment: Any, **named: Any
) -> DiagnosticReport:
    """Statically check a single parsed procedure definition."""
    return MilChecker(*environment, **named).check_proc(definition)
