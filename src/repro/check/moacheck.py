"""Static validation of Moa expression trees.

The checker walks an :class:`repro.moa.algebra.Expr` tree and verifies —
without evaluating it — that every ``Var`` is bound, every ``Apply`` names a
registered extension operator with a compatible arity, and that structural
operators (``Field``, ``Nest``, ``Unnest``, set operators) are applied to
payloads of the right *shape*. Shapes form a small lattice: ``any`` (top),
``scalar``, tuple shapes with per-field sub-shapes, and set shapes with an
element shape; ``Const`` payloads seed the lattice from their Python values.

Diagnostic codes:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
MOA001    error     unbound ``Var``
MOA002    error     ``Apply`` names an unknown extension
MOA003    error     ``Apply`` names an unknown operator of an extension
MOA004    error     ``Apply`` argument count mismatches the operator
MOA005    error     ``Field`` access on a non-tuple shape
MOA006    error     invalid operator token (Cmp/Arith/BoolOp/Aggregate/SetOp)
MOA007    warning   duplicate field names in ``MakeTuple``
MOA008    error     unknown field on a statically known tuple shape
MOA009    error     set operator applied to a non-set shape
========  ========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
import inspect
from typing import Any, Iterable, Mapping

from repro.check.diagnostics import DiagnosticReport, Severity, suggest
from repro.moa.algebra import (
    Aggregate,
    Apply,
    Arith,
    BoolOp,
    Cmp,
    Const,
    Expr,
    Field,
    Join,
    MakeTuple,
    Map,
    Nest,
    Not,
    Select,
    Semijoin,
    SetOp,
    The,
    Unnest,
    Var,
)
from repro.moa.extension import ExtensionRegistry

__all__ = ["MoaChecker", "check_expr"]

_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_ARITH_OPS = {"+", "-", "*", "/"}
_BOOL_OPS = {"and", "or"}
_AGGREGATE_KINDS = {"count", "sum", "min", "max", "avg"}
_SET_OPS = {"union", "diff", "intersect"}


@dataclass(frozen=True)
class TupleShape:
    """Statically known tuple payload: field name -> shape."""

    fields: tuple[tuple[str, Any], ...]

    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def get(self, name: str) -> Any:
        for field_name, shape in self.fields:
            if field_name == name:
                return shape
        return None


@dataclass(frozen=True)
class SetShape:
    """Statically known set payload with a common element shape."""

    element: Any = "any"


def _shape_of_value(value: Any) -> Any:
    """Seed a shape from a concrete ``Const`` payload."""
    if isinstance(value, Mapping):
        return TupleShape(tuple((k, _shape_of_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        element = _shape_of_value(value[0]) if value else "any"
        return SetShape(element)
    return "scalar"


def _shape_name(shape: Any) -> str:
    if isinstance(shape, TupleShape):
        return f"tuple<{', '.join(shape.field_names())}>"
    if isinstance(shape, SetShape):
        return f"set<{_shape_name(shape.element)}>"
    return str(shape)


def _merge(a: Any, b: Any) -> Any:
    return a if a == b else "any"


class MoaChecker:
    """Static validator for Moa expression trees.

    Args:
        extensions: registry used to resolve ``Apply`` nodes; ``None`` makes
            every ``Apply`` an MOA002 finding.
        env: names (and optional shapes) bound in the evaluation environment.
            Iterables of names bind each name to the ``any`` shape.
        allow_free_vars: treat unbound ``Var`` as an external input instead
            of an MOA001 error — the :class:`repro.moa.rewrite.MoaCompiler`
            turns free variables into plan parameters, so it checks with
            this enabled.
    """

    def __init__(
        self,
        extensions: ExtensionRegistry | None = None,
        env: Mapping[str, Any] | Iterable[str] | None = None,
        allow_free_vars: bool = False,
    ):
        self._extensions = extensions
        if env is None:
            self._env: dict[str, Any] = {}
        elif isinstance(env, Mapping):
            self._env = dict(env)
        else:
            self._env = {name: "any" for name in env}
        self._allow_free_vars = allow_free_vars

    def check(self, expr: Expr, source: str = "<moa>") -> DiagnosticReport:
        """Walk ``expr`` and report shape/binding/registry findings."""
        report = DiagnosticReport()
        self._infer(expr, dict(self._env), report, source)
        return report

    # ------------------------------------------------------------------
    def _infer(
        self, expr: Expr, env: dict[str, Any], report: DiagnosticReport, source: str
    ) -> Any:
        match expr:
            case Const(value=value):
                return _shape_of_value(value)
            case Var(name=name):
                if name in env:
                    return env[name]
                if not self._allow_free_vars:
                    report.add(
                        "MOA001",
                        f"unbound Moa variable {name!r}"
                        + suggest(name, env),
                        Severity.ERROR,
                        source=source,
                    )
                return "any"
            case Field(source=src, name=name):
                shape = self._infer(src, env, report, source)
                if isinstance(shape, TupleShape):
                    field_shape = shape.get(name)
                    if field_shape is None:
                        report.add(
                            "MOA008",
                            f"tuple has no field {name!r}"
                            + suggest(name, shape.field_names()),
                            Severity.ERROR,
                            source=source,
                        )
                        return "any"
                    return field_shape
                if shape != "any":
                    report.add(
                        "MOA005",
                        f"field access {name!r} on non-tuple shape "
                        f"{_shape_name(shape)}",
                        Severity.ERROR,
                        source=source,
                    )
                return "any"
            case MakeTuple(fields=fields):
                seen: set[str] = set()
                shaped: list[tuple[str, Any]] = []
                for name, sub in fields:
                    if name in seen:
                        report.add(
                            "MOA007",
                            f"duplicate field {name!r} in MakeTuple",
                            Severity.WARNING,
                            source=source,
                        )
                    seen.add(name)
                    shaped.append((name, self._infer(sub, env, report, source)))
                return TupleShape(tuple(shaped))
            case Cmp(op=op, left=left, right=right):
                if op not in _CMP_OPS:
                    report.add(
                        "MOA006",
                        f"unknown comparison operator {op!r}; "
                        f"expected one of {sorted(_CMP_OPS)}",
                        Severity.ERROR,
                        source=source,
                    )
                self._infer(left, env, report, source)
                self._infer(right, env, report, source)
                return "scalar"
            case Arith(op=op, left=left, right=right):
                if op not in _ARITH_OPS:
                    report.add(
                        "MOA006",
                        f"unknown arithmetic operator {op!r}; "
                        f"expected one of {sorted(_ARITH_OPS)}",
                        Severity.ERROR,
                        source=source,
                    )
                self._infer(left, env, report, source)
                self._infer(right, env, report, source)
                return "scalar"
            case BoolOp(op=op, left=left, right=right):
                if op not in _BOOL_OPS:
                    report.add(
                        "MOA006",
                        f"unknown boolean operator {op!r}; expected 'and'/'or'",
                        Severity.ERROR,
                        source=source,
                    )
                self._infer(left, env, report, source)
                self._infer(right, env, report, source)
                return "scalar"
            case Not(operand=operand):
                self._infer(operand, env, report, source)
                return "scalar"
            case Map(var=var, body=body, source=src):
                element = self._set_element(src, env, report, source, "map")
                body_shape = self._infer(
                    body, {**env, var: element}, report, source
                )
                return SetShape(body_shape)
            case Select(var=var, pred=pred, source=src):
                element = self._set_element(src, env, report, source, "select")
                self._infer(pred, {**env, var: element}, report, source)
                return SetShape(element)
            case Join(
                left_var=lv,
                right_var=rv,
                pred=pred,
                left=left,
                right=right,
                result=result,
            ):
                left_el = self._set_element(left, env, report, source, "join")
                right_el = self._set_element(right, env, report, source, "join")
                bound = {**env, lv: left_el, rv: right_el}
                self._infer(pred, bound, report, source)
                return SetShape(self._infer(result, bound, report, source))
            case Semijoin(left_var=lv, right_var=rv, pred=pred, left=left, right=right):
                left_el = self._set_element(left, env, report, source, "semijoin")
                right_el = self._set_element(right, env, report, source, "semijoin")
                self._infer(pred, {**env, lv: left_el, rv: right_el}, report, source)
                return SetShape(left_el)
            case Nest(source=src, keys=keys, group_field=group_field):
                element = self._set_element(src, env, report, source, "nest")
                if isinstance(element, TupleShape):
                    for key in keys:
                        if element.get(key) is None:
                            report.add(
                                "MOA008",
                                f"nest key {key!r} is not a field of "
                                f"{_shape_name(element)}"
                                + suggest(key, element.field_names()),
                                Severity.ERROR,
                                source=source,
                            )
                    residual = TupleShape(
                        tuple(
                            (n, s) for n, s in element.fields if n not in keys
                        )
                    )
                    nested = tuple(
                        (n, s) for n, s in element.fields if n in keys
                    ) + ((group_field, SetShape(residual)),)
                    return SetShape(TupleShape(nested))
                return SetShape("any")
            case Unnest(source=src, set_field=set_field):
                element = self._set_element(src, env, report, source, "unnest")
                if isinstance(element, TupleShape) and element.get(set_field) is None:
                    report.add(
                        "MOA008",
                        f"unnest field {set_field!r} is not a field of "
                        f"{_shape_name(element)}"
                        + suggest(set_field, element.field_names()),
                        Severity.ERROR,
                        source=source,
                    )
                return SetShape("any")
            case Aggregate(kind=kind, source=src):
                if kind not in _AGGREGATE_KINDS:
                    report.add(
                        "MOA006",
                        f"unknown aggregate {kind!r}; "
                        f"expected one of {sorted(_AGGREGATE_KINDS)}",
                        Severity.ERROR,
                        source=source,
                    )
                self._set_element(src, env, report, source, f"aggregate {kind}")
                return "scalar"
            case SetOp(op=op, left=left, right=right):
                if op not in _SET_OPS:
                    report.add(
                        "MOA006",
                        f"unknown set operator {op!r}; "
                        f"expected one of {sorted(_SET_OPS)}",
                        Severity.ERROR,
                        source=source,
                    )
                left_el = self._set_element(left, env, report, source, op or "setop")
                right_el = self._set_element(right, env, report, source, op or "setop")
                return SetShape(_merge(left_el, right_el))
            case The(source=src):
                return self._set_element(src, env, report, source, "the")
            case Apply(extension=extension, operator=operator, args=args):
                for arg in args:
                    self._infer(arg, env, report, source)
                self._check_apply(expr, report, source)
                return "any"
            case _:
                return "any"

    def _set_element(
        self,
        expr: Expr,
        env: dict[str, Any],
        report: DiagnosticReport,
        source: str,
        operator: str,
    ) -> Any:
        """Infer ``expr`` and require a set shape, returning its element."""
        shape = self._infer(expr, env, report, source)
        if isinstance(shape, SetShape):
            return shape.element
        if shape != "any":
            report.add(
                "MOA009",
                f"{operator} applied to non-set shape {_shape_name(shape)}",
                Severity.ERROR,
                source=source,
            )
        return "any"

    def _check_apply(
        self, node: Apply, report: DiagnosticReport, source: str
    ) -> None:
        if self._extensions is None:
            report.add(
                "MOA002",
                f"expression uses extension {node.extension!r} but no "
                f"registry is available",
                Severity.ERROR,
                source=source,
            )
            return
        if node.extension not in self._extensions.names():
            report.add(
                "MOA002",
                f"unknown extension {node.extension!r}"
                + suggest(node.extension, self._extensions.names()),
                Severity.ERROR,
                source=source,
            )
            return
        operators = self._extensions.get(node.extension).operators()
        if node.operator not in operators:
            report.add(
                "MOA003",
                f"extension {node.extension!r} has no operator "
                f"{node.operator!r}" + suggest(node.operator, operators),
                Severity.ERROR,
                source=source,
            )
            return
        self._check_arity(node, operators[node.operator], report, source)

    def _check_arity(
        self, node: Apply, fn: Any, report: DiagnosticReport, source: str
    ) -> None:
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            return
        required = 0
        maximum: int | None = 0
        for parameter in signature.parameters.values():
            if parameter.kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            ):
                maximum = None if maximum is None else maximum + 1
                if parameter.default is inspect.Parameter.empty:
                    required += 1
            elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
                maximum = None
        count = len(node.args)
        if count < required or (maximum is not None and count > maximum):
            expected = (
                f"at least {required}"
                if maximum is None
                else str(required)
                if required == maximum
                else f"{required}..{maximum}"
            )
            report.add(
                "MOA004",
                f"operator {node.extension}.{node.operator} expects "
                f"{expected} argument(s), got {count}",
                Severity.ERROR,
                source=source,
            )


def check_expr(
    expr: Expr,
    extensions: ExtensionRegistry | None = None,
    env: Mapping[str, Any] | Iterable[str] | None = None,
    allow_free_vars: bool = False,
    source: str = "<moa>",
) -> DiagnosticReport:
    """Statically validate one Moa expression tree."""
    return MoaChecker(extensions, env, allow_free_vars).check(expr, source=source)
