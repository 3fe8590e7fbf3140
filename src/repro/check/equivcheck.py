"""Moa→MIL translation validation over an abstract BAT algebra (``EQnnn``).

The paper's rewriting layer (§3, :class:`repro.moa.rewrite.MoaCompiler`)
turns a Moa expression into a MIL ``PROC`` of bulk commands. Nothing in the
structural passes proves the emitted plan computes the *same answer*
as the expression it replaced — milcheck would happily bless a plan whose
``mselect`` comparison operator was flipped. This pass closes that gap with
translation validation: both sides are symbolically executed over an
abstract BAT-algebra semantics and certified equivalent, per compilation,
instead of trusting the rewriter once and forever.

The abstract semantics models a BAT as a multiset of (head, tail)
associations with *symbolic* tails. Each operator becomes a term
constructor — ``Sel(op, value)``, ``MapOp(op, value)``, ``Agg(kind)``,
``Set(op)`` — over symbolic input leaves; a plan denotes a term tree.
Normalization quotients the terms by the laws that hold for multisets:
adjacent selections commute (``σ_a ∘ σ_b = σ_b ∘ σ_a``), so maximal
selection chains are sorted; numeric literals are canonicalized through
``float``. Structural equality of the normal forms is the proof.

The verdict is the diagnostic itself: ``MoaCompiler.compile`` records it
on ``MoaCompiler.diagnostics`` and, under ``check="error"``, refuses to
register a plan that fails validation.

Diagnostic codes:

=======  ========  =====================================================
code     severity  meaning
=======  ========  =====================================================
EQ001    info      certified equivalent: both sides reduce to one normal
                   form, which the message renders
EQ002    error     validation failed: the emitted MIL denotes a different
                   term than the Moa expression (raised at
                   ``MoaCompiler.compile`` under ``check="error"``)
EQ003    warning   unsupported construct on either side — not validated,
                   interpreter fallback required (advisory: never fails
                   ``--strict``)
=======  ========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.errors import MilSyntaxError
from repro.moa.algebra import (
    Aggregate,
    Arith,
    Cmp,
    Const,
    Expr,
    Map,
    Select,
    SetOp,
    Var,
)
from repro.monet.mil import (
    Call,
    Literal,
    Name,
    ProcDef,
    Return,
    VarDecl,
    parse,
)

__all__ = [
    "abstract_mil",
    "abstract_moa",
    "normalize",
    "render",
    "validate_translation",
]


# ---------------------------------------------------------------------------
# abstract BAT-algebra terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatTerm:
    """Base of the term algebra; every node denotes a multiset of
    (head, symbolic tail) associations."""


@dataclass(frozen=True)
class InputBat(BatTerm):
    """A symbolic input BAT, named after the plan parameter."""

    name: str


@dataclass(frozen=True)
class Sel(BatTerm):
    """``σ_{tail <op> value}`` — keeps associations, never reorders tails."""

    source: BatTerm
    op: str
    value: Any


@dataclass(frozen=True)
class MapOp(BatTerm):
    """``[op value]`` — elementwise arithmetic on every tail."""

    source: BatTerm
    op: str
    value: Any


@dataclass(frozen=True)
class Agg(BatTerm):
    """Tail-column aggregate (count/sum/min/max/avg) — a scalar term."""

    source: BatTerm
    kind: str


@dataclass(frozen=True)
class Set(BatTerm):
    """Head-based set combination (union/diff/intersect)."""

    op: str
    left: BatTerm
    right: BatTerm


class UnsupportedConstruct(Exception):
    """Either side stepped outside the abstract semantics (→ EQ003)."""

    def __init__(self, side: str, what: str):
        self.side = side
        self.what = what
        super().__init__(f"{side}: {what}")


# ---------------------------------------------------------------------------
# abstraction: Moa side
# ---------------------------------------------------------------------------


def abstract_moa(expr: Expr) -> BatTerm:
    """Denote a Moa expression in the abstract BAT algebra.

    Exactly the compilable subset of :class:`MoaCompiler` is supported;
    anything else raises :class:`UnsupportedConstruct` (→ EQ003, the plan
    falls back to logical-level evaluation).
    """
    match expr:
        case Var(name=name):
            return InputBat(name)
        case Select(
            var=var,
            pred=Cmp(op=op, left=Var(name=lv), right=Const(value=value)),
            source=source,
        ) if lv == var:
            return Sel(abstract_moa(source), op, _canonical_value(value))
        case Map(
            var=var,
            body=Arith(op=op, left=Var(name=lv), right=Const(value=value)),
            source=source,
        ) if lv == var:
            return MapOp(abstract_moa(source), op, _canonical_value(value))
        case Aggregate(kind=kind, source=source):
            return Agg(abstract_moa(source), kind)
        case SetOp(op=op, left=left, right=right):
            return Set(op, abstract_moa(left), abstract_moa(right))
        case _:
            raise UnsupportedConstruct(
                "moa", f"{type(expr).__name__} has no abstract denotation"
            )


# ---------------------------------------------------------------------------
# abstraction: MIL side (symbolic execution of the emitted PROC)
# ---------------------------------------------------------------------------

_BULK_COMMANDS = frozenset({"mselect", "mmap", "maggr", "msetop"})


def abstract_mil(
    mil_source: str,
    proc_name: str,
    input_names: Iterable[str] = (),
) -> BatTerm:
    """Symbolically execute an emitted plan PROC into a term.

    The environment starts with each parameter bound to an
    :class:`InputBat` leaf; ``VAR t := bulkcmd(...)`` steps extend it, and
    the ``RETURN`` value is the procedure's denotation. Any statement or
    expression outside the straight-line bulk-command shape raises
    :class:`UnsupportedConstruct`.
    """
    try:
        statements = parse(mil_source)
    except MilSyntaxError as exc:
        raise UnsupportedConstruct("mil", f"unparseable plan: {exc}") from exc
    definition = next(
        (
            s
            for s in statements
            if isinstance(s, ProcDef) and s.name == proc_name
        ),
        None,
    )
    if definition is None:
        raise UnsupportedConstruct("mil", f"no PROC {proc_name} in plan source")

    env: dict[str, BatTerm] = {
        p.ident: InputBat(p.ident) for p in definition.params
    }
    for name in input_names:
        env.setdefault(name, InputBat(name))

    def denote(node: Any) -> BatTerm:
        match node:
            case Name(ident=ident):
                if ident not in env:
                    raise UnsupportedConstruct(
                        "mil", f"unbound name {ident!r} in plan body"
                    )
                return env[ident]
            case Call(func="mselect", args=[src, op, value]):
                return Sel(
                    denote(src), _literal_str(op), _literal_value(value)
                )
            case Call(func="mmap", args=[src, op, value]):
                return MapOp(
                    denote(src), _literal_str(op), _literal_value(value)
                )
            case Call(func="maggr", args=[src, kind]):
                return Agg(denote(src), _literal_str(kind))
            case Call(func="msetop", args=[op, left, right]):
                return Set(_literal_str(op), denote(left), denote(right))
            case Call(func=func):
                raise UnsupportedConstruct(
                    "mil", f"call to {func!r} is outside the bulk algebra"
                )
            case _:
                raise UnsupportedConstruct(
                    "mil",
                    f"{type(node).__name__} expression has no abstract "
                    f"denotation",
                )

    result: BatTerm | None = None
    for statement in definition.body:
        match statement:
            case VarDecl(ident=ident, value=value) if value is not None:
                env[ident] = denote(value)
            case Return(expr=expr) if expr is not None:
                result = denote(expr)
                break
            case _:
                raise UnsupportedConstruct(
                    "mil",
                    f"{type(statement).__name__} statement breaks the "
                    f"straight-line plan shape",
                )
    if result is None:
        raise UnsupportedConstruct("mil", "plan PROC never returns a value")
    return result


def _literal_str(node: Any) -> str:
    if isinstance(node, Literal) and isinstance(node.value, str):
        return node.value
    raise UnsupportedConstruct("mil", "expected a string literal argument")


def _literal_value(node: Any) -> Any:
    if isinstance(node, Literal):
        return _canonical_value(node.value)
    raise UnsupportedConstruct("mil", "expected a literal argument")


def _canonical_value(value: Any) -> Any:
    """Quotient numeric literals: ``0.6`` and ``Const(0.6)`` must agree
    after a round-trip through MIL source text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value)


# ---------------------------------------------------------------------------
# normalization and validation
# ---------------------------------------------------------------------------


def normalize(term: BatTerm) -> BatTerm:
    """Normal form under the multiset laws.

    Adjacent selections commute (each keeps a subset of associations and
    never rewrites a tail), so a maximal ``Sel`` chain is sorted by
    ``(op, value)``. Nothing else commutes in general: ``MapOp`` rewrites
    the tails a later ``Sel`` inspects, ``Set`` is head-based, ``Agg``
    collapses to a scalar.
    """
    match term:
        case Sel():
            filters: list[tuple[str, Any]] = []
            node: BatTerm = term
            while isinstance(node, Sel):
                filters.append((node.op, node.value))
                node = node.source
            base = normalize(node)
            for op, value in sorted(
                filters, key=lambda f: (f[0], repr(f[1]))
            ):
                base = Sel(base, op, value)
            return base
        case MapOp(source=source, op=op, value=value):
            return MapOp(normalize(source), op, value)
        case Agg(source=source, kind=kind):
            return Agg(normalize(source), kind)
        case Set(op=op, left=left, right=right):
            return Set(op, normalize(left), normalize(right))
        case _:
            return term


def render(term: BatTerm) -> str:
    """Deterministic s-expression rendering (diagnostic messages)."""
    match term:
        case InputBat(name=name):
            return name
        case Sel(source=source, op=op, value=value):
            return f"(sel {op} {value!r} {render(source)})"
        case MapOp(source=source, op=op, value=value):
            return f"(map {op} {value!r} {render(source)})"
        case Agg(source=source, kind=kind):
            return f"(agg {kind} {render(source)})"
        case Set(op=op, left=left, right=right):
            return f"(set {op} {render(left)} {render(right)})"
        case _:
            return repr(term)


def validate_translation(
    expr: Expr,
    mil_source: str,
    proc_name: str,
    input_names: Iterable[str] = (),
    source: str = "<moa-plan>",
) -> DiagnosticReport:
    """Certify that an emitted MIL plan denotes its Moa expression.

    The report holds exactly one finding: EQ001 on success, EQ002 (error)
    on a real mismatch, EQ003 (advisory) when either side uses a construct
    the abstract semantics cannot model.
    """
    report = DiagnosticReport()
    try:
        moa_term = abstract_moa(expr)
        mil_term = abstract_mil(mil_source, proc_name, input_names)
    except UnsupportedConstruct as exc:
        report.add(
            "EQ003",
            f"plan {proc_name}: translation not validated — {exc.side} side "
            f"uses an unsupported construct ({exc.what}); interpreter "
            f"fallback required, no certificate issued",
            Severity.WARNING,
            source=source,
        )
        return report
    moa_normal = normalize(moa_term)
    mil_normal = normalize(mil_term)
    if moa_normal != mil_normal:
        report.add(
            "EQ002",
            f"plan {proc_name}: emitted MIL is NOT equivalent to its Moa "
            f"expression — moa ⇒ {render(moa_normal)} but mil ⇒ "
            f"{render(mil_normal)}",
            Severity.ERROR,
            source=source,
        )
        return report
    report.add(
        "EQ001",
        f"plan {proc_name}: certified equivalent to its Moa expression "
        f"(normal form {render(moa_normal)})",
        Severity.INFO,
        source=source,
    )
    return report
