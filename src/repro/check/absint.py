"""The one abstract interpreter under milcheck, flowcheck and costcheck.

MIL is Monet's typed BAT algebra; this module models its semantics once.
:class:`Interpreter` walks a procedure body a single time and gives every
expression one point in the product lattice (:class:`Value`)

    **type × (type × interval × rate) × (rows / degree / sorted_tail /
    keyed_head × interval)**

— the type milcheck checks, the value facts flowcheck proves contracts
with (:class:`FlowVal`) and the work facts costcheck estimates from
(:class:`CostVal`). The walk owns the statements (``IF`` branches from one
state, ``WHILE`` bodies, ``PARALLEL`` fan-outs, a nested ``PROC`` as a run
of its own), expression dispatch, one BAT-method table
(:data:`BAT_METHODS`: arity, argument kinds and every component's result
per method) and one bulk-operator table (:data:`BULK_OPERATORS`).

Each component has its own variable model and call lookup, because its
pass's findings are defined by them:

=========  ===============================  ================================
component  variables                        calls resolve to
=========  ===============================  ================================
type       lexical block scopes; a store    the procedures, variables,
           overwrites in place, so after    declared signatures, commands
           an ``IF`` the textually last     (file-level code: no procedure)
           store's type holds
flow       one flat environment, copied     the procedures, variables, bulk
           per ``IF`` branch and ``WHILE``  operators, declared signatures
           body and joined after
cost       one flat environment, copied     bulk operators, the environment's
           per ``IF`` branch and joined;    procedures, declared signatures
           a ``WHILE`` body walks in place
=========  ===============================  ================================

``WHILE`` is one pass over its body, not a fixpoint. flowcheck reads only
the BAT columns of its type, so the one type rule per operator serves both
type components.

What the walk observes it records as *facts*, in evaluation order (a read
of a possibly unassigned variable, a call and what it resolved to, a BAT
method call with its receiver, a store, a ``WHILE``, a fan-out ...). The
three passes are their diagnostic rules over one run's facts; the run of a
definition is memoised on the :class:`~repro.check.environment.Environment`,
so ``define_proc`` interprets each definition once, not once per pass.

:class:`MoaInterpreter` is the same idea for Moa expression trees: one walk
gives each node a value interval, a cardinality and a cost, for flowcheck's
evidence contract and costcheck's plan lints and estimate.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, replace
import math
import re
from typing import Any, Callable, Mapping, NamedTuple

from repro.check.diagnostics import DiagnosticReport
from repro.check.effects import APPEND_METHODS
from repro.check.environment import MilPass
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
    Var as MoaVar,
)
from repro.monet.atoms import ATOMS
from repro.monet.mil import (
    Assign,
    BinOp,
    Call,
    ExprStmt,
    If,
    Literal,
    MethodCall,
    Name,
    Parallel,
    ProcDef,
    Return,
    UnaryOp,
    VarDecl,
    While,
    walk,
)

__all__ = [
    "BAT_METHODS",
    "BULK_OPERATORS",
    "BatT",
    "CostVal",
    "FlowVal",
    "Interpreter",
    "Interval",
    "MoaInterpreter",
    "Value",
    "interpret",
    "named_type",
]

#: The fusion-layer contract every feature stream must satisfy (§5).
FEATURE_RANGE = (0.0, 1.0)
FEATURE_RATE = 10.0

#: Assumed cardinality of an unbounded BAT input (one 100 s clip at 10 Hz).
DEFAULT_CARD = 1000.0

#: Kept fraction of a selection when the interval facts cannot refine it.
DEFAULT_SELECTIVITY = 0.5

#: Floor for refined selectivities (a selection rarely keeps nothing).
MIN_SELECTIVITY = 0.01

#: Assumed trip count of a WHILE loop (bodies cost ``trips x`` their work).
LOOP_TRIPS = 8.0

#: Fixed cost of shipping one PARALLEL branch to a server (Fig. 4 fan-out).
BRANCH_OVERHEAD = 50.0

#: Rows seeded for a fresh ``new()`` BAT (Fig. 4 collects one per server).
FRESH_ROWS = 8.0

_EPS = 1e-9

_COMPARISONS = ("AND", "OR", "=", "!=", "<", ">", "<=", ">=")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


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


def named_type(type_name: str | None) -> MilType:
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


def column_value(column: str) -> str:
    """Column type a void column materializes to when it becomes a value."""
    return "oid" if column == "void" else column


def _binop_type(op: str, left: MilType, right: MilType) -> MilType:
    if left == "str" or right == "str":
        return "str"
    if "dbl" in (left, right) or "flt" in (left, right):
        return "dbl"
    if left == "int" and right == "int":
        return "dbl" if op == "/" else "int"
    return "any"


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed numeric interval; ``lo > hi`` encodes the empty interval."""

    lo: float = -math.inf
    hi: float = math.inf

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def known(self) -> bool:
        """Both bounds finite and non-empty — safe to compare to contracts."""
        return (
            not self.is_empty
            and math.isfinite(self.lo)
            and math.isfinite(self.hi)
        )

    def hull(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, lo: float, hi: float) -> bool:
        return self.is_empty or (self.lo >= lo - _EPS and self.hi <= hi + _EPS)

    def escapes(self, lo: float, hi: float) -> bool:
        """Provably holds a value outside ``[lo, hi]``."""
        return self.known and not self.within(lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "[]"
        return f"[{self.lo:g}, {self.hi:g}]"


TOP = Interval()
EMPTY = Interval(math.inf, -math.inf)
UNIT = Interval(0.0, 1.0)
COUNTS = Interval(0.0, math.inf)


def point(value: float) -> Interval:
    return Interval(float(value), float(value))


_ARITH: dict[str, Callable[[float, float], float]] = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def arith(op: str, a: Interval, b: Interval) -> Interval:
    """Interval arithmetic for ``+ - * /``; anything uncertain widens to TOP."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if not (a.known and b.known):
        return TOP
    if op == "/" and b.lo <= 0.0 <= b.hi:
        return TOP  # possible division by zero; no finite bound
    fn = _ARITH.get(op)
    if fn is None:
        return TOP
    combos = [fn(a.lo, b.lo), fn(a.lo, b.hi), fn(a.hi, b.lo), fn(a.hi, b.hi)]
    if any(math.isnan(c) for c in combos):
        return TOP
    return Interval(min(combos), max(combos))


def narrow(interval: Interval, op: str, bound: Interval) -> Interval:
    """Narrow ``interval`` through a selection predicate ``value op bound``."""
    if not bound.known:
        return interval
    if op in (">=", ">"):
        return Interval(max(interval.lo, bound.lo), interval.hi)
    if op in ("<=", "<"):
        return Interval(interval.lo, min(interval.hi, bound.hi))
    if op == "=":
        return bound
    return interval


def _narrowed(interval: Interval, bounds: list[Interval]) -> Interval:
    """``interval`` through ``select(lo, hi)`` or ``select(value)``."""
    if len(bounds) == 2:
        return narrow(narrow(interval, ">=", bounds[0]), "<=", bounds[1])
    if len(bounds) == 1:
        return narrow(interval, "=", bounds[0])
    return interval


def _kept(interval: Interval, lo: float, hi: float) -> float:
    """Fraction of a known, non-point ``interval`` inside ``[lo, hi]``."""
    kept = (min(interval.hi, hi) - max(interval.lo, lo)) / (interval.hi - interval.lo)
    return min(max(kept, MIN_SELECTIVITY), 1.0)


def _range_selectivity(interval: Interval, lo: Interval, hi: Interval) -> float:
    """Kept fraction of ``select(lo, hi)`` given the value interval."""
    if not (interval.known and lo.known and hi.known) or interval.hi <= interval.lo:
        return DEFAULT_SELECTIVITY
    return _kept(interval, lo.lo, hi.hi)


def _cmp_selectivity(interval: Interval, op: str, bound: Interval) -> float:
    """Kept fraction of ``mselect(op, bound)`` given the value interval."""
    if not (interval.known and bound.known) or interval.hi <= interval.lo:
        return DEFAULT_SELECTIVITY
    if op in (">", ">="):
        return _kept(interval, bound.lo, math.inf)
    if op in ("<", "<="):
        return _kept(interval, -math.inf, bound.hi)
    return MIN_SELECTIVITY * 5 if op == "=" else DEFAULT_SELECTIVITY


# ---------------------------------------------------------------------------
# the product lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowVal:
    """flowcheck's component: a type (the pass reads its BAT columns), the
    value interval and the sampling rate in Hz."""

    type: MilType = "any"
    interval: Interval = TOP
    rate: float | None = None

    @property
    def is_bat(self) -> bool:
        return isinstance(self.type, BatT)

    def join(self, other: "FlowVal") -> "FlowVal":
        return FlowVal(
            self.type if self.type == other.type else "any",
            self.interval.hull(other.interval),
            self.rate if self.rate == other.rate else None,
        )


@dataclass(frozen=True)
class CostVal:
    """costcheck's component: whether the value is a BAT, its estimated
    ``rows``, whether they are linear in an unbounded input (``degree`` 1)
    or bounded (0), the access facts after ``.sort`` and on dense (void)
    heads, and the value interval selectivities are estimated from."""

    bat: bool = False
    rows: float = 1.0
    degree: int = 0
    sorted_tail: bool = False
    keyed_head: bool = False
    interval: Interval = TOP

    def join(self, other: "CostVal") -> "CostVal":
        if self == other:
            return self
        return CostVal(
            self.bat or other.bat,
            max(self.rows, other.rows),
            max(self.degree, other.degree),
            self.sorted_tail and other.sorted_tail,
            self.keyed_head and other.keyed_head,
            self.interval.hull(other.interval),
        )


class Value(NamedTuple):
    """One lattice point per expression: milcheck's ``type``, flowcheck's
    ``flow`` and costcheck's ``cost`` component."""

    type: MilType
    flow: FlowVal
    cost: CostVal


ANY = Value("any", FlowVal(), CostVal())


def _scalar(type_name: str, interval: Interval = TOP) -> Value:
    return Value(type_name, FlowVal(type_name, interval), CostVal(interval=interval))


def seed(type_name: str | None) -> Value:
    """A parameter's value: ``BAT[void,*]`` parameters are feature streams
    by the fusion contract."""
    inferred = named_type(type_name)
    if not isinstance(inferred, BatT):
        return Value(inferred, FlowVal(inferred), CostVal())
    series = inferred.head == "void"
    feature = Interval(*FEATURE_RANGE) if series and inferred.tail == "dbl" else TOP
    return Value(
        inferred,
        FlowVal(inferred, feature, FEATURE_RATE) if series else FlowVal(inferred),
        CostVal(bat=True, rows=DEFAULT_CARD, degree=1, keyed_head=series, interval=feature),
    )


def _declared_cost(type_name: str | None, args: list[CostVal]) -> CostVal:
    """What a procedure or command call returns, from its declared type."""
    inferred = named_type(type_name)
    if not isinstance(inferred, BatT):
        return CostVal()
    bats = [v for v in args if v.bat]
    return CostVal(
        True,
        max((v.rows for v in bats), default=DEFAULT_CARD),
        max((v.degree for v in bats), default=1),
        keyed_head=inferred.head == "void",
    )


def _arg(args: list[Any], index: int, default: Any) -> Any:
    return args[index] if len(args) > index else default


# ---------------------------------------------------------------------------
# the BAT-method table
# ---------------------------------------------------------------------------

#: ``(receiver type, argument types) -> result type``, for both type components.
TypeRule = Callable[[BatT, list[MilType]], MilType]
#: ``(receiver, arguments) -> (interval, rate)`` of the flow component.
FlowRule = Callable[[FlowVal, list[FlowVal]], tuple[Interval, float | None]]
#: ``(receiver, arguments) -> (result, work units)``; work counts rows read.
CostRule = Callable[[CostVal, list[CostVal]], tuple[CostVal, float]]


class Method(NamedTuple):
    """One row of :data:`BAT_METHODS`.

    ``kinds`` are the expected argument types, matched against the *last*
    ``n`` of them for a call with ``n`` arguments: ``"head"``/``"tail"``
    resolve against the receiver, ``"BAT"`` is any BAT, else an atom name.
    """

    min_args: int
    max_args: int
    kinds: tuple[str, ...]
    type: TypeRule
    flow: FlowRule
    cost: CostRule


def _same(b: BatT, args: list[MilType]) -> MilType:
    return b


def _tail(b: BatT, args: list[MilType]) -> MilType:
    return column_value(b.tail) if b.tail != "?" else "any"


def _atom(name: str) -> TypeRule:
    return lambda b, args: name


def _columns(head: str, tail: str) -> TypeRule:
    """A BAT over the receiver's columns (as values) or the given atoms."""

    def rule(b: BatT, args: list[MilType]) -> MilType:
        columns = {"head": column_value(b.head), "tail": column_value(b.tail)}
        return BatT(columns.get(head, head), columns.get(tail, tail))

    return rule


def _joined(b: BatT, args: list[MilType]) -> MilType:
    other = _arg(args, 0, "any")
    return BatT(column_value(b.head), column_value(other.tail) if isinstance(other, BatT) else "?")


def _keep(r: FlowVal, args: list[FlowVal]) -> tuple[Interval, float | None]:
    return r.interval, r.rate


def _values(r: FlowVal, args: list[FlowVal]) -> tuple[Interval, float | None]:
    return r.interval, None


def _fixed(interval: Interval) -> FlowRule:
    return lambda r, args: (interval, None)


def _appended(r: FlowVal, args: list[FlowVal]) -> tuple[Interval, float | None]:
    return r.interval.hull((args[-1] if args else FlowVal()).interval), r.rate


def _join_flow(r: FlowVal, args: list[FlowVal]) -> tuple[Interval, float | None]:
    other = _arg(args, 0, FlowVal())
    return (other.interval if other.is_bat else TOP), None


def _append(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
    return r, 1.0  # the receiver grows in place (see Interpreter._method)


def _scan(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
    return r, r.rows


def _scan_value(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
    return CostVal(interval=r.interval), r.rows


def _reshaped(keyed: bool) -> CostRule:
    return lambda r, args: (CostVal(True, r.rows, r.degree, keyed_head=keyed), r.rows)


def _header(result: CostVal) -> CostRule:
    """A method answered from the BAT's header: one unit of work."""
    return lambda r, args: (result, 1.0)


def _select_cost(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
    bounds = [v.interval for v in args]
    if len(bounds) == 2:
        kept = _range_selectivity(r.interval, *bounds)
    else:
        kept = MIN_SELECTIVITY * 5 if len(bounds) == 1 else DEFAULT_SELECTIVITY
    selected = CostVal(
        True,
        max(r.rows * kept, 1.0),
        r.degree,
        r.sorted_tail,
        r.keyed_head,
        _narrowed(r.interval, bounds),
    )
    return selected, r.rows


def _slice_cost(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
    lo, hi = _arg(args, 0, CostVal()).interval, _arg(args, 1, CostVal()).interval
    if lo.known and hi.known:
        rows = max(min(hi.hi - lo.lo, r.rows), 1.0)
    else:
        rows = max(r.rows * 0.1, 1.0)
    return replace(r, rows=rows, degree=0), rows


def _join_cost(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
    other = _arg(args, 0, CostVal())
    if other.bat and not other.keyed_head:
        work = r.rows * other.rows  # nested loop: every probe scans
    else:
        work = r.rows + (other.rows if other.bat else 0.0)
    joined = CostVal(
        True,
        r.rows,
        max(r.degree, other.degree),
        keyed_head=r.keyed_head,
        interval=other.interval,
    )
    return joined, work


def _keyed_set(union: bool) -> CostRule:
    def rule(r: CostVal, args: list[CostVal]) -> tuple[CostVal, float]:
        other = _arg(args, 0, CostVal())
        other_rows = other.rows if other.bat else 0.0
        result = CostVal(
            True,
            r.rows + other_rows if union else r.rows,
            max(r.degree, other.degree),
            keyed_head=r.keyed_head,
            interval=r.interval.hull(other.interval) if union else r.interval,
        )
        return result, r.rows + other_rows

    return rule


BAT_METHODS: dict[str, Method] = {
    "insert": Method(1, 2, ("head", "tail"), _same, _appended, _append),
    "insert_bulk": Method(2, 2, (), _same, _appended, _append),
    "delete": Method(1, 1, ("head",), _same, _keep, _scan),
    "replace": Method(2, 2, ("head", "tail"), _same, _keep, _scan),
    "find": Method(1, 1, ("head",), _tail, _values, _scan_value),
    "exist": Method(1, 1, ("head",), _atom("bit"), _fixed(UNIT), _scan_value),
    "fetch": Method(
        1, 1, ("int",), _atom("any"), _values,
        lambda r, args: (CostVal(interval=r.interval), 1.0 if r.keyed_head else r.rows),
    ),
    "reverse": Method(0, 0, (), _columns("tail", "head"), _fixed(TOP), _reshaped(False)),
    "mirror": Method(0, 0, (), _columns("head", "head"), _fixed(TOP), _reshaped(False)),
    "mark": Method(0, 1, (), _columns("head", "oid"), _fixed(TOP), _reshaped(True)),
    "copy": Method(0, 1, (), _same, _keep, lambda r, args: (replace(r, keyed_head=False), r.rows)),
    "slice": Method(2, 2, ("int", "int"), _same, _values, _slice_cost),
    "unique": Method(0, 0, (), _same, _values, _scan),
    "sort": Method(
        0, 1, (), _same, _values,
        lambda r, args: (
            replace(r, sorted_tail=True, keyed_head=False),
            r.rows * max(math.log2(r.rows + 2.0), 1.0),
        ),
    ),
    "select": Method(
        1, 2, ("tail", "tail"), lambda b, args: BatT(column_value(b.head), b.tail),
        lambda r, args: (_narrowed(r.interval, [v.interval for v in args]), None),
        _select_cost,
    ),
    "filter_tail": Method(1, 1, (), _same, _values, _scan),
    "join": Method(1, 1, ("BAT",), _joined, _join_flow, _join_cost),
    "semijoin": Method(1, 1, ("BAT",), _same, _values, _keyed_set(union=False)),
    "kdiff": Method(1, 1, ("BAT",), _same, _values, _keyed_set(union=False)),
    "kunion": Method(
        1, 1, ("BAT",), _same,
        lambda r, args: (r.interval.hull(_arg(args, 0, FlowVal()).interval), None),
        _keyed_set(union=True),
    ),
    "max": Method(0, 0, (), _tail, _values, _scan_value),
    "min": Method(0, 0, (), _tail, _values, _scan_value),
    "sum": Method(0, 0, (), _tail, _fixed(TOP), lambda r, args: (CostVal(), r.rows)),
    "avg": Method(0, 0, (), _atom("dbl"), _values, _scan_value),
    "count": Method(0, 0, (), _atom("int"), _fixed(COUNTS), _header(CostVal(interval=COUNTS))),
    "histogram": Method(0, 0, (), _columns("tail", "int"), _fixed(COUNTS), _reshaped(False)),
    "heads": Method(0, 0, (), _atom("any"), _fixed(TOP), _header(CostVal())),
    "tails": Method(0, 0, (), _atom("any"), _fixed(TOP), _header(CostVal())),
    "tail_array": Method(0, 0, (), _atom("any"), _fixed(TOP), _header(CostVal())),
    "head_array": Method(0, 0, (), _atom("any"), _fixed(TOP), _header(CostVal())),
    "name": Method(0, 0, (), _atom("str"), _fixed(TOP), _header(CostVal())),
    "head_type": Method(0, 0, (), _atom("str"), _fixed(TOP), _header(CostVal())),
    "tail_type": Method(0, 0, (), _atom("str"), _fixed(TOP), _header(CostVal())),
}


# ---------------------------------------------------------------------------
# the bulk-operator table (the Moa rewriting's physical operators)
# ---------------------------------------------------------------------------


#: ``(call node, arguments) -> (flow result, cost result, work units)``.
Bulk = Callable[[Call, list[Value]], tuple[FlowVal, CostVal, float]]


def _literal_str(node: Call, index: int) -> str | None:
    arg = _arg(node.args, index, None)
    if isinstance(arg, Literal) and isinstance(arg.value, str):
        return arg.value
    return None


def _mmap(node: Call, args: list[Value]) -> tuple[FlowVal, CostVal, float]:
    source, operand, op = _arg(args, 0, ANY), _arg(args, 2, ANY), _literal_str(node, 1)
    flow, cost = source.flow, source.cost

    def mapped(values: Interval, by: Interval) -> Interval:
        return arith(op, values, by) if op else TOP

    return (
        FlowVal(
            BatT(flow.type.head if flow.is_bat else "?", "dbl"),
            mapped(flow.interval, operand.flow.interval),
            flow.rate,
        ),
        CostVal(
            True,
            cost.rows,
            cost.degree,
            keyed_head=cost.keyed_head,
            interval=mapped(cost.interval, operand.cost.interval),
        ),
        1.0 + cost.rows,
    )


def _mselect(node: Call, args: list[Value]) -> tuple[FlowVal, CostVal, float]:
    source, bound, op = _arg(args, 0, ANY), _arg(args, 2, ANY), _literal_str(node, 1)
    flow, cost = source.flow, source.cost
    kept = _cmp_selectivity(cost.interval, op, bound.cost.interval) if op else DEFAULT_SELECTIVITY
    return (
        FlowVal(
            BatT(column_value(flow.type.head), flow.type.tail) if flow.is_bat else BatT(),
            narrow(flow.interval, op, bound.flow.interval) if op else flow.interval,
        ),
        CostVal(
            True,
            max(cost.rows * kept, 1.0),
            cost.degree,
            cost.sorted_tail,
            cost.keyed_head,
            narrow(cost.interval, op, bound.cost.interval) if op else TOP,
        ),
        1.0 + cost.rows,
    )


def _maggr(node: Call, args: list[Value]) -> tuple[FlowVal, CostVal, float]:
    source, kind = _arg(args, 0, ANY), _literal_str(node, 1)
    if kind in ("max", "min", "avg"):
        flow = FlowVal("dbl", source.flow.interval)
    else:
        flow = FlowVal("int", COUNTS) if kind == "count" else FlowVal("dbl")
    cost = CostVal(interval=COUNTS if kind == "count" else source.cost.interval)
    return flow, cost, 1.0 + source.cost.rows


def _msetop(node: Call, args: list[Value]) -> tuple[FlowVal, CostVal, float]:
    left, right = _arg(args, 1, ANY), _arg(args, 2, ANY)
    rows = left.cost.rows + right.cost.rows
    return (
        FlowVal(
            left.flow.type if left.flow.is_bat else BatT(),
            left.flow.interval.hull(right.flow.interval),
            left.flow.rate if left.flow.rate == right.flow.rate else None,
        ),
        CostVal(
            True,
            rows,
            max(left.cost.degree, right.cost.degree),
            interval=left.cost.interval.hull(right.cost.interval),
        ),
        1.0 + rows,
    )


BULK_OPERATORS: dict[str, Bulk] = {
    "mmap": _mmap,
    "mselect": _mselect,
    "maggr": _maggr,
    "msetop": _msetop,
}


# ---------------------------------------------------------------------------
# facts: what a run observed, in evaluation order
# ---------------------------------------------------------------------------


class Read(NamedTuple):  # a flow variable read while not definitely assigned
    ident: str
    line: int | None
    assigned: str  # "no" or "maybe"


class Undefined(NamedTuple):  # a name no variable, command or PROC resolves
    ident: str
    line: int | None
    candidates: frozenset[str]


class Stored(NamedTuple):
    """A store to ``ident``: ``binding`` is ``declare`` (a ``VAR``),
    ``redeclare`` (a ``VAR`` again in the same scope), ``assign`` or
    ``undeclared`` (an assignment no ``VAR`` in scope declared); ``node``
    is the stored expression (``None`` for a bare ``VAR``)."""

    ident: str
    node: Any
    value: Value
    line: int | None
    binding: str


class DeadStore(NamedTuple):  # a store overwritten before any read
    ident: str
    store_line: int | None
    line: int | None


class Resolved(NamedTuple):
    """A call: the type component's ``kind`` — ``new``, ``proc``, ``var``,
    ``command`` or ``unknown`` — with its ``target`` (the ``ProcDef`` or
    ``CommandSignature``); ``checked`` is the signature the flow lookup
    reached (``None`` when a PROC, variable or bulk operator came first)."""

    node: Call
    kind: str
    target: Any
    args: list[Value]
    checked: Any


class Invoked(NamedTuple):  # a method call on a BAT of some component
    node: MethodCall
    receiver: Value
    args: list[Value]
    row: Method | None  # None: no such method


class Returned(NamedTuple):
    node: Return
    value: Value


class Unreachable(NamedTuple):  # the first statement after a RETURN
    line: int | None


class Loop(NamedTuple):  # a WHILE, before its body
    node: While


class Fanout(NamedTuple):  # a PARALLEL block and the work of each branch
    node: Parallel
    costs: list[float]


class Nested(NamedTuple):  # a PROC defined in the body: its own run
    run: "Interpreter"


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Local:
    """A name in the type component's scopes."""

    type: MilType
    line: int | None
    used: bool = False
    param: bool = False
    #: The initialiser cannot have a side effect (an unused VAR is dead).
    effect_free: bool = False


@dataclass(eq=False)
class Slot:
    """A name in the flow component's environment."""

    value: FlowVal
    #: "yes" (assigned on every path), "maybe", or "no".
    assigned: str = "yes"
    #: Line of the latest store no read has seen yet.
    pending: int | None = None

    def copy(self) -> "Slot":
        return Slot(self.value, self.assigned, self.pending)

    def join(self, other: "Slot") -> "Slot":
        return Slot(
            self.value.join(other.value),
            self.assigned if self.assigned == other.assigned else "maybe",
            self.pending if self.pending == other.pending else None,
        )


def _effect_free(node: Any) -> bool:
    return not any(isinstance(n, (Call, MethodCall)) for n in walk(node))


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------


class Interpreter:
    """One abstract run over a procedure body (or file-level statements).

    ``procs`` are the procedures calls resolve to. After :meth:`run_proc` /
    :meth:`run_toplevel` the instance *is* the run:

    * ``facts`` — what the walk observed, in evaluation order;
    * ``cost`` — estimated work units of one execution;
    * ``returns`` — every path of the body ``RETURN``\\ s;
    * ``locals`` — the body scope's variables (parameters included);
    * ``decls`` — ``(ident, line, is_bat)`` of every ``VAR``, any block;
    * ``reads`` — every name the flow component read.
    """

    def __init__(self, env: Any, procs: Mapping[str, ProcDef]):
        self.env = env
        self.procs = procs
        #: The procedures the type component resolves calls to.
        self.mil_procs = procs
        self.definition: ProcDef | None = None
        self.facts: list[Any] = []
        self.frames: list[float] = [0.0]
        self.returns = False
        self.scope: ChainMap[str, Local] = ChainMap(
            {g: Local("any", 0, used=True) for g in env.globals_names}
        )
        self.flow_env: dict[str, Slot] = {}
        self.cost_env: dict[str, CostVal] = {}
        self.locals: dict[str, Local] = {}
        self.decls: list[tuple[str, int | None, bool]] = []
        self.reads: set[str] = set()

    @property
    def cost(self) -> float:
        return self.frames[0]

    def run_proc(self, definition: ProcDef) -> "Interpreter":
        self.definition = definition
        self.scope = self.scope.new_child()
        for param in definition.params:
            value = seed(param.type_name)
            self.scope[param.ident] = Local(value.type, definition.line, param=True)
            self.flow_env[param.ident] = Slot(value.flow)
            self.cost_env[param.ident] = value.cost
        self.returns = self._block(definition.body, False, False)
        self.locals = self.scope.maps[0]
        return self

    def run_toplevel(self, statements: list[Any]) -> "Interpreter":
        """File-level statements: one block each in the global scope; the
        type component resolves their calls to commands only."""
        self.mil_procs = {}
        for statement in statements:
            self._block([statement], False, False)
        return self

    # -- statements ------------------------------------------------------
    def _block(
        self,
        statements: list[Any],
        loop: bool,
        parallel: bool,
        branch_costs: list[float] | None = None,
    ) -> bool:
        """Walk a statement list; True when it RETURNs on every path."""
        terminated = ever_terminated = False
        for statement in statements:
            if terminated:
                self.facts.append(Unreachable(getattr(statement, "line", None)))
                ever_terminated = True
                terminated = False  # reported once per block
            if branch_costs is not None:
                self.frames.append(0.0)
            if self._statement(statement, loop, parallel):
                terminated = True
            if branch_costs is not None:
                branch_costs.append(self.frames.pop())
        return terminated or ever_terminated

    def _statement(self, statement: Any, loop: bool, parallel: bool) -> bool:
        quiet = loop or parallel  # no store is dead in a loop or a fan-out
        match statement:
            case ProcDef():
                nested = Interpreter(self.env, self.procs)
                nested.mil_procs = self.mil_procs
                self.facts.append(Nested(nested.run_proc(statement)))
            case VarDecl(ident=ident, value=value, line=line):
                val = ANY if value is None else self._eval(value)
                binding = "redeclare" if ident in self.scope.maps[0] else "declare"
                self.scope[ident] = Local(val.type, line, effect_free=_effect_free(value))
                self.flow_env[ident] = Slot(
                    val.flow,
                    "no" if value is None else "yes",
                    None if value is None or quiet else line,
                )
                self.cost_env[ident] = val.cost
                self.decls.append((ident, line, val.flow.is_bat))
                self.facts.append(Stored(ident, value, val, line, binding))
            case Assign(ident=ident, value=value, line=line):
                val = self._eval(value)
                local = self.scope.get(ident)
                if local is not None:
                    local.type = val.type
                slot = self.flow_env.get(ident)
                if slot is None:  # a global or undeclared name: tracked from here
                    self.flow_env[ident] = Slot(val.flow)
                else:
                    if slot.pending is not None and not quiet:
                        self.facts.append(
                            DeadStore(ident, slot.pending, line)
                        )
                    slot.value, slot.assigned = val.flow, "yes"
                    slot.pending = None if quiet else line
                self.cost_env[ident] = val.cost
                binding = "undeclared" if local is None else "assign"
                self.facts.append(Stored(ident, value, val, line, binding))
            case ExprStmt(expr=expr):
                self._eval(expr)
            case Return(expr=expr):
                if expr is not None:
                    self.facts.append(Returned(statement, self._eval(expr)))
                return True
            case If(cond=cond, then=then, orelse=orelse):
                self._eval(cond)
                scope, flow_env, cost_env = self.scope, self.flow_env, self.cost_env
                branches = []
                for body in (then, orelse):
                    self.scope = scope.new_child()
                    self.flow_env = {k: slot.copy() for k, slot in flow_env.items()}
                    self.cost_env = dict(cost_env)
                    self.frames.append(0.0)
                    done = self._block(body, loop, parallel)
                    branches.append((done, self.flow_env, self.cost_env, self.frames.pop()))
                self.scope, self.flow_env, self.cost_env = scope, flow_env, cost_env
                then_done, then_flow, then_cost, then_work = branches[0]
                else_done, else_flow, else_cost, else_work = branches[1]
                for ident in flow_env:
                    flow_env[ident] = then_flow[ident].join(else_flow[ident])
                for ident in cost_env:
                    cost_env[ident] = then_cost[ident].join(else_cost[ident])
                self.frames[-1] += max(then_work, else_work)
                return then_done and else_done and bool(orelse)
            case While(cond=cond, body=body):
                self._eval(cond)
                self.facts.append(Loop(statement))
                scope, flow_env = self.scope, self.flow_env
                self.scope = scope.new_child()
                self.flow_env = {k: slot.copy() for k, slot in flow_env.items()}
                self.frames.append(0.0)
                self._block(body, True, parallel)  # in the cost environment itself
                for ident in flow_env:
                    flow_env[ident] = self.flow_env[ident].join(flow_env[ident])
                self.scope, self.flow_env = scope, flow_env
                work = self.frames.pop()
                self.frames[-1] += work * LOOP_TRIPS
            case Parallel(body=body):
                scope, costs = self.scope, []
                self.scope = scope.new_child()
                self._block(body, loop, True, costs)
                self.scope = scope
                for slot in self.flow_env.values():  # branch order is undefined
                    slot.pending = None
                self.facts.append(Fanout(statement, costs))
                fan_out = max(costs, default=0.0) + BRANCH_OVERHEAD * len(costs)
                self.frames[-1] += min(fan_out, sum(costs)) if costs else 0.0
        return False

    # -- expressions -----------------------------------------------------
    def _type_of(self, ident: str, line: int | None) -> MilType:
        local = self.scope.get(ident)
        if local is not None:
            local.used = True
            return local.type
        if not (ident in self.env.commands or ident in self.mil_procs):
            names = frozenset(self.scope) | self.env.commands | set(self.mil_procs)
            self.facts.append(Undefined(ident, line, names))
        return "any"

    def _flow_of(self, ident: str, line: int | None) -> FlowVal:
        self.reads.add(ident)
        slot = self.flow_env.get(ident)
        if slot is None:
            return FlowVal()  # a global, a command, or an undefined name
        slot.pending = None
        if slot.assigned != "yes":
            self.facts.append(Read(ident, line, slot.assigned))
            slot.assigned = "yes"  # one finding per variable
        return slot.value

    def _eval(self, node: Any) -> Value:
        match node:
            case Literal(value=value):
                if isinstance(value, bool):
                    return _scalar("bit", point(1.0 if value else 0.0))
                if isinstance(value, int):
                    return _scalar("int", point(value))
                if isinstance(value, float):
                    return _scalar("dbl", point(value))
                return _scalar("str") if isinstance(value, str) else ANY
            case Name(ident=ident, line=line):
                return Value(
                    self._type_of(ident, line),
                    self._flow_of(ident, line),
                    self.cost_env.get(ident, CostVal()),
                )
            case Call():
                return self._call(node)
            case MethodCall():
                return self._method(node)
            case BinOp(op=op, left=left, right=right):
                a, b = self._eval(left), self._eval(right)
                if op in _COMPARISONS:
                    return _scalar("bit", UNIT)
                result = _binop_type(op, a.type, b.type)
                return Value(
                    result,
                    FlowVal(result, arith(op, a.flow.interval, b.flow.interval)),
                    CostVal(interval=arith(op, a.cost.interval, b.cost.interval)),
                )
            case UnaryOp(op=op, operand=operand):
                val = self._eval(operand)
                cost = CostVal(interval=arith("-", point(0.0), val.cost.interval))
                if op == "NOT":
                    return Value("bit", FlowVal("bit", UNIT), cost)
                negated = arith("-", point(0.0), val.flow.interval)
                return Value(val.type, FlowVal(val.flow.type, negated, val.flow.rate), cost)
        return ANY

    def _call(self, node: Call) -> Value:
        func = node.func
        if func == "new":
            names = [a.ident for a in node.args if isinstance(a, Name)]
            bat = BatT(*names) if len(names) == 2 else BatT()
            self.facts.append(Resolved(node, "new", None, [], None))
            self.frames[-1] += 1.0
            return Value(
                bat if len(node.args) == 2 else BatT(),
                FlowVal(bat, EMPTY),
                CostVal(True, FRESH_ROWS, keyed_head=names[:1] == ["void"], interval=EMPTY),
            )
        args = [self._eval(a) for a in node.args]
        signature = self.env.signatures.get(func)
        # type: the procedures, variables, then signatures and commands
        local = self.scope.get(func)
        if func in self.mil_procs:
            kind, target = "proc", self.mil_procs[func]
            result = named_type(target.return_type)
        elif local is not None:
            local.used = True
            kind, target, result = "var", None, "any"  # a variable holding a callable
        else:
            known = signature is not None or func in self.env.commands
            kind, target = ("command" if known else "unknown"), signature
            result = named_type(signature.returns) if signature is not None else "any"
        # flow: the procedures, variables, bulk operators, then signatures
        bulk = BULK_OPERATORS[func](node, args) if func in BULK_OPERATORS else None
        checked = None
        if func in self.procs:
            flow = FlowVal(named_type(self.procs[func].return_type))
        elif func in self.flow_env:
            flow = self._flow_of(func, node.line)
        elif bulk is not None:
            flow = bulk[0]
        elif signature is not None:
            checked, flow = signature, _signature_flow(signature, args)
        else:
            flow = FlowVal()
        # cost: the bulk operators, the environment's procedures, then signatures
        costs = [a.cost for a in args]
        if bulk is not None:
            _, cost, work = bulk
        else:
            work = 1.0 + sum(v.rows for v in costs if v.bat)
            if func in self.env.procedures:
                cost = _declared_cost(self.env.procedures[func].return_type, costs)
            elif signature is not None:
                cost = _declared_cost(signature.returns, costs)
                if signature.returns_range is not None:
                    cost = replace(cost, interval=Interval(*signature.returns_range))
            else:
                cost = CostVal()
        self.frames[-1] += work
        self.facts.append(Resolved(node, kind, target, args, checked))
        return Value(result, flow, cost)

    def _method(self, node: MethodCall) -> Value:
        receiver = self._eval(node.target)
        args = [self._eval(a) for a in node.args]
        row = BAT_METHODS.get(node.method)
        result, flow, cost, work = "any", FlowVal(), CostVal(), 1.0
        if row is not None:  # each component models only BAT receivers
            if isinstance(receiver.type, BatT):
                result = row.type(receiver.type, [a.type for a in args])
            if receiver.flow.is_bat:
                interval, rate = row.flow(receiver.flow, [a.flow for a in args])
                flow_type = row.type(receiver.flow.type, [a.flow.type for a in args])
                flow = FlowVal(flow_type, interval, rate)
            if receiver.cost.bat:
                cost, work = row.cost(receiver.cost, [a.cost for a in args])
        self.frames[-1] += work
        if isinstance(receiver.type, BatT) or receiver.flow.is_bat or receiver.cost.bat:
            self.facts.append(Invoked(node, receiver, args, row))
        if node.method in APPEND_METHODS and isinstance(node.target, Name):
            # appends mutate the receiver in place
            ident, grown = node.target.ident, receiver.cost
            if receiver.flow.is_bat and ident in self.flow_env:
                self.flow_env[ident].value = flow
            if grown.bat:
                inserted = (args[-1].cost if args else CostVal()).interval
                self.cost_env[ident] = replace(
                    grown,
                    rows=grown.rows + 1.0,
                    sorted_tail=False,
                    interval=grown.interval.hull(inserted),
                )
        return Value(result, flow, cost)


def _signature_flow(signature: Any, args: list[Value]) -> FlowVal:
    """A command's declared result: its type, range and the one input rate."""
    result = named_type(signature.returns)
    interval = TOP if signature.returns_range is None else Interval(*signature.returns_range)
    rates = {v.flow.rate for v in args if v.flow.rate is not None}
    rate = rates.pop() if isinstance(result, BatT) and len(rates) == 1 else None
    return FlowVal(result, interval, rate)


def interpret(
    env: Any,
    definition: ProcDef,
    procs: Mapping[str, ProcDef] | None = None,
) -> Interpreter:
    """The run of ``definition``, at most once per environment and procs.

    ``procs`` are the procedures calls resolve to — the environment's and
    the file's when the definition is checked as part of a file; by
    default the environment's, plus the definition itself unless it
    redefines one.
    """
    if procs is None:
        procs = dict(env.procedures)
        procs.setdefault(definition.name, definition)
    runs = env.once("absint", definition, dict)
    # the run holds ``procs``, so the definitions the key names stay alive
    key = frozenset((name, id(proc)) for name, proc in procs.items())
    if key not in runs:
        runs[key] = Interpreter(env, procs).run_proc(definition)
    return runs[key]


class InterpretedPass(MilPass):
    """A MIL pass whose findings are rules over the shared run.

    A subclass implements :meth:`findings` (unlabelled, for one run).
    """

    def findings(self, run: Interpreter) -> DiagnosticReport:
        raise NotImplementedError

    def _check_definition(
        self, definition: ProcDef, label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        return self.findings(interpret(self.env, definition, procs)).labelled(label)

    def _check_toplevel(
        self, statements: list[Any], label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        run = Interpreter(self.env, procs).run_toplevel(statements)
        return self.findings(run).labelled(label)


# ---------------------------------------------------------------------------
# Moa expression trees
# ---------------------------------------------------------------------------


class Evidence(NamedTuple):
    """An argument reaching a DBN/HMM ``Apply`` — an evidence boundary."""

    extension: str
    operator: str
    index: int
    interval: Interval


class NestedSelect(NamedTuple):
    """A selection directly over another selection."""


class WideJoin(NamedTuple):
    """A join of two unbounded inputs, with its estimated work."""

    work: float


#: Extensions whose ``Apply`` arguments are evidence streams.
EVIDENCE_EXTENSIONS = ("dbn", "hmm")

#: Free Moa variables matching this pattern are feature streams.
_FEATURE_VAR = re.compile(r"^f\d+$")


class MoaValue(NamedTuple):
    interval: Interval
    cost: float
    rows: float


class MoaInterpreter:
    """One walk over a Moa expression: value interval × rows × cost per node.

    Free ``Var``\\ s named like feature streams (``f1``, ``f2``, ...) — or
    listed in ``ranges`` — seed the interval at the feature contract; every
    free input has :data:`DEFAULT_CARD` rows. Predicates, map bodies and
    join results are per-element work, free in the cost model and outside
    the plan lints, but they carry values (and evidence boundaries) all the
    same.
    """

    def __init__(self, ranges: Mapping[str, tuple[float, float]] | None = None):
        self.ranges = dict(ranges or {})
        self.facts: list[Any] = []
        self.cost = 0.0

    def run(self, expr: Expr) -> "MoaInterpreter":
        self.cost = self._walk(expr, {}, True).cost
        return self

    def _seed(self, name: str) -> Interval:
        if name in self.ranges:
            return Interval(*self.ranges[name])
        if _FEATURE_VAR.match(name):
            return Interval(*FEATURE_RANGE)
        return TOP

    def _walk(self, node: Expr, env: dict[str, Interval], plan: bool) -> MoaValue:
        """``plan`` is False below a predicate, map body or join result."""

        def sub(child: Expr, bound: dict[str, Interval] = env, at_plan: bool = plan) -> MoaValue:
            return self._walk(child, bound, at_plan)

        match node:
            case Const(value=value):
                if isinstance(value, (bool, int, float)):
                    return MoaValue(point(float(value)), 0.0, 1.0)
                return MoaValue(TOP, 0.0, 1.0)
            case MoaVar(name=name):
                return MoaValue(env.get(name, self._seed(name)), 0.0, DEFAULT_CARD)
            case Field(source=inner):
                return sub(inner)._replace(interval=TOP)
            case Nest(source=inner) | Unnest(source=inner) | The(source=inner):
                return sub(inner)
            case MakeTuple(fields=fields):
                cost = sum(sub(value).cost for _, value in fields)
                return MoaValue(TOP, cost, 1.0)
            case Cmp(left=left, right=right) | BoolOp(left=left, right=right):
                return MoaValue(UNIT, sub(left).cost + sub(right).cost, 1.0)
            case Not(operand=operand):
                return sub(operand)._replace(interval=UNIT)
            case Arith(op=op, left=left, right=right):
                a, b = sub(left), sub(right)
                return MoaValue(arith(op, a.interval, b.interval), a.cost + b.cost, 1.0)
            case Map(var=var, body=body, source=inner):
                source = sub(inner)
                element = sub(body, {**env, var: source.interval}, False)
                return MoaValue(element.interval, source.cost + source.rows, source.rows)
            case Select(var=var, pred=pred, source=inner):
                if plan and isinstance(inner, Select):
                    self.facts.append(NestedSelect())
                source = sub(inner)
                sub(pred, {**env, var: source.interval}, False)
                rows = max(source.rows * DEFAULT_SELECTIVITY, 1.0)
                return MoaValue(source.interval, source.cost + source.rows, rows)
            case Join(left_var=lv, right_var=rv, pred=pred, left=left, right=right, result=result):
                a, b = sub(left), sub(right)
                if plan and a.rows >= DEFAULT_CARD and b.rows >= DEFAULT_CARD:
                    self.facts.append(WideJoin(a.rows * b.rows))
                bound = {**env, lv: a.interval, rv: b.interval}
                sub(pred, bound, False)
                element = sub(result, bound, False)
                rows = a.rows * b.rows
                return MoaValue(element.interval, a.cost + b.cost + rows, rows)
            case Semijoin(left_var=lv, right_var=rv, pred=pred, left=left, right=right):
                a, b = sub(left), sub(right)
                sub(pred, {**env, lv: a.interval, rv: b.interval}, False)
                return MoaValue(a.interval, a.cost + b.cost + a.rows + b.rows, a.rows)
            case Aggregate(kind=kind, source=inner):
                source = sub(inner)
                if kind in ("max", "min", "avg"):
                    interval = source.interval
                else:
                    interval = COUNTS if kind == "count" else TOP
                return MoaValue(interval, source.cost + source.rows, 1.0)
            case SetOp(left=left, right=right):
                a, b = sub(left), sub(right)
                return MoaValue(
                    a.interval.hull(b.interval),
                    a.cost + b.cost + a.rows + b.rows,
                    a.rows + b.rows,
                )
            case Apply(extension=extension, operator=operator, args=args):
                values = [sub(arg) for arg in args]
                if extension in EVIDENCE_EXTENSIONS:
                    for index, value in enumerate(values):
                        self.facts.append(
                            Evidence(extension, operator, index, value.interval)
                        )
                cost = sum(v.cost + v.rows for v in values)
                rows = max((v.rows for v in values), default=0.0)
                return MoaValue(TOP, cost, max(rows, 1.0))
        return MoaValue(TOP, 0.0, 1.0)
