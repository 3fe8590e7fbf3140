"""Cross-level dataflow analysis — abstract interpretation of query plans.

Where :mod:`repro.check.milcheck` verifies each statement in isolation,
``flowcheck`` interprets whole MIL procedures (and Moa expression trees)
abstractly: every value carries a point in the lattice

    **type × interval × rate**

* *type* — the :class:`repro.check.milcheck.BatT` / atom-name inference
  reused from the MIL checker;
* *interval* — a ``[lo, hi]`` over-approximation of the numeric values a
  scalar (or every tail value of a BAT) can take.  ``BAT[void,dbl]``
  procedure parameters are feature streams by the fusion-layer contract and
  seed at ``[0, 1]``; literals seed exact points; arithmetic, ``mmap``,
  ``mselect`` and the BAT aggregation methods have transfer functions.
* *rate* — sampling-rate metadata in Hz.  Feature-stream parameters seed at
  the paper's 10 Hz; bulk operators that keep one value per step preserve
  it, filtering operators drop it.

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
store textually follows.  It is also suppressed for BAT-typed stores whose
store and overwrite both sit inside one certified fusion region
(:mod:`repro.check.fusecheck`): the fused pipeline consumes the temporary
internally, so the "dead" store never materializes — flagging it would
push users to unfuse correct plans.  ``FLOW004`` only fires when both the declared and
the inferred BAT column types are fully known — unlike the permissive
widening of MIL006, it demands the exact atom at module boundaries.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.environment import MilPass
from repro.check.fusecheck import FuseChecker
from repro.check.milcheck import BatT, MilType, _head_as_value, _named_type
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
)
from repro.monet.module import CommandSignature

__all__ = [
    "Interval",
    "FlowChecker",
    "check_flow_source",
    "check_feature_set",
    "check_moa_flow",
    "FEATURE_RANGE",
    "FEATURE_RATE",
]

#: The fusion-layer contract every feature stream must satisfy (§5).
FEATURE_RANGE = (0.0, 1.0)
FEATURE_RATE = 10.0

_EPS = 1e-9

#: Extensions whose ``Apply`` arguments are evidence streams and therefore
#: must satisfy the feature contract.
_EVIDENCE_EXTENSIONS = ("dbn", "hmm")

#: Free Moa variables matching this pattern are feature streams.
_FEATURE_VAR = re.compile(r"^f\d+$")


# ---------------------------------------------------------------------------
# the interval half of the lattice
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


def _point(value: float) -> Interval:
    return Interval(float(value), float(value))


def _arith_interval(op: str, a: Interval, b: Interval) -> Interval:
    """Interval arithmetic for ``+ - * /``; anything uncertain widens to TOP."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if not (a.known and b.known):
        return TOP
    if op == "/" and b.lo <= 0.0 <= b.hi:
        return TOP  # possible division by zero; no finite bound
    ops = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "*": lambda x, y: x * y,
        "/": lambda x, y: x / y,
    }
    fn = ops.get(op)
    if fn is None:
        return TOP
    combos = [fn(a.lo, b.lo), fn(a.lo, b.hi), fn(a.hi, b.lo), fn(a.hi, b.hi)]
    if any(math.isnan(c) for c in combos):
        return TOP
    return Interval(min(combos), max(combos))


def _narrow(interval: Interval, op: str, bound: Interval) -> Interval:
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


# ---------------------------------------------------------------------------
# abstract values and variable state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FlowVal:
    """One lattice point: inferred type × value interval × sampling rate."""

    type: MilType = "any"
    interval: Interval = TOP
    rate: float | None = None


_ANY = _FlowVal()


@dataclass
class _VarState:
    val: _FlowVal
    #: "yes" (assigned on every path), "maybe", or "no".
    assigned: str = "yes"
    #: Line of the latest store that has not been read yet (FLOW002).
    pending_store: int | None = None

    def copy(self) -> "_VarState":
        return _VarState(self.val, self.assigned, self.pending_store)


@dataclass
class _DeclRecord:
    """Per-declaration bookkeeping for FLOW003 (flat, branch-insensitive)."""

    ident: str
    line: int | None
    is_bat: bool
    is_param: bool = False


def _merge_assigned(a: str, b: str) -> str:
    if a == b:
        return a
    return "maybe"


def _merge_val(a: _FlowVal, b: _FlowVal) -> _FlowVal:
    return _FlowVal(
        a.type if a.type == b.type else "any",
        a.interval.hull(b.interval),
        a.rate if a.rate == b.rate else None,
    )


def _merge_env(
    base: dict[str, _VarState], branches: list[dict[str, _VarState]]
) -> dict[str, _VarState]:
    """Join branch environments over the keys of ``base``."""
    merged: dict[str, _VarState] = {}
    for ident in base:
        states = [env[ident] for env in branches if ident in env]
        if not states:
            merged[ident] = base[ident].copy()
            continue
        out = states[0].copy()
        for state in states[1:]:
            out.val = _merge_val(out.val, state.val)
            out.assigned = _merge_assigned(out.assigned, state.assigned)
            if out.pending_store != state.pending_store:
                out.pending_store = None
        merged[ident] = out
    return merged


# ---------------------------------------------------------------------------
# MIL flow analysis
# ---------------------------------------------------------------------------


class FlowChecker(MilPass):
    """Abstract interpreter over MIL procedures and Moa expression trees."""

    # -- entry points ----------------------------------------------------
    def check_program(
        self, statements: list[Any], name: str = "<mil>"
    ) -> DiagnosticReport:
        report = DiagnosticReport()
        known = dict(self.env.procedures)
        known.update(
            {s.name: s for s in statements if isinstance(s, ProcDef)}
        )
        toplevel = [s for s in statements if not isinstance(s, ProcDef)]
        for statement in statements:
            if isinstance(statement, ProcDef):
                self._check_proc(statement, known, name, report)
        if toplevel:
            self._check_body(toplevel, [], known, name, report)
        return report

    def _check_definition(self, definition: ProcDef, label: str) -> DiagnosticReport:
        known = dict(self.env.procedures)
        known.setdefault(definition.name, definition)
        report = DiagnosticReport()
        self._check_proc(definition, known, label, report)
        return report

    # -- procedure walk --------------------------------------------------
    def _check_proc(
        self,
        definition: ProcDef,
        known: Mapping[str, ProcDef],
        source: str,
        report: DiagnosticReport,
    ) -> None:
        self._check_body(definition.body, definition.params, known, source, report)

    def _seed_param(self, type_name: str | None) -> _FlowVal:
        inferred = _named_type(type_name)
        if isinstance(inferred, BatT) and inferred.head == "void":
            # A [void,*] parameter is a time-series by the fusion contract.
            interval = Interval(*FEATURE_RANGE) if inferred.tail == "dbl" else TOP
            return _FlowVal(inferred, interval, FEATURE_RATE)
        return _FlowVal(inferred)

    def _check_body(
        self,
        body: list[Any],
        params: Sequence[Any],
        known: Mapping[str, ProcDef],
        source: str,
        report: DiagnosticReport,
    ) -> None:
        env: dict[str, _VarState] = {}
        decls: list[_DeclRecord] = []
        reads: set[str] = set()
        for param in params:
            env[param.ident] = _VarState(self._seed_param(param.type_name))
        # FLOW002 gate: the partition is shared with the fusecheck pass
        fused_spans = FuseChecker(self.env).certified_spans(body)
        ctx = _Ctx(known, source, report, decls, reads, fused_spans)
        self._walk_block(body, env, ctx)
        self._flush_pending(env, ctx, suppressed=False)
        for record in decls:
            if record.is_bat and not record.is_param and record.ident not in reads:
                report.add(
                    "FLOW003",
                    f"BAT variable {record.ident!r} is never read",
                    Severity.WARNING,
                    source=source,
                    line=record.line,
                )

    def _flush_pending(
        self, env: dict[str, _VarState], ctx: "_Ctx", suppressed: bool
    ) -> None:
        """End-of-scope: stores still pending were never read.

        FLOW002 proper needs an *overwrite*, so a final unread store is only
        folded into FLOW003 (never-read BATs); scalars fall silent here.
        """
        for state in env.values():
            state.pending_store = None

    # -- statement walk --------------------------------------------------
    def _walk_block(
        self,
        statements: list[Any],
        env: dict[str, _VarState],
        ctx: "_Ctx",
        in_parallel: bool = False,
        in_loop: bool = False,
    ) -> None:
        for statement in statements:
            self._walk_statement(statement, env, ctx, in_parallel, in_loop)

    def _walk_statement(
        self,
        statement: Any,
        env: dict[str, _VarState],
        ctx: "_Ctx",
        in_parallel: bool,
        in_loop: bool,
    ) -> None:
        match statement:
            case ProcDef():
                self._check_proc(statement, ctx.known, ctx.source, ctx.report)
            case VarDecl(ident=ident, value=value, line=line):
                if value is None:
                    env[ident] = _VarState(_ANY, assigned="no")
                    ctx.decls.append(_DeclRecord(ident, line, is_bat=False))
                    return
                val = self._eval(value, env, ctx)
                env[ident] = _VarState(
                    val,
                    pending_store=None if (in_parallel or in_loop) else line,
                )
                ctx.decls.append(
                    _DeclRecord(ident, line, is_bat=isinstance(val.type, BatT))
                )
            case Assign(ident=ident, value=value, line=line):
                val = self._eval(value, env, ctx)
                state = env.get(ident)
                if state is None:
                    # assignment to a global/undeclared name — milcheck's
                    # MIL002 territory; just track it from here on.
                    env[ident] = _VarState(val)
                    return
                if (
                    state.pending_store is not None
                    and not in_parallel
                    and not in_loop
                    and not (
                        isinstance(state.val.type, BatT)
                        and ctx.in_fused_span(state.pending_store, line)
                    )
                ):
                    ctx.report.add(
                        "FLOW002",
                        f"dead store to {ident!r}: value is overwritten at "
                        f"line {line} before any read",
                        Severity.WARNING,
                        source=ctx.source,
                        line=state.pending_store,
                        end_line=line,
                    )
                state.val = val
                state.assigned = "yes"
                state.pending_store = (
                    None if (in_parallel or in_loop) else line
                )
            case ExprStmt(expr=expr):
                self._eval(expr, env, ctx)
            case Return(expr=expr):
                if expr is not None:
                    self._eval(expr, env, ctx)
            case If(cond=cond, then=then, orelse=orelse):
                self._eval(cond, env, ctx)
                then_env = {k: v.copy() for k, v in env.items()}
                else_env = {k: v.copy() for k, v in env.items()}
                self._walk_block(then, then_env, ctx, in_parallel, in_loop)
                self._walk_block(orelse, else_env, ctx, in_parallel, in_loop)
                env.update(_merge_env(env, [then_env, else_env]))
            case While(cond=cond, body=body):
                self._eval(cond, env, ctx)
                loop_env = {k: v.copy() for k, v in env.items()}
                self._walk_block(body, loop_env, ctx, in_parallel, in_loop=True)
                env.update(_merge_env(env, [loop_env, env]))
            case Parallel(body=body):
                # every branch executes; order across branches is undefined,
                # so FLOW002 pending-store tracking is disabled inside.
                self._walk_block(body, env, ctx, in_parallel=True, in_loop=in_loop)
                for state in env.values():
                    state.pending_store = None
            case _:
                pass

    # -- expression evaluation -------------------------------------------
    def _read(self, ident: str, line: int | None, env, ctx: "_Ctx") -> _FlowVal:
        ctx.reads.add(ident)
        state = env.get(ident)
        if state is None:
            return _ANY  # global, command reference, or milcheck-MIL001
        state.pending_store = None
        if state.assigned == "no":
            ctx.report.add(
                "FLOW001",
                f"variable {ident!r} is used before it is assigned",
                Severity.ERROR,
                source=ctx.source,
                line=line,
            )
            state.assigned = "yes"  # report once per variable
        elif state.assigned == "maybe":
            ctx.report.add(
                "FLOW001",
                f"variable {ident!r} may be unassigned on some paths",
                Severity.WARNING,
                source=ctx.source,
                line=line,
            )
            state.assigned = "yes"
        return state.val

    def _eval(self, node: Any, env: dict[str, _VarState], ctx: "_Ctx") -> _FlowVal:
        match node:
            case Literal(value=value):
                if isinstance(value, bool):
                    return _FlowVal("bit", _point(1.0 if value else 0.0))
                if isinstance(value, int):
                    return _FlowVal("int", _point(value))
                if isinstance(value, float):
                    return _FlowVal("dbl", _point(value))
                if isinstance(value, str):
                    return _FlowVal("str")
                return _ANY
            case Name(ident=ident, line=line):
                return self._read(ident, line, env, ctx)
            case Call():
                return self._eval_call(node, env, ctx)
            case MethodCall():
                return self._eval_method(node, env, ctx)
            case BinOp(op=op, left=left, right=right):
                left_val = self._eval(left, env, ctx)
                right_val = self._eval(right, env, ctx)
                if op in ("AND", "OR", "=", "!=", "<", ">", "<=", ">="):
                    return _FlowVal("bit", Interval(0.0, 1.0))
                interval = _arith_interval(op, left_val.interval, right_val.interval)
                result_type = "dbl"
                if left_val.type == "int" and right_val.type == "int" and op != "/":
                    result_type = "int"
                return _FlowVal(result_type, interval)
            case UnaryOp(op=op, operand=operand):
                val = self._eval(operand, env, ctx)
                if op == "NOT":
                    return _FlowVal("bit", Interval(0.0, 1.0))
                interval = _arith_interval("-", _point(0.0), val.interval)
                return _FlowVal(val.type, interval, val.rate)
            case _:
                return _ANY

    # -- calls -----------------------------------------------------------
    def _eval_call(self, node: Call, env, ctx: "_Ctx") -> _FlowVal:
        if node.func == "new":
            names = [a.ident for a in node.args if isinstance(a, Name)]
            if len(names) == 2:
                return _FlowVal(BatT(names[0], names[1]), EMPTY)
            return _FlowVal(BatT(), EMPTY)
        arg_vals = [self._eval(a, env, ctx) for a in node.args]
        if node.func in ctx.known:
            definition = ctx.known[node.func]
            return _FlowVal(_named_type(definition.return_type))
        if node.func in env:
            return self._read(node.func, node.line, env, ctx)
        handler = _BULK_TRANSFER.get(node.func)
        if handler is not None:
            return handler(self, node, arg_vals, ctx)
        signature = self.env.signatures.get(node.func)
        if signature is not None:
            return self._eval_signature_call(node, signature, arg_vals, ctx)
        return _ANY

    def _eval_signature_call(
        self,
        node: Call,
        signature: CommandSignature,
        arg_vals: list[_FlowVal],
        ctx: "_Ctx",
    ) -> _FlowVal:
        for index, actual in enumerate(arg_vals):
            self._check_boundary_type(node, signature, index, actual, ctx)
            contract = signature.arg_range(index)
            if contract is not None and actual.interval.escapes(*contract):
                lo, hi = contract
                ctx.report.add(
                    "FLOW005",
                    f"{signature.describe()} argument {index + 1} has inferred "
                    f"range {actual.interval}, escaping the declared contract "
                    f"[{lo:g}, {hi:g}]",
                    Severity.ERROR,
                    source=ctx.source,
                    line=node.line,
                )
        result_type = _named_type(signature.returns)
        interval = (
            Interval(*signature.returns_range)
            if signature.returns_range is not None
            else TOP
        )
        rate = None
        if isinstance(result_type, BatT):
            rates = {v.rate for v in arg_vals if v.rate is not None}
            if len(rates) == 1:
                rate = rates.pop()
        return _FlowVal(result_type, interval, rate)

    def _check_boundary_type(
        self,
        node: Call,
        signature: CommandSignature,
        index: int,
        actual: _FlowVal,
        ctx: "_Ctx",
    ) -> None:
        """FLOW004: exact BAT column typing at extension-module boundaries."""
        if signature.module is None or not signature.args:
            return
        slot = min(index, len(signature.args) - 1)
        if signature.varargs is False and index >= len(signature.args):
            return
        expected = _named_type(signature.args[slot])
        if not isinstance(expected, BatT) or not isinstance(actual.type, BatT):
            return
        columns = (expected.head, expected.tail, actual.type.head, actual.type.tail)
        if any(c in ("?", "any") for c in columns):
            return

        def norm(column: str) -> str:
            return _head_as_value(column)

        if norm(expected.head) != norm(actual.type.head) or norm(
            expected.tail
        ) != norm(actual.type.tail):
            ctx.report.add(
                "FLOW004",
                f"{signature.describe()} argument {index + 1} crosses the "
                f"{signature.module!r} extension boundary as {actual.type}, "
                f"but the command requires exactly "
                f"BAT[{expected.head},{expected.tail}]",
                Severity.ERROR,
                source=ctx.source,
                line=node.line,
            )

    # -- BAT methods -----------------------------------------------------
    def _eval_method(self, node: MethodCall, env, ctx: "_Ctx") -> _FlowVal:
        receiver = self._eval(node.target, env, ctx)
        arg_vals = [self._eval(a, env, ctx) for a in node.args]
        if not isinstance(receiver.type, BatT):
            return _ANY
        bat = receiver.type
        method = node.method
        if method in ("insert", "insert_bulk"):
            inserted = arg_vals[-1] if arg_vals else _ANY
            widened = replace(
                receiver, interval=receiver.interval.hull(inserted.interval)
            )
            # appends mutate the receiver in place: widen the variable too
            if isinstance(node.target, Name) and node.target.ident in env:
                env[node.target.ident].val = widened
            return widened
        if method == "select":
            interval = receiver.interval
            if len(arg_vals) == 2:
                low, high = arg_vals[0].interval, arg_vals[1].interval
                interval = _narrow(_narrow(interval, ">=", low), "<=", high)
            elif len(arg_vals) == 1:
                interval = _narrow(interval, "=", arg_vals[0].interval)
            return _FlowVal(
                BatT(_head_as_value(bat.head), bat.tail), interval, None
            )
        if method in ("max", "min", "avg", "find", "fetch"):
            result_type = "dbl" if method == "avg" else (
                _head_as_value(bat.tail) if bat.tail != "?" else "any"
            )
            return _FlowVal(result_type, receiver.interval)
        if method == "sum":
            return _FlowVal(_head_as_value(bat.tail), TOP)
        if method == "count":
            return _FlowVal("int", Interval(0.0, math.inf))
        if method in ("copy", "sort", "unique", "semijoin", "kdiff", "filter_tail"):
            rate = receiver.rate if method == "copy" else None
            return _FlowVal(bat, receiver.interval, rate)
        if method == "kunion":
            other = arg_vals[0] if arg_vals else _ANY
            return _FlowVal(bat, receiver.interval.hull(other.interval))
        if method == "slice":
            return _FlowVal(bat, receiver.interval, None)
        if method in ("delete", "replace"):
            return receiver
        if method == "reverse":
            return _FlowVal(
                BatT(_head_as_value(bat.tail), _head_as_value(bat.head))
            )
        if method == "mirror":
            head = _head_as_value(bat.head)
            return _FlowVal(BatT(head, head))
        if method == "mark":
            return _FlowVal(BatT(_head_as_value(bat.head), "oid"))
        if method == "join":
            other = arg_vals[0] if arg_vals else _ANY
            if isinstance(other.type, BatT):
                return _FlowVal(
                    BatT(_head_as_value(bat.head), _head_as_value(other.type.tail)),
                    other.interval,
                )
            return _FlowVal(BatT(_head_as_value(bat.head), "?"))
        if method == "histogram":
            return _FlowVal(
                BatT(_head_as_value(bat.tail), "int"), Interval(0.0, math.inf)
            )
        if method == "exist":
            return _FlowVal("bit", Interval(0.0, 1.0))
        return _ANY


@dataclass
class _Ctx:
    """Per-walk context threaded through the analysis."""

    known: Mapping[str, ProcDef]
    source: str
    report: DiagnosticReport
    decls: list[_DeclRecord]
    reads: set[str]
    #: Certified fusion-region line spans (FLOW002 suppression).
    fused_spans: tuple[tuple[int, int], ...] = ()

    def in_fused_span(self, store: int | None, overwrite: int | None) -> bool:
        """Both lines inside one certified fusion region."""
        if store is None or overwrite is None:
            return False
        return any(
            start <= store and overwrite <= end
            for start, end in self.fused_spans
        )


# ---------------------------------------------------------------------------
# transfer functions for the Moa bulk-operator commands
# ---------------------------------------------------------------------------


def _literal_str(node: Any) -> str | None:
    if isinstance(node, Literal) and isinstance(node.value, str):
        return node.value
    return None


def _transfer_mmap(
    checker: FlowChecker, node: Call, args: list[_FlowVal], ctx: _Ctx
) -> _FlowVal:
    source_val = args[0] if args else _ANY
    op = _literal_str(node.args[1]) if len(node.args) > 1 else None
    operand = args[2].interval if len(args) > 2 else TOP
    interval = (
        _arith_interval(op, source_val.interval, operand) if op else TOP
    )
    head = source_val.type.head if isinstance(source_val.type, BatT) else "?"
    return _FlowVal(BatT(head, "dbl"), interval, source_val.rate)


def _transfer_mselect(
    checker: FlowChecker, node: Call, args: list[_FlowVal], ctx: _Ctx
) -> _FlowVal:
    source_val = args[0] if args else _ANY
    op = _literal_str(node.args[1]) if len(node.args) > 1 else None
    bound = args[2].interval if len(args) > 2 else TOP
    interval = (
        _narrow(source_val.interval, op, bound) if op else source_val.interval
    )
    if isinstance(source_val.type, BatT):
        bat = BatT(_head_as_value(source_val.type.head), source_val.type.tail)
    else:
        bat = BatT()
    return _FlowVal(bat, interval, None)  # selection breaks the uniform rate


def _transfer_maggr(
    checker: FlowChecker, node: Call, args: list[_FlowVal], ctx: _Ctx
) -> _FlowVal:
    source_val = args[0] if args else _ANY
    kind = _literal_str(node.args[1]) if len(node.args) > 1 else None
    if kind in ("max", "min", "avg"):
        return _FlowVal("dbl", source_val.interval)
    if kind == "count":
        return _FlowVal("int", Interval(0.0, math.inf))
    return _FlowVal("dbl", TOP)


def _transfer_msetop(
    checker: FlowChecker, node: Call, args: list[_FlowVal], ctx: _Ctx
) -> _FlowVal:
    left = args[1] if len(args) > 1 else _ANY
    right = args[2] if len(args) > 2 else _ANY
    bat = left.type if isinstance(left.type, BatT) else BatT()
    rate = left.rate if left.rate == right.rate else None
    return _FlowVal(bat, left.interval.hull(right.interval), rate)


_BULK_TRANSFER = {
    "mmap": _transfer_mmap,
    "mselect": _transfer_mselect,
    "maggr": _transfer_maggr,
    "msetop": _transfer_msetop,
}


# ---------------------------------------------------------------------------
# Moa expression flow analysis
# ---------------------------------------------------------------------------


def check_moa_flow(
    expr: Expr,
    source: str = "<moa>",
    ranges: Mapping[str, tuple[float, float]] | None = None,
) -> DiagnosticReport:
    """Propagate value ranges through a Moa expression tree.

    Free ``Var``s named like feature streams (``f1``, ``f2``, ...) — or any
    listed in ``ranges`` — seed the interval lattice; ``Apply`` nodes of the
    DBN/HMM extensions are evidence boundaries where the feature contract
    ``[0, 1]`` must provably hold (FLOW005 when refuted).
    """
    report = DiagnosticReport()
    seeds = dict(ranges or {})

    def seed(name: str) -> Interval:
        if name in seeds:
            return Interval(*seeds[name])
        if _FEATURE_VAR.match(name):
            return Interval(*FEATURE_RANGE)
        return TOP

    def walk(node: Expr, env: dict[str, Interval]) -> Interval:
        match node:
            case Const(value=value):
                if isinstance(value, bool):
                    return _point(1.0 if value else 0.0)
                if isinstance(value, (int, float)):
                    return _point(float(value))
                return TOP
            case Var(name=name):
                return env.get(name, seed(name))
            case Field(source=inner):
                walk(inner, env)
                return TOP
            case MakeTuple(fields=fields):
                for _, sub in fields:
                    walk(sub, env)
                return TOP
            case Cmp(left=left, right=right) | BoolOp(left=left, right=right):
                walk(left, env)
                walk(right, env)
                return Interval(0.0, 1.0)
            case Not(operand=operand):
                walk(operand, env)
                return Interval(0.0, 1.0)
            case Arith(op=op, left=left, right=right):
                return _arith_interval(op, walk(left, env), walk(right, env))
            case Map(var=var, body=body, source=inner):
                element = walk(inner, env)
                return walk(body, {**env, var: element})
            case Select(var=var, pred=pred, source=inner):
                element = walk(inner, env)
                walk(pred, {**env, var: element})
                return element
            case Join(
                left_var=lv, right_var=rv, pred=pred,
                left=left, right=right, result=result,
            ):
                left_el = walk(left, env)
                right_el = walk(right, env)
                bound = {**env, lv: left_el, rv: right_el}
                walk(pred, bound)
                return walk(result, bound)
            case Semijoin(
                left_var=lv, right_var=rv, pred=pred, left=left, right=right
            ):
                left_el = walk(left, env)
                right_el = walk(right, env)
                walk(pred, {**env, lv: left_el, rv: right_el})
                return left_el
            case Nest(source=inner) | Unnest(source=inner) | The(source=inner):
                return walk(inner, env)
            case Aggregate(kind=kind, source=inner):
                element = walk(inner, env)
                if kind in ("max", "min", "avg"):
                    return element
                if kind == "count":
                    return Interval(0.0, math.inf)
                return TOP
            case SetOp(left=left, right=right):
                return walk(left, env).hull(walk(right, env))
            case Apply(extension=extension, operator=operator, args=args):
                intervals = [walk(a, env) for a in args]
                if extension in _EVIDENCE_EXTENSIONS:
                    for index, interval in enumerate(intervals):
                        if interval.escapes(*FEATURE_RANGE):
                            lo, hi = FEATURE_RANGE
                            report.add(
                                "FLOW005",
                                f"{extension}.{operator} evidence argument "
                                f"{index + 1} has inferred range {interval}, "
                                f"escaping the feature contract "
                                f"[{lo:g}, {hi:g}]",
                                Severity.ERROR,
                                source=source,
                            )
                return TOP
            case _:
                return TOP

    walk(expr, {})
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
            if math.isnan(number) or not (lo - _EPS <= number <= hi + _EPS):
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


# ---------------------------------------------------------------------------
# convenience entry point
# ---------------------------------------------------------------------------


def check_flow_source(
    source: str, name: str = "<mil>", *environment: Any, **named: Any
) -> DiagnosticReport:
    """Parse and flow-check MIL source text (environment as for the class)."""
    return FlowChecker(*environment, **named).check_source(source, name=name)
