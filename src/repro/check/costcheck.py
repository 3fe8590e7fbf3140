"""Plan-level cost analysis: cardinality × selectivity × cost lattice.

Where :mod:`repro.check.flowcheck` proves *value* facts (type, interval,
rate), ``costcheck`` estimates *work*: every MIL expression carries a point
in the lattice

    **cardinality × selectivity × cost**

* *cardinality* — an estimated row count.  BAT-typed procedure parameters
  seed at :data:`DEFAULT_CARD` rows (or measured :class:`BatStats` when the
  caller has live BATs); ``new()`` allocations seed small.
* *selectivity* — the fraction of rows a selection keeps.  When flowcheck's
  interval facts are available (feature streams seed at ``[0, 1]``) the
  predicate's overlap with the value interval gives the estimate; otherwise
  :data:`DEFAULT_SELECTIVITY` applies.
* *cost* — abstract work units: one unit per command dispatch plus one per
  BAT row consumed; joins multiply when no keyed access exists; ``WHILE``
  bodies multiply by :data:`LOOP_TRIPS`; ``PARALLEL`` costs the longest
  branch plus :data:`BRANCH_OVERHEAD` per branch.

Alongside cardinalities the analysis tracks physical access facts —
``sorted_tail`` (after ``.sort``) and ``keyed_head`` (void/dense heads) —
which drive the access-path lints.

Diagnostic codes (the PERF family is advisory: warnings that never fail
``--strict``; the interpreter cannot be made slower by a hint):

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
PERF001   warning   quadratic nested-loop join: the inner BAT has no
                    keyed (dense/void) head to probe
PERF002   warning   unfused select chain re-materializes intermediates
PERF003   warning   loop-invariant command call inside a WHILE body
PERF004   warning   full materialization (``.copy``) never sliced and
                    never justified by a later mutation of the source
PERF005   warning   value scan (``select``/``mselect``) over a BAT whose
                    tail is already sorted — a sorted access exists
PERF006   warning   fan-out (PARALLEL) plan whose estimated cost exceeds
                    the shard-local (sequential) alternative
========  ========  =====================================================

Scope notes: PERF003 considers top-level command calls in ``WHILE`` bodies
(method chains and nested calls are left to the runtime); PERF004 only
fires for copies of unbounded-cardinality BATs (degree >= 1).

The module also exposes the cost model to the other layers:
:func:`estimate_moa_cost` / :func:`check_moa_cost` for Moa expression
trees (used by :class:`repro.moa.rewrite.MoaCompiler`),
:func:`estimate_extraction_cost` for the Cobra preprocessor's method
choice, and :func:`estimate_model_cost` for DBN registration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.effects import (
    ACCESSES,
    APPEND_METHODS,
    MUTATIONS,
    WRITE_METHODS,
    names,
)
from repro.check.environment import MilPass, definition_of
from repro.check.flowcheck import (
    EMPTY,
    FEATURE_RANGE,
    TOP,
    Interval,
    _arith_interval,
    _narrow,
    _point,
)
from repro.check.fusecheck import IMPURE_COMMANDS
from repro.check.milcheck import BatT, _named_type
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
    MilProcedure,
    Name,
    Parallel,
    ProcDef,
    Return,
    UnaryOp,
    VarDecl,
    While,
)
from repro.monet.operators import BatStats

__all__ = [
    "BRANCH_OVERHEAD",
    "CostChecker",
    "DEFAULT_CARD",
    "DEFAULT_SELECTIVITY",
    "LOOP_TRIPS",
    "QUALITY_TOLERANCE",
    "check_cost_source",
    "check_moa_cost",
    "estimate_extraction_cost",
    "estimate_moa_cost",
    "estimate_model_cost",
]

#: Assumed cardinality of an unbounded BAT input (one 100 s clip at 10 Hz).
DEFAULT_CARD = 1000.0

#: Kept fraction of a selection when the interval facts cannot refine it.
DEFAULT_SELECTIVITY = 0.5

#: Assumed trip count of a WHILE loop (bodies cost ``trips x`` their work).
LOOP_TRIPS = 8.0

#: Fixed cost of shipping one PARALLEL branch to a server (Fig. 4 fan-out).
BRANCH_OVERHEAD = 50.0

#: Rows seeded for a fresh ``new()`` BAT (Fig. 4 collects one per server).
_FRESH_ROWS = 8.0

#: The preprocessor prefers cheaper methods within this quality band.
QUALITY_TOLERANCE = 0.2

#: Floor for refined selectivities (a selection rarely keeps nothing).
_MIN_SELECTIVITY = 0.01


@dataclass(frozen=True)
class CostVal:
    """One lattice point for a value: cardinality + physical access facts."""

    is_bat: bool = False
    rows: float = 1.0
    #: 0 = bounded/small, 1 = linear in an unbounded input (transitively).
    degree: int = 0
    sorted_tail: bool = False
    keyed_head: bool = False
    interval: Interval = TOP


_SCALAR = CostVal()


@dataclass
class _CopyRecord:
    target: str
    source: str | None
    line: int | None


@dataclass
class _CostCtx:
    #: findings, recorded without an origin (the reader labels them)
    report: DiagnosticReport
    #: cost accumulator stack; the top frame is the current block/branch
    frames: list[float] = field(default_factory=lambda: [0.0])
    #: select-result ident -> (chain length, first select line)
    select_chain: dict[str, tuple[int, int | None]] = field(default_factory=dict)
    copies: list[_CopyRecord] = field(default_factory=list)
    mutated: set[str] = field(default_factory=set)
    sliced: set[str] = field(default_factory=set)

    def add(self, cost: float) -> None:
        self.frames[-1] += cost

    def push(self) -> None:
        self.frames.append(0.0)

    def pop(self) -> float:
        return self.frames.pop()


class CostChecker(MilPass):
    """Abstract cost interpreter over MIL procedures.

    The default-statistics run of a procedure is memoised on the
    environment: this pass's report and programcheck's local cost share it.
    """

    # -- entry points ----------------------------------------------------
    def _check_definition(self, definition: ProcDef, label: str) -> DiagnosticReport:
        return self._run_proc(definition, None)[1].labelled(label)

    def _check_toplevel(self, statements: list[Any], label: str) -> DiagnosticReport:
        return self._cost_body(statements, {})[1].labelled(label)

    def check_proc(
        self,
        definition: ProcDef | MilProcedure,
        source: str | None = None,
        stats: Mapping[str, BatStats] | None = None,
    ) -> DiagnosticReport:
        definition = definition_of(definition)
        findings = self._run_proc(definition, stats)[1]
        return findings.labelled(source or definition.name)

    def estimate_proc(
        self,
        definition: ProcDef | MilProcedure,
        stats: Mapping[str, BatStats] | None = None,
    ) -> float:
        """Estimated cost (abstract work units) of one procedure call."""
        return self._run_proc(definition_of(definition), stats)[0]

    def _run_proc(
        self, definition: ProcDef, stats: Mapping[str, BatStats] | None
    ) -> tuple[float, DiagnosticReport]:
        """(cost, unlabelled findings) of one call of ``definition``."""

        def run() -> tuple[float, DiagnosticReport]:
            env = {
                param.ident: self._seed_param(
                    param.type_name, (stats or {}).get(param.ident)
                )
                for param in definition.params
            }
            return self._cost_body(definition.body, env)

        if stats:
            return run()  # measured cardinalities: the caller's one-off
        return self.env.once("cost", definition, run)

    def _cost_body(
        self, body: list[Any], env: dict[str, CostVal]
    ) -> tuple[float, DiagnosticReport]:
        """The analysis proper: walk ``body`` from the seeded ``env``."""
        ctx = _CostCtx(DiagnosticReport())
        self._walk_block(body, env, ctx)
        self._finish(ctx)
        return ctx.frames[0], ctx.report

    def _seed_param(
        self, type_name: str | None, stats: BatStats | None
    ) -> CostVal:
        inferred = _named_type(type_name)
        if not isinstance(inferred, BatT):
            return _SCALAR
        interval = (
            Interval(*FEATURE_RANGE)
            if inferred.head == "void" and inferred.tail == "dbl"
            else TOP
        )
        if stats is not None:
            return CostVal(
                is_bat=True,
                rows=max(float(stats.rows), 1.0),
                degree=1,
                sorted_tail=stats.sorted_tail,
                keyed_head=stats.keyed_head or inferred.head == "void",
                interval=interval,
            )
        return CostVal(
            is_bat=True,
            rows=DEFAULT_CARD,
            degree=1,
            keyed_head=inferred.head == "void",
            interval=interval,
        )

    # -- statement walk --------------------------------------------------
    def _walk_block(
        self, statements: list[Any], env: dict[str, CostVal], ctx: _CostCtx
    ) -> None:
        for statement in statements:
            self._walk_statement(statement, env, ctx)

    def _walk_statement(
        self, statement: Any, env: dict[str, CostVal], ctx: _CostCtx
    ) -> None:
        match statement:
            case ProcDef():
                pass  # nested defs are costed at their own define site
            case VarDecl(ident=ident, value=value, line=line):
                if value is None:
                    env[ident] = _SCALAR
                    return
                val = self._eval(value, env, ctx)
                env[ident] = val
                self._note_assignment(ident, value, val, line, env, ctx)
            case Assign(ident=ident, value=value, line=line):
                val = self._eval(value, env, ctx)
                env[ident] = val
                self._note_assignment(ident, value, val, line, env, ctx)
            case ExprStmt(expr=expr):
                self._eval(expr, env, ctx)
            case Return(expr=expr):
                if expr is not None:
                    self._eval(expr, env, ctx)
            case If(cond=cond, then=then, orelse=orelse):
                self._eval(cond, env, ctx)
                then_env = dict(env)
                else_env = dict(env)
                ctx.push()
                self._walk_block(then, then_env, ctx)
                then_cost = ctx.pop()
                ctx.push()
                self._walk_block(orelse, else_env, ctx)
                else_cost = ctx.pop()
                ctx.add(max(then_cost, else_cost))
                for ident in env:
                    env[ident] = _merge(then_env[ident], else_env[ident])
            case While(cond=cond, body=body):
                self._eval(cond, env, ctx)
                self._check_loop_invariants(body, env, ctx)
                ctx.push()
                self._walk_block(body, env, ctx)
                ctx.add(ctx.pop() * LOOP_TRIPS)
            case Parallel(body=body, line=line):
                branch_costs: list[float] = []
                for branch in body:
                    ctx.push()
                    self._walk_statement(branch, env, ctx)
                    branch_costs.append(ctx.pop())
                n = len(branch_costs)
                sequential = sum(branch_costs)
                fan_out = max(branch_costs, default=0.0) + BRANCH_OVERHEAD * n
                ctx.add(min(fan_out, sequential) if n else 0.0)
                if n >= 2 and fan_out >= sequential:
                    ctx.report.add(
                        "PERF006",
                        f"fan-out plan over {n} branches costs ~{fan_out:.0f} "
                        f"(longest branch + {BRANCH_OVERHEAD:g}/branch "
                        f"dispatch) but the shard-local sequential plan "
                        f"costs ~{sequential:.0f}; the branches are too "
                        f"cheap to ship",
                        Severity.WARNING,
                        line=line,
                    )
            case _:
                pass

    def _note_assignment(
        self,
        ident: str,
        value: Any,
        val: CostVal,
        line: int | None,
        env: dict[str, CostVal],
        ctx: _CostCtx,
    ) -> None:
        """Per-assignment bookkeeping for the chain/copy lints."""
        source_ident = _select_source(value)
        if source_ident is not None:
            length, first = 1, line
            previous = ctx.select_chain.get(source_ident)
            if previous is not None:
                length = previous[0] + 1
                first = previous[1]
            ctx.select_chain[ident] = (length, first)
            if length == 2:
                ctx.report.add(
                    "PERF002",
                    f"chain of {length} selections materializes an "
                    f"intermediate BAT at every step; a fused selection "
                    f"would scan the input once",
                    Severity.WARNING,
                    line=first,
                    end_line=line,
                )
        if (
            isinstance(value, MethodCall)
            and value.method == "copy"
            and isinstance(value.target, Name)
            and val.degree >= 1
        ):
            ctx.copies.append(_CopyRecord(ident, value.target.ident, line))

    def _finish(self, ctx: _CostCtx) -> None:
        """End of walk: copies never sliced nor justified are PERF004."""
        for record in ctx.copies:
            justified = (
                record.target in ctx.mutated
                or record.target in ctx.sliced
                or (record.source is not None and record.source in ctx.mutated)
            )
            if not justified:
                ctx.report.add(
                    "PERF004",
                    f"{record.target!r} fully materializes a copy of "
                    f"{record.source!r} but is never sliced or mutated; "
                    f"read the source (or a slice) directly",
                    Severity.WARNING,
                    line=record.line,
                )

    # -- PERF003: loop-invariant commands --------------------------------
    def _check_loop_invariants(
        self, body: list[Any], env: dict[str, CostVal], ctx: _CostCtx
    ) -> None:
        assigned = names(body, MUTATIONS)
        for statement in body:
            expr = None
            match statement:
                case VarDecl(value=value):
                    expr = value
                case Assign(value=value):
                    expr = value
                case ExprStmt(expr=inner):
                    expr = inner
            if not isinstance(expr, Call):
                continue
            if expr.func not in self.env.signatures or expr.func in IMPURE_COMMANDS:
                continue
            if names(expr, ACCESSES) & assigned:
                continue
            ctx.report.add(
                "PERF003",
                f"call to {expr.func!r} is loop-invariant: none of its "
                f"inputs change inside the WHILE body; hoist it out of "
                f"the loop",
                Severity.WARNING,
                line=getattr(statement, "line", None) or expr.line,
            )

    # -- expression evaluation -------------------------------------------
    def _eval(self, node: Any, env: dict[str, CostVal], ctx: _CostCtx) -> CostVal:
        match node:
            case Literal(value=value):
                if isinstance(value, bool):
                    return CostVal(interval=_point(1.0 if value else 0.0))
                if isinstance(value, (int, float)):
                    return CostVal(interval=_point(float(value)))
                return _SCALAR
            case Name(ident=ident):
                return env.get(ident, _SCALAR)
            case Call():
                return self._eval_call(node, env, ctx)
            case MethodCall():
                return self._eval_method(node, env, ctx)
            case BinOp(op=op, left=left, right=right):
                left_val = self._eval(left, env, ctx)
                right_val = self._eval(right, env, ctx)
                if op in ("AND", "OR", "=", "!=", "<", ">", "<=", ">="):
                    return CostVal(interval=Interval(0.0, 1.0))
                return CostVal(
                    interval=_arith_interval(
                        op, left_val.interval, right_val.interval
                    )
                )
            case UnaryOp(operand=operand):
                val = self._eval(operand, env, ctx)
                return CostVal(
                    interval=_arith_interval("-", _point(0.0), val.interval)
                )
            case _:
                return _SCALAR

    def _eval_call(self, node: Call, env, ctx: _CostCtx) -> CostVal:
        if node.func == "new":
            ctx.add(1.0)
            names = [a.ident for a in node.args if isinstance(a, Name)]
            keyed = bool(names) and names[0] == "void"
            return CostVal(
                is_bat=True,
                rows=_FRESH_ROWS,
                degree=0,
                keyed_head=keyed,
                interval=EMPTY,
            )
        arg_vals = [self._eval(a, env, ctx) for a in node.args]
        handler = _BULK_COST.get(node.func)
        if handler is not None:
            return handler(self, node, arg_vals, env, ctx)
        scanned = sum(v.rows for v in arg_vals if v.is_bat)
        ctx.add(1.0 + scanned)
        if node.func in self.env.procedures:
            definition = self.env.procedures[node.func]
            return self._result_from_type(definition.return_type, arg_vals)
        signature = self.env.signatures.get(node.func)
        if signature is not None:
            result = self._result_from_type(signature.returns, arg_vals)
            if signature.returns_range is not None:
                return replace(
                    result, interval=Interval(*signature.returns_range)
                )
            return result
        return _SCALAR

    def _result_from_type(
        self, type_name: str | None, arg_vals: list[CostVal]
    ) -> CostVal:
        inferred = _named_type(type_name)
        if not isinstance(inferred, BatT):
            return _SCALAR
        bat_rows = [v.rows for v in arg_vals if v.is_bat]
        degree = max((v.degree for v in arg_vals if v.is_bat), default=1)
        return CostVal(
            is_bat=True,
            rows=max(bat_rows, default=DEFAULT_CARD),
            degree=degree,
            keyed_head=inferred.head == "void",
        )

    # -- BAT methods -----------------------------------------------------
    def _eval_method(self, node: MethodCall, env, ctx: _CostCtx) -> CostVal:
        receiver = self._eval(node.target, env, ctx)
        arg_vals = [self._eval(a, env, ctx) for a in node.args]
        target_ident = (
            node.target.ident if isinstance(node.target, Name) else None
        )
        if not receiver.is_bat:
            ctx.add(1.0)
            return _SCALAR
        method = node.method
        rows = receiver.rows
        if method in APPEND_METHODS:
            ctx.add(1.0)
            if target_ident is not None:
                ctx.mutated.add(target_ident)
                inserted = arg_vals[-1] if arg_vals else _SCALAR
                env[target_ident] = replace(
                    receiver,
                    rows=receiver.rows + 1.0,
                    sorted_tail=False,
                    interval=receiver.interval.hull(inserted.interval),
                )
            return receiver
        if method in WRITE_METHODS:
            ctx.add(rows)
            if target_ident is not None:
                ctx.mutated.add(target_ident)
            return receiver
        if method == "select":
            ctx.add(rows)
            if receiver.sorted_tail:
                ctx.report.add(
                    "PERF005",
                    f"value scan over a tail-sorted BAT; a sorted "
                    f"(binary-search) access path exists and costs "
                    f"O(log n) instead of O(n)",
                    Severity.WARNING,
                    line=node.line,
                )
            interval = receiver.interval
            if len(arg_vals) == 2:
                interval = _narrow(
                    _narrow(interval, ">=", arg_vals[0].interval),
                    "<=",
                    arg_vals[1].interval,
                )
                kept = _range_selectivity(
                    receiver.interval, arg_vals[0].interval, arg_vals[1].interval
                )
            elif len(arg_vals) == 1:
                interval = _narrow(interval, "=", arg_vals[0].interval)
                kept = _MIN_SELECTIVITY * 5
            else:
                kept = DEFAULT_SELECTIVITY
            return CostVal(
                is_bat=True,
                rows=max(rows * kept, 1.0),
                degree=receiver.degree,
                sorted_tail=receiver.sorted_tail,
                keyed_head=receiver.keyed_head,
                interval=interval,
            )
        if method == "sort":
            ctx.add(rows * max(math.log2(rows + 2.0), 1.0))
            return replace(receiver, sorted_tail=True, keyed_head=False)
        if method == "join":
            other = arg_vals[0] if arg_vals else _SCALAR
            if other.is_bat and not other.keyed_head:
                ctx.add(rows * other.rows)
                if receiver.degree >= 1 and other.degree >= 1:
                    ctx.report.add(
                        "PERF001",
                        f"nested-loop join: the inner BAT has no keyed "
                        f"(dense/void) head, so every one of ~{rows:.0f} "
                        f"probes scans ~{other.rows:.0f} rows "
                        f"(~{rows * other.rows:.0f} work); key or mark "
                        f"the inner BAT first",
                        Severity.WARNING,
                        line=node.line,
                    )
            else:
                ctx.add(rows + (other.rows if other.is_bat else 0.0))
            return CostVal(
                is_bat=True,
                rows=rows,
                degree=max(receiver.degree, other.degree),
                keyed_head=receiver.keyed_head,
                interval=other.interval,
            )
        if method in ("semijoin", "kdiff", "kunion"):
            other = arg_vals[0] if arg_vals else _SCALAR
            other_rows = other.rows if other.is_bat else 0.0
            ctx.add(rows + other_rows)
            out_rows = rows + other_rows if method == "kunion" else rows
            return CostVal(
                is_bat=True,
                rows=out_rows,
                degree=max(receiver.degree, other.degree),
                keyed_head=receiver.keyed_head,
                interval=receiver.interval.hull(other.interval)
                if method == "kunion"
                else receiver.interval,
            )
        if method == "slice":
            if target_ident is not None:
                ctx.sliced.add(target_ident)
            lo = arg_vals[0].interval if len(arg_vals) > 0 else TOP
            hi = arg_vals[1].interval if len(arg_vals) > 1 else TOP
            if lo.known and hi.known:
                out_rows = max(min(hi.hi - lo.lo, rows), 1.0)
            else:
                out_rows = max(rows * 0.1, 1.0)
            ctx.add(out_rows)
            return replace(receiver, rows=out_rows, degree=0)
        if method == "copy":
            ctx.add(rows)
            return replace(receiver, keyed_head=False)
        if method in ("unique", "filter_tail"):
            ctx.add(rows)
            return receiver
        if method in ("reverse", "mirror", "mark", "histogram"):
            ctx.add(rows)
            return CostVal(
                is_bat=True,
                rows=rows,
                degree=receiver.degree,
                keyed_head=method == "mark",
            )
        if method == "count":
            ctx.add(1.0)
            return CostVal(interval=Interval(0.0, math.inf))
        if method in ("max", "min", "avg", "sum", "find", "exist", "fetch"):
            ctx.add(1.0 if receiver.keyed_head and method == "fetch" else rows)
            interval = receiver.interval if method != "sum" else TOP
            return CostVal(interval=interval)
        ctx.add(1.0)
        return _SCALAR


def _merge(a: CostVal, b: CostVal) -> CostVal:
    if a == b:
        return a
    return CostVal(
        is_bat=a.is_bat or b.is_bat,
        rows=max(a.rows, b.rows),
        degree=max(a.degree, b.degree),
        sorted_tail=a.sorted_tail and b.sorted_tail,
        keyed_head=a.keyed_head and b.keyed_head,
        interval=a.interval.hull(b.interval),
    )


def _select_source(value: Any) -> str | None:
    """The source ident when ``value`` is a selection over a variable."""
    if (
        isinstance(value, Call)
        and value.func == "mselect"
        and value.args
        and isinstance(value.args[0], Name)
    ):
        return value.args[0].ident
    if (
        isinstance(value, MethodCall)
        and value.method == "select"
        and isinstance(value.target, Name)
    ):
        return value.target.ident
    return None


def _range_selectivity(interval: Interval, lo: Interval, hi: Interval) -> float:
    """Kept fraction of ``select(lo, hi)`` given the value interval."""
    if not (interval.known and lo.known and hi.known):
        return DEFAULT_SELECTIVITY
    width = interval.hi - interval.lo
    if width <= 0.0:
        return DEFAULT_SELECTIVITY
    kept = min(interval.hi, hi.hi) - max(interval.lo, lo.lo)
    return min(max(kept / width, _MIN_SELECTIVITY), 1.0)


def _cmp_selectivity(interval: Interval, op: str, bound: Interval) -> float:
    """Kept fraction of ``mselect(op, bound)`` given the value interval."""
    if not (interval.known and bound.known):
        return DEFAULT_SELECTIVITY
    width = interval.hi - interval.lo
    if width <= 0.0:
        return DEFAULT_SELECTIVITY
    if op in (">", ">="):
        kept = interval.hi - max(interval.lo, bound.lo)
    elif op in ("<", "<="):
        kept = min(interval.hi, bound.hi) - interval.lo
    elif op == "=":
        return _MIN_SELECTIVITY * 5
    else:
        return DEFAULT_SELECTIVITY
    return min(max(kept / width, _MIN_SELECTIVITY), 1.0)


# ---------------------------------------------------------------------------
# bulk-operator cost transfer functions
# ---------------------------------------------------------------------------


def _literal_str(node: Any) -> str | None:
    if isinstance(node, Literal) and isinstance(node.value, str):
        return node.value
    return None


def _bulk_mselect(
    checker: CostChecker, node: Call, args: list[CostVal], env, ctx: _CostCtx
) -> CostVal:
    source_val = args[0] if args else _SCALAR
    ctx.add(1.0 + source_val.rows)
    if source_val.is_bat and source_val.sorted_tail:
        ctx.report.add(
            "PERF005",
            "value scan over a tail-sorted BAT; a sorted (binary-search) "
            "access path exists and costs O(log n) instead of O(n)",
            Severity.WARNING,
            line=node.line,
        )
    op = _literal_str(node.args[1]) if len(node.args) > 1 else None
    bound = args[2].interval if len(args) > 2 else TOP
    kept = (
        _cmp_selectivity(source_val.interval, op, bound)
        if op
        else DEFAULT_SELECTIVITY
    )
    interval = _narrow(source_val.interval, op, bound) if op else TOP
    return CostVal(
        is_bat=True,
        rows=max(source_val.rows * kept, 1.0),
        degree=source_val.degree,
        sorted_tail=source_val.sorted_tail,
        keyed_head=source_val.keyed_head,
        interval=interval,
    )


def _bulk_mmap(
    checker: CostChecker, node: Call, args: list[CostVal], env, ctx: _CostCtx
) -> CostVal:
    source_val = args[0] if args else _SCALAR
    ctx.add(1.0 + source_val.rows)
    op = _literal_str(node.args[1]) if len(node.args) > 1 else None
    operand = args[2].interval if len(args) > 2 else TOP
    interval = _arith_interval(op, source_val.interval, operand) if op else TOP
    return CostVal(
        is_bat=True,
        rows=source_val.rows,
        degree=source_val.degree,
        keyed_head=source_val.keyed_head,
        interval=interval,
    )


def _bulk_maggr(
    checker: CostChecker, node: Call, args: list[CostVal], env, ctx: _CostCtx
) -> CostVal:
    source_val = args[0] if args else _SCALAR
    ctx.add(1.0 + source_val.rows)
    kind = _literal_str(node.args[1]) if len(node.args) > 1 else None
    if kind == "count":
        return CostVal(interval=Interval(0.0, math.inf))
    return CostVal(interval=source_val.interval)


def _bulk_msetop(
    checker: CostChecker, node: Call, args: list[CostVal], env, ctx: _CostCtx
) -> CostVal:
    left = args[1] if len(args) > 1 else _SCALAR
    right = args[2] if len(args) > 2 else _SCALAR
    ctx.add(1.0 + left.rows + right.rows)
    return CostVal(
        is_bat=True,
        rows=left.rows + right.rows,
        degree=max(left.degree, right.degree),
        interval=left.interval.hull(right.interval),
    )


_BULK_COST = {
    "mselect": _bulk_mselect,
    "mmap": _bulk_mmap,
    "maggr": _bulk_maggr,
    "msetop": _bulk_msetop,
}


# ---------------------------------------------------------------------------
# Moa expression cost model
# ---------------------------------------------------------------------------


def estimate_moa_cost(expr: Expr, card: float = DEFAULT_CARD) -> float:
    """Estimated work units of a Moa expression over ``card``-row inputs."""
    cost, _ = _moa_walk(expr, card, None)
    return cost


def check_moa_cost(
    expr: Expr, source: str = "<moa>", card: float = DEFAULT_CARD
) -> DiagnosticReport:
    """Moa-level PERF lints: nested selections and nested-loop joins."""
    report = DiagnosticReport()
    _moa_walk(expr, card, report, source)
    return report


def _moa_walk(
    expr: Expr,
    card: float,
    report: DiagnosticReport | None,
    source: str = "<moa>",
) -> tuple[float, float]:
    """Returns ``(cost, rows)`` for one node; reports when asked."""

    def walk(node: Expr) -> tuple[float, float]:
        match node:
            case Const():
                return 0.0, 1.0
            case Var():
                return 0.0, card
            case Select(source=inner):
                if report is not None and isinstance(inner, Select):
                    report.add(
                        "PERF002",
                        "nested selections materialize an intermediate at "
                        "every level; fuse the predicates into one pass",
                        Severity.WARNING,
                        source=source,
                    )
                sub_cost, sub_rows = walk(inner)
                return sub_cost + sub_rows, max(
                    sub_rows * DEFAULT_SELECTIVITY, 1.0
                )
            case Map(source=inner):
                sub_cost, sub_rows = walk(inner)
                return sub_cost + sub_rows, sub_rows
            case Aggregate(source=inner):
                sub_cost, sub_rows = walk(inner)
                return sub_cost + sub_rows, 1.0
            case SetOp(left=left, right=right):
                l_cost, l_rows = walk(left)
                r_cost, r_rows = walk(right)
                return l_cost + r_cost + l_rows + r_rows, l_rows + r_rows
            case Join(left=left, right=right):
                l_cost, l_rows = walk(left)
                r_cost, r_rows = walk(right)
                if report is not None and l_rows >= card and r_rows >= card:
                    report.add(
                        "PERF001",
                        "nested-loop join over two unbounded inputs "
                        f"(~{l_rows * r_rows:.0f} work); restrict one side "
                        "before joining",
                        Severity.WARNING,
                        source=source,
                    )
                return l_cost + r_cost + l_rows * r_rows, l_rows * r_rows
            case Semijoin(left=left, right=right):
                l_cost, l_rows = walk(left)
                r_cost, r_rows = walk(right)
                return l_cost + r_cost + l_rows + r_rows, l_rows
            case Nest(source=inner) | Unnest(source=inner) | The(source=inner):
                return walk(inner)
            case Apply(args=args):
                total_cost, total_rows = 0.0, 0.0
                for arg in args:
                    sub_cost, sub_rows = walk(arg)
                    total_cost += sub_cost + sub_rows
                    total_rows = max(total_rows, sub_rows)
                return total_cost, max(total_rows, 1.0)
            case Field(source=inner):
                return walk(inner)
            case MakeTuple(fields=fields):
                total = 0.0
                for _, sub in fields:
                    sub_cost, _rows = walk(sub)
                    total += sub_cost
                return total, 1.0
            case Arith(left=left, right=right) | Cmp(
                left=left, right=right
            ) | BoolOp(left=left, right=right):
                l_cost, _ = walk(left)
                r_cost, _ = walk(right)
                return l_cost + r_cost, 1.0
            case Not(operand=operand):
                return walk(operand)
            case _:
                return 0.0, 1.0

    return walk(expr)


# ---------------------------------------------------------------------------
# cost models for the Cobra layers
# ---------------------------------------------------------------------------


def estimate_extraction_cost(method: Any, document: Any) -> float:
    """Estimated cost of running one extraction method on one document.

    ``method.cost`` is the catalog's declared per-row unit cost; the row
    count is the total length of the feature tracks the method reads (all
    tracks when it declares no prerequisites — a raw-media pass), falling
    back to :data:`DEFAULT_CARD` when the document carries no usable
    tracks.  Used by
    :meth:`repro.cobra.preprocessor.QueryPreprocessor._choose_method`.
    """
    features = getattr(document, "features", {}) or {}
    names = tuple(getattr(method, "requires_features", ()) or ()) or tuple(
        sorted(features)
    )
    rows = 0.0
    for name in names:
        track = features.get(name)
        if track is None:
            rows += DEFAULT_CARD
        else:
            rows += float(len(getattr(track, "values", ())))
    if rows == 0.0:
        rows = DEFAULT_CARD
    return 1.0 + float(getattr(method, "cost", 1.0)) * rows


def estimate_model_cost(template: Any) -> float:
    """Per-step inference cost estimate of a DBN template.

    Exact interface inference over a two-slice DBN is linear in the joint
    hidden state space per step: the product of the hidden-node
    cardinalities, squared by the transition.  Stored by
    :meth:`repro.cobra.extensions.DbnExtension.register` so plan choice
    can weigh models against each other.
    """
    try:
        nodes = template.nodes()
        observed = set(template.observed_nodes())
    except Exception:  # pragma: no cover - duck-typed templates
        return 1.0
    hidden_states = 1.0
    for name in nodes:
        if name not in observed:
            hidden_states *= float(template.cardinality(name))
    return max(hidden_states * hidden_states, 1.0)


# ---------------------------------------------------------------------------
# convenience entry point
# ---------------------------------------------------------------------------


def check_cost_source(
    source: str, name: str = "<mil>", *environment: Any, **named: Any
) -> DiagnosticReport:
    """Parse and cost-check MIL source text (environment as for the class)."""
    return CostChecker(*environment, **named).check_source(source, name=name)
