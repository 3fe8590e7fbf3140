"""Rewriting Moa expressions into MIL plans.

"For each Moa operation, there is a program written using an interface
language understood by the physical layer. In our system, a Moa query is
rewritten into Monet Interface Language (MIL)." — §3 of the paper.

:class:`MoaCompiler` implements that rewriting for the BAT-representable
algebra subset (pipelines of ``Select``/``Map``/``Aggregate``/``SetOp`` over
sets of atomics). The compiler emits a MIL ``PROC`` whose body is a chain of
bulk kernel commands, registers it with a kernel, and executes it — the same
compile-then-ship pathway the Cobra executor uses for feature-level
predicates, keeping bulk work out of the Python interpreter loop.

The bulk commands themselves (Monet's multiplexed operators, ``[+]`` and
friends, here spelled ``mmap``/``mselect``/``maggr``) are provided by
:class:`BulkModule`.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Any

import numpy as np

from repro.errors import MoaError
from repro.moa.algebra import Aggregate, Arith, Cmp, Const, Expr, Map, Select, SetOp, Var
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.module import MonetModule, command

__all__ = ["BulkModule", "MoaCompiler", "MilPlan", "builtin_moa_plans"]

_OPS_CMP = {"=", "!=", "<", "<=", ">", ">="}
_OPS_ARITH = {"+", "-", "*", "/"}


class BulkModule(MonetModule):
    """Physical-level bulk operators backing the Moa→MIL rewriting.

    These mirror Monet's multiplexed operators: each consumes and produces
    whole BATs using vectorized numpy kernels on the tail column.
    """

    name = "bulk"

    @command(args=("BAT", "str", "any"), returns="BAT")
    def mselect(self, bat: BAT, op: str, value: Any) -> BAT:
        """Keep associations whose tail satisfies ``tail <op> value``."""
        if op not in _OPS_CMP:
            raise MoaError(f"mselect: unknown comparison {op!r}")
        tails = bat.tail_array()
        heads = bat.heads()
        if tails.dtype == object:
            mask = [_compare(op, t, value) for t in tails]
        else:
            mask = _vector_compare(op, tails, value)
        out = BAT("oid" if bat.head_type == "void" else bat.head_type, bat.tail_type)
        out.insert_bulk(
            list(itertools.compress(heads, mask)),
            list(itertools.compress(bat.tails(), mask)),
        )
        return out

    @command(args=("BAT", "str", "dbl"), returns="BAT")
    def mmap(self, bat: BAT, op: str, value: Any) -> BAT:
        """Elementwise arithmetic on the tail column (Monet ``[+]`` style)."""
        if op not in _OPS_ARITH:
            raise MoaError(f"mmap: unknown arithmetic op {op!r}")
        tails = bat.tail_array()
        if tails.dtype == object:
            raise MoaError("mmap needs a numeric tail column")
        result = _vector_arith(op, tails.astype(np.float64), value)
        out = BAT("oid" if bat.head_type == "void" else bat.head_type, "dbl")
        out.insert_bulk(bat.heads(), result.tolist())
        return out

    @command(args=("BAT", "str"), returns="any")
    def maggr(self, bat: BAT, kind: str) -> Any:
        """Aggregate the tail column: count/sum/min/max/avg."""
        if kind == "count":
            return bat.count()
        if kind == "sum":
            return bat.sum()
        if kind == "min":
            return bat.min()
        if kind == "max":
            return bat.max()
        if kind == "avg":
            return bat.avg()
        raise MoaError(f"maggr: unknown aggregate {kind!r}")

    @command(args=("str", "BAT", "BAT"), returns="BAT")
    def msetop(self, op: str, left: BAT, right: BAT) -> BAT:
        """Head-based set combination of two BATs."""
        if op == "union":
            return left.kunion(right)
        if op == "diff":
            return left.kdiff(right)
        if op == "intersect":
            return left.semijoin(right)
        raise MoaError(f"msetop: unknown set op {op!r}")


def _compare(op: str, a: Any, b: Any) -> bool:
    table = {
        "=": a == b,
        "!=": a != b,
        "<": a < b,
        "<=": a <= b,
        ">": a > b,
        ">=": a >= b,
    }
    return bool(table[op])


def _vector_compare(op: str, tails: np.ndarray, value: Any) -> np.ndarray:
    table = {
        "=": tails == value,
        "!=": tails != value,
        "<": tails < value,
        "<=": tails <= value,
        ">": tails > value,
        ">=": tails >= value,
    }
    return table[op]


def _vector_arith(op: str, tails: np.ndarray, value: float) -> np.ndarray:
    table = {
        "+": tails + value,
        "-": tails - value,
        "*": tails * value,
        "/": tails / value,
    }
    return table[op]


@dataclass(frozen=True)
class MilPlan:
    """A compiled plan: the emitted MIL source and its entry procedure."""

    proc_name: str
    mil_source: str
    input_names: tuple[str, ...]
    #: Cost-model estimate of the source Moa expression, in abstract work
    #: units (``None`` when checking is off).
    estimated_cost: float | None = None


class MoaCompiler:
    """Compiles the BAT-representable Moa subset into MIL procedures.

    Supported shapes (composable): ``Var`` leaves naming input BATs,
    ``Select(var, Cmp(op, Var(var), Const))``, ``Map(var, Arith(op,
    Var(var), Const))``, ``Aggregate(kind, sub)``, and ``SetOp`` over two
    sub-plans. Anything else falls outside the compilable subset and raises
    :class:`MoaError` — the Cobra executor then evaluates it at the logical
    level instead.
    """

    def __init__(
        self,
        kernel: MonetKernel,
        extensions: Any = None,
        check: str = "error",
    ):
        # imported lazily: repro.check.moacheck imports repro.moa.algebra
        from repro.check.diagnostics import CheckMode

        self._check = CheckMode.of(check)
        self._kernel = kernel
        if not kernel.has_command("mselect"):
            kernel.load_module(BulkModule())
        self._counter = 0
        self._extensions = extensions
        #: Moa-level diagnostics collected across compilations.
        self.diagnostics: list[Any] = []

    def compile(self, expr: Expr) -> MilPlan:
        """Emit a MIL PROC computing ``expr`` and register it on the kernel.

        Before rewriting, the expression is statically validated by
        :mod:`repro.check.moacheck` (free variables are allowed — they
        become the plan's input BATs).
        """
        estimated_cost = self._precheck(expr)
        inputs: list[str] = []
        body_lines: list[str] = []
        temp_counter = [0]

        def emit(sub: Expr) -> str:
            match sub:
                case Var(name=name):
                    if name not in inputs:
                        inputs.append(name)
                    return name
                case Select(
                    var=var,
                    pred=Cmp(op=op, left=Var(name=lv), right=Const(value=value)),
                    source=source,
                ) if lv == var:
                    src = emit(source)
                    tmp = _fresh(temp_counter)
                    body_lines.append(self._emit_select(tmp, src, op, value))
                    return tmp
                case Map(
                    var=var,
                    body=Arith(op=op, left=Var(name=lv), right=Const(value=value)),
                    source=source,
                ) if lv == var:
                    src = emit(source)
                    tmp = _fresh(temp_counter)
                    body_lines.append(
                        f"VAR {tmp} := mmap({src}, {_quote(op)}, {_literal(value)});"
                    )
                    return tmp
                case Aggregate(kind=kind, source=source):
                    src = emit(source)
                    tmp = _fresh(temp_counter)
                    body_lines.append(f"VAR {tmp} := maggr({src}, {_quote(kind)});")
                    return tmp
                case SetOp(op=op, left=left, right=right):
                    lsrc = emit(left)
                    rsrc = emit(right)
                    tmp = _fresh(temp_counter)
                    body_lines.append(
                        f"VAR {tmp} := msetop({_quote(op)}, {lsrc}, {rsrc});"
                    )
                    return tmp
                case _:
                    raise MoaError(
                        f"expression node {type(sub).__name__} is outside the "
                        f"MIL-compilable Moa subset"
                    )

        result_var = emit(expr)
        proc_name = f"moaPlan{self._counter}"
        self._counter += 1
        params = ", ".join(f"BAT[void,dbl] {name}" for name in inputs)
        body = "\n".join(f"  {line}" for line in body_lines)
        source = (
            f"PROC {proc_name}({params}) : any := {{\n"
            f"{body}\n"
            f"  RETURN {result_var};\n"
            f"}}\n"
        )
        self._validate(expr, source, proc_name, inputs)
        self._kernel.run(source)
        return MilPlan(proc_name, source, tuple(inputs), estimated_cost)

    def _emit_select(self, tmp: str, src: str, op: str, value: Any) -> str:
        """Emit one ``mselect`` step. Overridable so translation-validation
        tests can deliberately mis-emit and watch EQ002 catch it."""
        return f"VAR {tmp} := mselect({src}, {_quote(op)}, {_literal(value)});"

    def _validate(
        self, expr: Expr, source: str, proc_name: str, inputs: list[str]
    ) -> None:
        """Translation validation (EQ001/EQ002/EQ003); runs before the plan
        is registered, so a non-equivalent plan never reaches the kernel."""
        if not self._check.checks:
            return
        from repro.check.equivcheck import validate_translation
        from repro.errors import MoaCheckError

        report = validate_translation(
            expr, source, proc_name, inputs, source="<moa-plan>"
        )
        self.diagnostics.extend(report)
        if self._check.raises:
            report.raise_if_errors("Moa plan translation", MoaCheckError)

    def _precheck(self, expr: Expr) -> float | None:
        """Static checks of ``expr``; returns its estimated cost (``None``
        when checking is off)."""
        if not self._check.checks:
            return None
        # imported lazily: repro.check.moacheck imports repro.moa.algebra
        from repro.check.absint import MoaInterpreter
        from repro.check.costcheck import check_moa_cost
        from repro.check.flowcheck import check_moa_flow
        from repro.check.moacheck import MoaChecker
        from repro.errors import MoaCheckError

        report = MoaChecker(self._extensions, allow_free_vars=True).check(
            expr, source="<moa-plan>"
        )
        run = MoaInterpreter().run(expr)
        report.extend(check_moa_flow(run, source="<moa-plan>"))
        report.extend(check_moa_cost(run, source="<moa-plan>"))
        self.diagnostics.extend(report)
        if self._check.raises:
            report.raise_if_errors("Moa plan", MoaCheckError)
        return run.cost

    def execute(self, plan: MilPlan, **inputs: BAT) -> Any:
        """Run a compiled plan with the named input BATs."""
        missing = [name for name in plan.input_names if name not in inputs]
        if missing:
            raise MoaError(f"plan {plan.proc_name} is missing inputs {missing}")
        args = [inputs[name] for name in plan.input_names]
        return self._kernel.call(plan.proc_name, args)

    def run(self, expr: Expr, **inputs: BAT) -> Any:
        """Compile and execute in one step."""
        return self.execute(self.compile(expr), **inputs)


def _fresh(counter: list[int]) -> str:
    name = f"t{counter[0]}"
    counter[0] += 1
    return name


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _literal(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _quote(value)
    return repr(float(value)) if isinstance(value, float) else repr(value)


def builtin_moa_plans() -> dict[str, Expr]:
    """The repository's built-in Moa plans, by name.

    Every plan here must compile to an EQ001-certified MIL procedure —
    ``python -m repro.check`` (the built-in run) and the equivcheck test suite
    enforce it. ``excitementGate`` is the Fig. 4 ``parallelHmm`` path: the
    selection over the excitement feature BAT whose survivors are
    quantized into the observation sequence fed to the parallel HMM
    evaluation PROC.
    """
    return {
        # Fig. 4 path: gate the excitement feature before quantize -> hmmP
        "excitementGate": Select(
            "e", Cmp(">", Var("e"), Const(0.6)), Var("excitement")
        ),
        # normalized speed delta used by the overtaking detector
        "speedDelta": Map(
            "s", Arith("-", Var("s"), Const(0.5)), Var("speed")
        ),
        # mean excitement over a segment (highlight ranking)
        "avgExcitement": Aggregate("avg", Var("excitement")),
        # segments interesting on either axis: loud crowd or hard braking
        "interestingSegments": SetOp(
            "union",
            Select("e", Cmp(">=", Var("e"), Const(0.8)), Var("excitement")),
            Select("b", Cmp("<", Var("b"), Const(0.2)), Var("brake")),
        ),
        # stacked gate: two commuting selections then a rescale
        "replayCandidates": Map(
            "x",
            Arith("*", Var("x"), Const(100.0)),
            Select(
                "e",
                Cmp("<=", Var("e"), Const(0.95)),
                Select("e", Cmp(">", Var("e"), Const(0.6)), Var("excitement")),
            ),
        ),
    }
