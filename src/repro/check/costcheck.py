"""Plan-level cost rules: cardinality × selectivity × cost.

Where :mod:`repro.check.flowcheck` reads the *value* facts of the shared
abstract run (:mod:`repro.check.absint`), ``costcheck`` reads its *work*
facts — the cost component, kept in one flat environment that ``IF``
branches copy and join and a ``WHILE`` body updates in place. Every value
carries

* *cardinality* — an estimated row count.  BAT-typed procedure parameters
  seed at :data:`DEFAULT_CARD` rows (or measured :class:`BatStats` when the
  caller has live BATs); ``new()`` allocations seed small.
* *selectivity* — the fraction of rows a selection keeps.  When the
  interval facts are available (feature streams seed at ``[0, 1]``) the
  predicate's overlap with the value interval gives the estimate; otherwise
  :data:`DEFAULT_SELECTIVITY` applies.
* *cost* — abstract work units: one unit per command dispatch plus one per
  BAT row consumed; joins multiply when no keyed access exists; ``WHILE``
  bodies multiply by :data:`LOOP_TRIPS`; ``PARALLEL`` costs the longest
  branch plus :data:`BRANCH_OVERHEAD` per branch.

Alongside cardinalities the run tracks physical access facts —
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
the ``cost`` of a procedure's run (programcheck's summaries),
:func:`check_moa_cost` and the ``cost`` of a
:class:`~repro.check.absint.MoaInterpreter` run for Moa expression trees
(used by :class:`repro.moa.rewrite.MoaCompiler`),
:func:`estimate_extraction_cost` for the Cobra preprocessor's method
choice, and :func:`estimate_model_cost` for DBN registration.
"""

from __future__ import annotations

from typing import Any

from repro.check.absint import (
    BRANCH_OVERHEAD,
    DEFAULT_CARD,
    DEFAULT_SELECTIVITY,
    LOOP_TRIPS,
    CostVal,
    Fanout,
    InterpretedPass,
    Interpreter,
    Invoked,
    Loop,
    MoaInterpreter,
    NestedSelect,
    Resolved,
    Stored,
    Value,
    WideJoin,
)
from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.effects import (
    ACCESSES,
    APPEND_METHODS,
    IMPURE_COMMANDS,
    MUTATIONS,
    WRITE_METHODS,
    names,
)
from repro.monet.mil import Assign, Call, ExprStmt, MethodCall, Name, VarDecl

__all__ = [
    "BRANCH_OVERHEAD",
    "CostChecker",
    "DEFAULT_CARD",
    "DEFAULT_SELECTIVITY",
    "LOOP_TRIPS",
    "QUALITY_TOLERANCE",
    "check_moa_cost",
    "estimate_extraction_cost",
    "estimate_model_cost",
]

#: The preprocessor prefers cheaper methods within this quality band.
QUALITY_TOLERANCE = 0.2

_SORTED_SCAN = (
    "value scan over a tail-sorted BAT; a sorted (binary-search) access path "
    "exists and costs O(log n) instead of O(n)"
)


class CostChecker(InterpretedPass):
    """Work rules over the shared run; the run's ``cost`` is the estimate
    (``interpret(env, definition, stats=...)`` for measured statistics)."""

    def findings(self, run: Interpreter) -> DiagnosticReport:
        report = DiagnosticReport()
        #: select-result ident -> (chain length, first select line)
        chains: dict[str, tuple[int, int | None]] = {}
        copies: list[tuple[str, str, int | None]] = []
        mutated: set[str] = set()
        sliced: set[str] = set()
        for fact in run.facts:
            match fact:
                case Loop(node=node):
                    self._loop_invariants(node.body, report)
                case Stored(ident=ident, node=node, value=value, line=line):
                    source = _select_source(node)
                    if source is not None:
                        length, first = chains.get(source, (0, line))
                        chains[ident] = (length + 1, first)
                        if length + 1 == 2:
                            report.add(
                                "PERF002",
                                "chain of 2 selections materializes an "
                                "intermediate BAT at every step; a fused "
                                "selection would scan the input once",
                                Severity.WARNING,
                                line=first,
                                end_line=line,
                            )
                    if (
                        isinstance(node, MethodCall)
                        and node.method == "copy"
                        and isinstance(node.target, Name)
                        and value.cost.degree >= 1
                    ):
                        copies.append((ident, node.target.ident, line))
                case Invoked(node=node, receiver=Value(cost=receiver), args=args) if (
                    receiver.bat
                ):
                    if isinstance(node.target, Name):
                        if node.method in APPEND_METHODS | WRITE_METHODS:
                            mutated.add(node.target.ident)
                        elif node.method == "slice":
                            sliced.add(node.target.ident)
                    if node.method == "select" and receiver.sorted_tail:
                        report.add("PERF005", _SORTED_SCAN, Severity.WARNING, line=node.line)
                    other = args[0].cost if args else CostVal()
                    if (
                        node.method == "join"
                        and other.bat
                        and not other.keyed_head
                        and receiver.degree >= 1
                        and other.degree >= 1
                    ):
                        rows = receiver.rows
                        report.add(
                            "PERF001",
                            f"nested-loop join: the inner BAT has no keyed "
                            f"(dense/void) head, so every one of ~{rows:.0f} "
                            f"probes scans ~{other.rows:.0f} rows "
                            f"(~{rows * other.rows:.0f} work); key or mark "
                            f"the inner BAT first",
                            Severity.WARNING,
                            line=node.line,
                        )
                case Resolved(node=node, args=[Value(cost=source), *_]) if (
                    node.func == "mselect" and source.bat and source.sorted_tail
                ):
                    report.add("PERF005", _SORTED_SCAN, Severity.WARNING, line=node.line)
                case Fanout(node=node, costs=costs):
                    n, sequential = len(costs), sum(costs)
                    fan_out = max(costs, default=0.0) + BRANCH_OVERHEAD * n
                    if n >= 2 and fan_out >= sequential:
                        report.add(
                            "PERF006",
                            f"fan-out plan over {n} branches costs ~{fan_out:.0f} "
                            f"(longest branch + {BRANCH_OVERHEAD:g}/branch "
                            f"dispatch) but the shard-local sequential plan "
                            f"costs ~{sequential:.0f}; the branches are too "
                            f"cheap to ship",
                            Severity.WARNING,
                            line=node.line,
                        )
        for target, source, line in copies:
            if not (target in mutated or target in sliced or source in mutated):
                report.add(
                    "PERF004",
                    f"{target!r} fully materializes a copy of {source!r} but "
                    f"is never sliced or mutated; read the source (or a "
                    f"slice) directly",
                    Severity.WARNING,
                    line=line,
                )
        return report

    def _loop_invariants(self, body: list[Any], report: DiagnosticReport) -> None:
        """PERF003: top-level command calls none of whose inputs change."""
        assigned = names(body, MUTATIONS)
        for statement in body:
            match statement:
                case VarDecl(value=expr) | Assign(value=expr) | ExprStmt(expr=expr):
                    pass
                case _:
                    continue
            if not isinstance(expr, Call):
                continue
            if expr.func not in self.env.signatures or expr.func in IMPURE_COMMANDS:
                continue
            if names(expr, ACCESSES) & assigned:
                continue
            report.add(
                "PERF003",
                f"call to {expr.func!r} is loop-invariant: none of its "
                f"inputs change inside the WHILE body; hoist it out of "
                f"the loop",
                Severity.WARNING,
                line=getattr(statement, "line", None) or expr.line,
            )


def _select_source(value: Any) -> str | None:
    """The source ident when ``value`` is a selection over a variable."""
    if isinstance(value, Call) and value.func == "mselect" and value.args:
        source = value.args[0]
    elif isinstance(value, MethodCall) and value.method == "select":
        source = value.target
    else:
        return None
    return source.ident if isinstance(source, Name) else None


# ---------------------------------------------------------------------------
# Moa expression cost model
# ---------------------------------------------------------------------------


def check_moa_cost(run: MoaInterpreter, source: str = "<moa>") -> DiagnosticReport:
    """Moa-level PERF lints of an expression's run: nested selections and
    nested-loop joins. The run's ``cost`` is the plan's estimate."""
    report = DiagnosticReport()
    for fact in run.facts:
        if isinstance(fact, NestedSelect):
            report.add(
                "PERF002",
                "nested selections materialize an intermediate at every "
                "level; fuse the predicates into one pass",
                Severity.WARNING,
                source=source,
            )
        elif isinstance(fact, WideJoin):
            report.add(
                "PERF001",
                f"nested-loop join over two unbounded inputs (~{fact.work:.0f} "
                f"work); restrict one side before joining",
                Severity.WARNING,
                source=source,
            )
    return report


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
