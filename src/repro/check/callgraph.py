"""Call-graph construction over registered MIL procedures.

The intraprocedural passes treat a ``CALL`` as a signature-shaped hole:
flowcheck forgets what the callee returns, racecheck cannot see what the
callee mutates. This module supplies the whole-program structure those
passes lack:

* :func:`collect_call_sites` — every :class:`~repro.monet.mil.Call` in a
  procedure body, annotated with its line, whether it is *conditional*
  (lexically under an ``IF``), and which ``PARALLEL`` branch (if any) owns
  it;
* :func:`fingerprint` — a stable hash of a ``ProcDef``'s canonical form, the
  cache key for per-proc summaries (redefining a proc changes the
  fingerprint and invalidates the memoized analysis);
* :class:`CallGraph` — proc → callee edges with reverse edges, unresolved
  targets, and bottom-up SCC ordering (iterative Tarjan), so summary
  propagation visits callees before callers and recognizes recursion as a
  non-trivial SCC.

:mod:`repro.check.programcheck` consumes all three to compute per-PROC
summaries and the ``CALLnnn`` diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from typing import Any, Iterable, Mapping

from repro.check.effects import events
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

__all__ = [
    "CallGraph",
    "CallSite",
    "collect_call_sites",
    "fingerprint",
]


@dataclass(frozen=True)
class CallSite:
    """One ``Call`` in a procedure body, with its structural context."""

    caller: str
    callee: str
    line: int | None
    #: Positional arguments that are plain names (``None`` for computed
    #: arguments) — how parameter effect summaries map back to the
    #: caller's variables.
    arg_names: tuple[str | None, ...]
    #: Lexically under an ``IF``: the call may not execute on every run.
    conditional: bool
    #: Index of the owning ``PARALLEL`` branch, ``None`` outside fan-outs.
    branch: int | None


def collect_call_sites(definition: ProcDef | MilProcedure) -> tuple[CallSite, ...]:
    """Every call expression in a procedure, in source order."""
    if isinstance(definition, MilProcedure):
        definition = definition.definition
    sites: list[CallSite] = []

    def visit(body: list[Any], conditional: bool, branch: int | None) -> None:
        for statement in body:
            match statement:
                case If(cond=cond, then=then, orelse=orelse):
                    record(cond, conditional, branch)
                    visit(then + orelse, True, branch)
                case While(cond=cond, body=inner):
                    record(cond, conditional, branch)
                    visit(inner, conditional, branch)
                case Parallel(body=inner):
                    for index, sub in enumerate(inner):
                        visit([sub], conditional, index)
                case _:
                    record(statement, conditional, branch)

    def record(code: Any, conditional: bool, branch: int | None) -> None:
        for event in events(code):
            if event.kind in ("call", "commit"):
                call = event.node
                arg_names = tuple(
                    a.ident if isinstance(a, Name) else None for a in call.args
                )
                sites.append(
                    CallSite(
                        definition.name,
                        call.func,
                        call.line,
                        arg_names,
                        conditional,
                        branch,
                    )
                )

    visit(definition.body, False, None)
    return tuple(sites)


def fingerprint(definition: ProcDef | MilProcedure) -> str:
    """Stable hash of a procedure's canonical form (the summary cache key)."""
    if isinstance(definition, MilProcedure):
        definition = definition.definition
    digest = hashlib.sha256()
    digest.update(_canonical(definition).encode("utf-8"))
    return digest.hexdigest()[:16]


def _canonical(node: Any) -> str:
    """Deterministic structural dump, line numbers excluded so a pure
    re-layout of the same procedure keeps its cached summary."""
    match node:
        case ProcDef(name=name, params=params, return_type=ret, body=body):
            inner = ";".join(_canonical(s) for s in body)
            sig = ",".join(f"{p.type_name} {p.ident}" for p in params)
            return f"proc {name}({sig}):{ret}{{{inner}}}"
        case VarDecl(ident=ident, value=value):
            return f"var {ident}={_canonical(value)}"
        case Assign(ident=ident, value=value):
            return f"{ident}={_canonical(value)}"
        case ExprStmt(expr=expr):
            return _canonical(expr)
        case Return(expr=expr):
            return f"return {_canonical(expr)}"
        case If(cond=cond, then=then, orelse=orelse):
            t = ";".join(_canonical(s) for s in then)
            e = ";".join(_canonical(s) for s in orelse)
            return f"if({_canonical(cond)}){{{t}}}else{{{e}}}"
        case While(cond=cond, body=body):
            b = ";".join(_canonical(s) for s in body)
            return f"while({_canonical(cond)}){{{b}}}"
        case Parallel(body=body):
            b = ";".join(_canonical(s) for s in body)
            return f"parallel{{{b}}}"
        case Call(func=func, args=args):
            a = ",".join(_canonical(x) for x in args)
            return f"{func}({a})"
        case MethodCall(target=target, method=method, args=args):
            a = ",".join(_canonical(x) for x in args)
            return f"{_canonical(target)}.{method}({a})"
        case BinOp(op=op, left=left, right=right):
            return f"({_canonical(left)}{op}{_canonical(right)})"
        case UnaryOp(op=op, operand=operand):
            return f"({op}{_canonical(operand)})"
        case Name(ident=ident):
            return ident
        case Literal(value=value):
            return repr(value)
        case None:
            return "~"
        case _:
            return repr(node)


class CallGraph:
    """Proc → callee edges over a set of MIL procedure definitions."""

    def __init__(self, procs: Mapping[str, ProcDef | MilProcedure]):
        self.procs: dict[str, ProcDef] = {
            name: (p.definition if isinstance(p, MilProcedure) else p)
            for name, p in procs.items()
        }
        self.sites: dict[str, tuple[CallSite, ...]] = {
            name: collect_call_sites(definition)
            for name, definition in self.procs.items()
        }
        self.edges: dict[str, tuple[str, ...]] = {
            name: tuple(
                dict.fromkeys(
                    s.callee for s in sites if s.callee in self.procs
                )
            )
            for name, sites in self.sites.items()
        }
        reverse: dict[str, list[str]] = {name: [] for name in self.procs}
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse[callee].append(caller)
        self.reverse: dict[str, tuple[str, ...]] = {
            name: tuple(callers) for name, callers in reverse.items()
        }

    def callers_of(self, name: str) -> tuple[str, ...]:
        return self.reverse.get(name, ())

    def call_sites(self, name: str) -> tuple[CallSite, ...]:
        return self.sites.get(name, ())

    def sccs(self) -> list[tuple[str, ...]]:
        """Strongly connected components in bottom-up (callee-first) order.

        Iterative Tarjan over the sorted proc names, so the ordering is
        deterministic. Tarjan emits each SCC only after every SCC it calls
        into has been emitted, which is exactly the order summary
        propagation needs.
        """
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[tuple[str, ...]] = []
        counter = [0]

        for root in sorted(self.procs):
            if root in index:
                continue
            # frames: (node, iterator over callees)
            work: list[tuple[str, Iterable[str]]] = [(root, iter(self.edges[root]))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, callees = work[-1]
                advanced = False
                for callee in callees:
                    if callee not in index:
                        index[callee] = lowlink[callee] = counter[0]
                        counter[0] += 1
                        stack.append(callee)
                        on_stack.add(callee)
                        work.append((callee, iter(self.edges[callee])))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[node] = min(lowlink[node], index[callee])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(tuple(sorted(component)))
        return sccs

    def recursive_sccs(self) -> list[tuple[str, ...]]:
        """SCCs that contain a cycle (mutual recursion, or a self-edge)."""
        out: list[tuple[str, ...]] = []
        for component in self.sccs():
            if len(component) > 1:
                out.append(component)
            else:
                (name,) = component
                if name in self.edges.get(name, ()):
                    out.append(component)
        return out
