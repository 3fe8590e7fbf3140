"""Whole-program interprocedural analysis of MIL procedures (``CALLnnn``).

Every earlier pass is intraprocedural: a ``CALL`` is a hole in their facts.
This pass closes the hole. It builds the call graph over all registered
procedures (:mod:`repro.check.callgraph`), computes one
:class:`ProcSummary` per PROC — parameter appends vs. writes, global
writes, a cost estimate from costcheck, and cancellation reachability in
the servicecheck sense — and propagates summaries bottom-up in SCC order,
iterating recursive components to a fixpoint, so the existing codes'
concerns fire *across* call boundaries.

Summaries are memoized in a :class:`SummaryCache` keyed by the procedure's
source :func:`~repro.check.callgraph.fingerprint`: repeated registrations
of unchanged procs are cache hits, and redefining a proc invalidates (and
re-analyzes) exactly its transitive callers.

Diagnostic codes:

========  =============  ==================================================
code      severity       meaning
========  =============  ==================================================
CALL001   error          call target undefined at registration: the name is
                         no command, no registered/pending PROC, no local,
                         and no catalog global
CALL002   error/warning  unbounded recursion: a call-graph cycle whose
                         recursive call is unconditional (error — the
                         runtime guard will raise ``MilRecursionError`` at
                         ``MIL_RECURSION_LIMIT``), or a conditional cycle
                         with no reachable ``cancelpoint()`` (warning — the
                         depth guard is the only backstop)
CALL004   error          a callee writes (non-append) a BAT that another
                         ``PARALLEL`` branch of the caller touches — an
                         interprocedural race invisible to racecheck
========  =============  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.check.absint import interpret
from repro.check.callgraph import CallGraph, CallSite, collect_call_sites, fingerprint
from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.effects import branch_summary, events, names
from repro.check.environment import Environment, MilPass
from repro.check.servicecheck import CHECKPOINT_COMMANDS
from repro.monet.mil import MIL_RECURSION_LIMIT, Parallel, ProcDef, walk

__all__ = [
    "ProcSummary",
    "ProgramChecker",
    "SummaryCache",
]


@dataclass(frozen=True)
class ProcSummary:
    """Transitive effect/cost facts of one procedure.

    ``param_appends``/``param_writes`` are parameter *indices*: callers map
    them back onto their own argument names at each call site. All fields
    are transitive — a proc whose callee's callee deletes from its first
    argument has ``param_writes=(0,)``.
    """

    name: str
    fingerprint: str
    #: Parameter indices the proc (transitively) appends to.
    param_appends: tuple[int, ...] = ()
    #: Parameter indices the proc (transitively) mutates non-append.
    param_writes: tuple[int, ...] = ()
    #: Catalog/global names the proc (transitively) mutates non-append.
    global_writes: tuple[str, ...] = ()
    #: A ``cancelpoint()`` is reachable from the body (servicecheck sense).
    has_cancelpoint: bool = False
    #: costcheck estimate of one call, callee costs included.
    cost: float = 0.0
    #: Distinct procedure callees, in first-call order.
    calls: tuple[str, ...] = ()


@dataclass
class _Entry:
    fingerprint: str
    summary: ProcSummary
    definition: ProcDef


class SummaryCache:
    """Per-proc summary memo keyed by source fingerprint.

    One instance lives on each :class:`repro.monet.mil.MilInterpreter`
    (``program_cache``) so repeated ``define_proc`` calls re-analyze only
    procs whose source actually changed. ``hits``/``misses``/
    ``invalidations`` make the memoization testable.
    """

    def __init__(self) -> None:
        self.entries: dict[str, _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, name: str, fp: str) -> _Entry | None:
        entry = self.entries.get(name)
        if entry is not None and entry.fingerprint == fp:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, name: str, entry: _Entry) -> None:
        self.entries[name] = entry

    def invalidate(self, name: str) -> None:
        if name in self.entries:
            del self.entries[name]
            self.invalidations += 1

    def callers_of(self, name: str) -> list[str]:
        return sorted(
            caller
            for caller, entry in self.entries.items()
            if name in entry.summary.calls
        )


class ProgramChecker(MilPass):
    """Whole-program call-graph analysis (CALL001, CALL002, CALL004).

    ``cache`` is the interpreter's persistent :class:`SummaryCache` (a
    fresh one is used when omitted).
    """

    def __init__(
        self,
        commands: Mapping[str, Any] | Iterable[str] | Environment | None = None,
        signatures: Mapping[str, Any] | None = None,
        globals_names: Iterable[str] = (),
        procedures: Mapping[str, Any] | None = None,
        cache: SummaryCache | None = None,
    ):
        super().__init__(commands, signatures, globals_names, procedures)
        #: the program as this pass has seen it defined so far (the shared
        #: environment stays as the kernel handed it out)
        self._context: dict[str, ProcDef] = dict(self.env.procedures)
        self._cache = cache if cache is not None else SummaryCache()

    # -- entry points ----------------------------------------------------
    def check_program(
        self, statements: list[Any], name: str = "<mil>"
    ) -> DiagnosticReport:
        """Program-check the PROCs of parsed MIL source in define order.

        Definitions are processed sequentially, the way the interpreter's
        choke point sees them: each one against the program as defined so
        far.
        """
        report = DiagnosticReport()
        defs = [s for s in statements if isinstance(s, ProcDef)]
        # seed forward references with their FIRST definition only: a later
        # in-file redefinition stays invisible until its own define step
        for definition in defs:
            self._context.setdefault(definition.name, definition)
        for definition in defs:
            report.extend(self.check_proc(definition, source=name))
        return report

    def _sites(self, definition: ProcDef) -> tuple[CallSite, ...]:
        return self.env.once(
            "call sites", definition, lambda: collect_call_sites(definition)
        )

    def summary(self, name: str) -> ProcSummary | None:
        entry = self._cache.entries.get(name)
        return entry.summary if entry is not None else None

    # -- incremental define ----------------------------------------------
    def _check_definition(
        self, definition: ProcDef, src: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        name = definition.name
        report = DiagnosticReport()
        fp = fingerprint(definition)
        previous = self._cache.entries.get(name)
        redefined = previous is not None and previous.fingerprint != fp
        self._context[name] = definition

        entry = self._cache.lookup(name, fp)
        if entry is None:
            entry = self._compute_entry(name, definition, fp)
            self._cache.store(name, entry)

        self._check_unresolved(definition, entry, report, src)
        self._check_recursion(name, report, src)
        self._check_parallel_races(definition, entry, report, src)
        if redefined:
            self._recompute_callers(name)
        return report

    # -- summary computation ---------------------------------------------
    def _compute_entry(self, name: str, definition: ProcDef, fp: str) -> _Entry:
        summaries = self._resolve_summaries(name)
        summary = self._summarize(definition, fp, summaries)
        # fixpoint for recursion: re-summarize against a view including
        # this proc until the summary is stable (effects are monotone over
        # a finite lattice, so this terminates quickly)
        for _ in range(len(summary.calls) + 2):
            view = {**summaries, name: summary}
            nxt = self._summarize(definition, fp, view)
            if nxt == summary:
                break
            summary = nxt
        return _Entry(fp, summary, definition)

    def _resolve_summaries(self, pending: str) -> dict[str, ProcSummary]:
        """Summaries for the pending proc's callee closure, bottom-up.

        Restricted to procs reachable from the pending definition: eagerly
        summarizing unrelated procs would cache premature entries for
        *callers* of the pending proc (whose summary is excluded here),
        and those degraded entries would survive as cache hits.
        """
        closure: dict[str, ProcDef] = {}
        frontier = [
            site.callee
            for site in self._sites(self._context[pending])
            if site.callee in self._context and site.callee != pending
        ]
        while frontier:
            callee = frontier.pop()
            if callee in closure or callee == pending:
                continue
            closure[callee] = self._context[callee]
            frontier.extend(
                site.callee
                for site in self._sites(self._context[callee])
                if site.callee in self._context
            )
        needed = {
            n: d
            for n, d in closure.items()
            if self._cache.lookup(n, fingerprint(d)) is None
        }
        if needed:
            graph = CallGraph(needed)
            for component in graph.sccs():
                self._summarize_component(component, graph)
        out: dict[str, ProcSummary] = {}
        for n, entry in self._cache.entries.items():
            if n != pending:
                out[n] = entry.summary
        return out

    def _summarize_component(
        self, component: tuple[str, ...], graph: CallGraph
    ) -> None:
        view: dict[str, ProcSummary] = {
            n: e.summary for n, e in self._cache.entries.items()
        }
        fps = {n: fingerprint(graph.procs[n]) for n in component}
        # optimistic bootstrap for cycle members, then iterate to fixpoint
        for n in component:
            view[n] = ProcSummary(name=n, fingerprint=fps[n])
        for _ in range(len(component) + 2):
            changed = False
            for n in component:
                nxt = self._summarize(graph.procs[n], fps[n], view)
                if nxt != view[n]:
                    view[n] = nxt
                    changed = True
            if not changed:
                break
        for n in component:
            self._cache.store(n, _Entry(fps[n], view[n], graph.procs[n]))

    def _summarize(
        self,
        definition: ProcDef,
        fp: str,
        summaries: Mapping[str, ProcSummary],
    ) -> ProcSummary:
        param_index = {p.ident: i for i, p in enumerate(definition.params)}
        locals_ = _locals(definition)

        param_appends: set[int] = set()
        param_writes: set[int] = set()
        global_writes: list[str] = []
        has_cancelpoint = False
        calls: list[str] = []

        def note_write(ident: str, append: bool) -> None:
            if ident in param_index:
                (param_appends if append else param_writes).add(
                    param_index[ident]
                )
            elif ident not in locals_:
                if not append and ident not in global_writes:
                    global_writes.append(ident)

        for site in self._sites(definition):
            func = site.callee
            if func in CHECKPOINT_COMMANDS:
                has_cancelpoint = True
                continue
            callee = summaries.get(func)
            if callee is not None:
                if func not in calls:
                    calls.append(func)
                has_cancelpoint = has_cancelpoint or callee.has_cancelpoint
                for index in callee.param_appends:
                    if index < len(site.arg_names) and site.arg_names[index]:
                        note_write(site.arg_names[index], append=True)
                for index in callee.param_writes:
                    if index < len(site.arg_names) and site.arg_names[index]:
                        note_write(site.arg_names[index], append=False)
                for ident in callee.global_writes:
                    if ident not in global_writes:
                        global_writes.append(ident)
                continue
            if func in self._context:
                # known proc without a summary yet (cycle bootstrap):
                # recorded as a call edge, effects folded in at fixpoint
                if func not in calls:
                    calls.append(func)

        for event in events(definition.body):
            if event.kind in ("append", "write"):
                note_write(event.name, append=event.kind == "append")

        # the callees' costs on top of this body's own (one run per body)
        cost = interpret(self.env, definition).cost + sum(
            summaries[callee].cost for callee in calls if callee in summaries
        )
        return ProcSummary(
            name=definition.name,
            fingerprint=fp,
            param_appends=tuple(sorted(param_appends)),
            param_writes=tuple(sorted(param_writes)),
            global_writes=tuple(global_writes),
            has_cancelpoint=has_cancelpoint,
            cost=cost,
            calls=tuple(calls),
        )

    # -- diagnostics -----------------------------------------------------
    def _check_unresolved(
        self,
        definition: ProcDef,
        entry: _Entry,
        report: DiagnosticReport,
        source: str,
    ) -> None:
        locals_ = _locals(definition)
        for site in self._sites(definition):
            func = site.callee
            if (
                func == "new"
                or func in self.env.commands
                or func in self._context
                or func in locals_
                or func in self.env.globals_names
            ):
                continue
            report.add(
                "CALL001",
                f"PROC {definition.name}: call target {func!r} is undefined "
                f"at registration — no command, procedure, local, or catalog "
                f"name resolves it",
                Severity.ERROR,
                source=source,
                line=site.line,
            )

    def _check_recursion(
        self, name: str, report: DiagnosticReport, source: str
    ) -> None:
        graph = CallGraph(
            {
                n: e.definition
                for n, e in self._cache.entries.items()
            }
        )
        for component in graph.recursive_sccs():
            if name not in component:
                continue
            unconditional: tuple[str, int | None] | None = None
            cancellable = False
            for member in component:
                summary = self._cache.entries[member].summary
                cancellable = cancellable or summary.has_cancelpoint
                for site in graph.call_sites(member):
                    if site.callee in component and not site.conditional:
                        if unconditional is None:
                            unconditional = (member, site.line)
            cycle = " -> ".join(component + (component[0],))
            if unconditional is not None:
                member, line = unconditional
                report.add(
                    "CALL002",
                    f"unbounded recursion: cycle {cycle} recurses "
                    f"unconditionally in PROC {member} — the interpreter "
                    f"will raise MilRecursionError at depth "
                    f"{MIL_RECURSION_LIMIT}",
                    Severity.ERROR,
                    source=source,
                    line=line,
                )
            elif not cancellable:
                site_line = next(
                    (
                        s.line
                        for member in component
                        for s in graph.call_sites(member)
                        if s.callee in component
                    ),
                    None,
                )
                report.add(
                    "CALL002",
                    f"recursion without cancelpoint: cycle {cycle} carries "
                    f"no reachable cancelpoint(), so a cancelled request "
                    f"rides it until the depth guard "
                    f"({MIL_RECURSION_LIMIT}) fires",
                    Severity.WARNING,
                    source=source,
                    line=site_line,
                )

    def _check_parallel_races(
        self,
        definition: ProcDef,
        entry: _Entry,
        report: DiagnosticReport,
        source: str,
    ) -> None:
        """CALL004: callee effects surfaced into PARALLEL branch ownership."""
        sites = [s for s in self._sites(definition) if s.branch is not None]
        for block in walk(definition.body):
            if not isinstance(block, Parallel):
                continue
            branches = block.body
            intra = [branch_summary(branch) for branch in branches]
            # names each branch mutates non-append *via a callee*
            callee_mutations: list[dict[str, str]] = [
                {} for _ in branches
            ]
            for site in sites:
                summary = self.summary(site.callee)
                if summary is None:
                    continue
                if site.branch is None or site.branch >= len(branches):
                    continue
                for index in summary.param_writes:
                    if index < len(site.arg_names) and site.arg_names[index]:
                        callee_mutations[site.branch][
                            site.arg_names[index]
                        ] = site.callee
                for ident in summary.global_writes:
                    callee_mutations[site.branch][ident] = site.callee
            for branch_index, mutations in enumerate(callee_mutations):
                if not mutations:
                    continue
                others_touched: set[str] = set()
                for other_index, (touched, _, assigned) in enumerate(intra):
                    if other_index != branch_index:
                        others_touched |= touched | assigned
                for other_index, other in enumerate(callee_mutations):
                    if other_index != branch_index:
                        others_touched |= set(other)
                for ident in sorted(set(mutations) & others_touched):
                    report.add(
                        "CALL004",
                        f"PROC {definition.name}: callee "
                        f"{mutations[ident]!r} writes BAT {ident!r} inside "
                        f"PARALLEL branch {branch_index + 1} while another "
                        f"branch touches it — an interprocedural race the "
                        f"per-branch ownership analysis cannot see",
                        Severity.ERROR,
                        source=source,
                        line=block.line,
                    )

    def _recompute_callers(self, name: str) -> None:
        """Refresh transitive callers' summaries after a redefinition."""
        seen: set[str] = set()
        frontier = self._cache.callers_of(name)
        while frontier:
            caller = frontier.pop()
            if caller in seen or caller not in self._cache.entries:
                continue
            seen.add(caller)
            definition = self._cache.entries[caller].definition
            self._cache.invalidate(caller)
            entry = self._compute_entry(
                caller, definition, fingerprint(definition)
            )
            self._cache.store(caller, entry)
            frontier.extend(self._cache.callers_of(caller))


def _locals(definition: ProcDef) -> set[str]:
    """Parameters plus every name the body declares anywhere."""
    return {p.ident for p in definition.params} | names(
        definition.body, ("declare",)
    )
