"""Purity/effect inference and certified fusion regions over MIL plans.

ROADMAP item 1 wants MIL plans compiled into fused numpy pipelines.  Fusing
is only sound across statements that are *pure* with respect to the kernel's
shared state: no catalog commits, no I/O, no scheduler interaction.  This
pass infers a per-statement effect summary

    reads × writes × appends × allocates × commits × impure-calls

and partitions every procedure body into **fusion regions** — maximal runs
of pure statements in straight-line code that contain at least one
BAT-level computation.  Control statements (``IF``/``WHILE``/``PARALLEL``)
are region barriers whose bodies are partitioned recursively.

Regions inside ``PARALLEL`` branches are *certified* only when the
racecheck ownership facts hold: concurrent appends (``insert`` /
``insert_bulk``) commute under the BAT lock, but a region touching a name
that another branch mutates non-append (or assigns as a scalar) cannot be
fused without observing the race.  Top-level regions are always certified —
the interpreter is single-threaded outside ``PARALLEL``.

The partition is serialized as a :class:`FusionPlan` artifact and attached
to every compiled :class:`repro.monet.mil.MilProcedure` (and, through
:class:`repro.moa.rewrite.MoaCompiler`, to every :class:`MilPlan`).  The
PR 7 fused-kernel compiler consumes exactly these regions.

Diagnostic codes (all advisory — they never fail ``--strict``):

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
FUSE001   info      certified fusion region of >= 2 statements
FUSE002   warning   a single impure statement splits two fusible regions
                    (hoisting it would enlarge the fused span)
FUSE003   warning   fusible statements left uncertified by a cross-branch
                    ownership conflict
========  ========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.effects import CATALOG_COMMANDS, events, shared_events
from repro.check.environment import MilPass, definition_of
from repro.monet.mil import If, MethodCall, MilProcedure, Parallel, ProcDef, While, walk

__all__ = [
    "Effects",
    "FuseChecker",
    "FusionPlan",
    "FusionRegion",
    "IMPURE_COMMANDS",
]

#: Kernel commands with effects beyond their return value: scheduler state,
#: stdout, catalog allocation/commit, and cancellation checkpoints.
IMPURE_COMMANDS = frozenset(
    {"threadcnt", "print", "bat", "persist", "drop", "cancelpoint"}
)


@dataclass(frozen=True)
class Effects:
    """Effect summary of one MIL statement (straight-line, non-control)."""

    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    appends: tuple[str, ...] = ()
    allocates: bool = False
    commits: bool = False
    #: Names of impure calls (commands, procedures, unknowns) in the stmt.
    impure: tuple[str, ...] = ()
    #: True when the statement computes on BATs (fusion-worthy work).
    bat_compute: bool = False

    @property
    def pure(self) -> bool:
        """Safe to reorder/fuse: no commits, no impure calls."""
        return not self.commits and not self.impure

    @property
    def touched(self) -> frozenset[str]:
        return frozenset(self.reads) | frozenset(self.writes) | frozenset(
            self.appends
        )


@dataclass(frozen=True)
class FusionRegion:
    """One maximal fusible run of statements."""

    index: int
    #: Dotted location: ``body``, ``body.while@12``, ``body.parallel@4[2]``.
    path: str
    start_line: int
    end_line: int
    statements: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    allocates: bool
    certified: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "path": self.path,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "statements": self.statements,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "allocates": self.allocates,
            "certified": self.certified,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FusionRegion":
        return cls(
            index=int(data["index"]),
            path=str(data["path"]),
            start_line=int(data["start_line"]),
            end_line=int(data["end_line"]),
            statements=int(data["statements"]),
            inputs=tuple(data["inputs"]),
            outputs=tuple(data["outputs"]),
            allocates=bool(data["allocates"]),
            certified=bool(data["certified"]),
            reason=str(data.get("reason", "")),
        )


@dataclass(frozen=True)
class FusionPlan:
    """The fusion partition of one procedure — a serializable artifact."""

    proc: str
    regions: tuple[FusionRegion, ...] = ()

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def certified(self) -> tuple[FusionRegion, ...]:
        return tuple(r for r in self.regions if r.certified)

    def to_dict(self) -> dict:
        return {
            "artifact": "repro.fusionplan/1",
            "proc": self.proc,
            "regions": [r.to_dict() for r in self.regions],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FusionPlan":
        return cls(
            proc=str(data["proc"]),
            regions=tuple(
                FusionRegion.from_dict(r) for r in data.get("regions", ())
            ),
        )


@dataclass
class _Draft:
    """Accumulator for the fusible run currently being grown."""

    stmts: list[tuple[Any, Effects]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.stmts)


class FuseChecker(MilPass):
    """Effect inference + fusion-region partitioning of MIL programs.

    The partition of a body is memoised on the environment, so flowcheck's
    FLOW002 gate, shardcheck's SHARD004 and this pass's own report share
    one computation per definition.
    """

    # -- entry points ----------------------------------------------------
    def _check_definition(
        self, definition: ProcDef, label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        return self._analyze(definition.body, definition.name, label)[1]

    def _check_toplevel(
        self, statements: list[Any], label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        return self._analyze(statements, "<toplevel>", label)[1]

    def analyze_proc(
        self, definition: ProcDef | MilProcedure
    ) -> FusionPlan:
        plan, _ = self.analyze_with_report(definition)
        return plan

    def analyze_with_report(
        self,
        definition: ProcDef | MilProcedure,
        source: str | None = None,
    ) -> tuple[FusionPlan, DiagnosticReport]:
        """Partition one procedure; returns the plan and its diagnostics."""
        definition = definition_of(definition)
        return self._analyze(
            definition.body, definition.name, source or definition.name
        )

    def certified_spans(self, body: list[Any]) -> tuple[tuple[int, int], ...]:
        """Line spans of certified regions (flowcheck's FLOW002 gate)."""
        plan, _ = self._analyze(body, "<body>", "<body>")
        return tuple(
            (r.start_line, r.end_line) for r in plan.regions if r.certified
        )

    # -- effect inference ------------------------------------------------
    def infer_effects(self, statement: Any) -> Effects:
        """Effect summary of one non-control statement."""
        if isinstance(statement, (If, While, Parallel, ProcDef)):
            # control statements are barriers, never summarized here
            return Effects(impure=("<control>",))
        reads: list[str] = []
        writes: list[str] = []
        appends: list[str] = []
        impure: list[str] = []
        flags = {
            "alloc": False,
            "commit": False,
            "bat": any(isinstance(n, MethodCall) for n in walk(statement)),
        }

        def note(names: list[str], ident: str) -> None:
            if ident not in names:
                names.append(ident)

        for event in events(statement):
            match event.kind:
                case "read":
                    note(reads, event.name)
                case "append":
                    note(reads, event.name)
                    note(appends, event.name)
                case "write":
                    note(reads, event.name)
                    note(writes, event.name)
                case "declare" | "assign":
                    note(writes, event.name)
                case "commit" | "call":
                    self._classify_call(event.node.func, flags, impure)
        return Effects(
            reads=tuple(reads),
            writes=tuple(writes),
            appends=tuple(appends),
            allocates=flags["alloc"],
            commits=flags["commit"],
            impure=tuple(impure),
            bat_compute=flags["bat"],
        )

    def _classify_call(
        self, func: str, flags: dict[str, bool], impure: list[str]
    ) -> None:
        if func == "new":
            flags["alloc"] = True
            flags["bat"] = True
            return
        if func in CATALOG_COMMANDS:
            flags["commit"] = True
            flags["bat"] = True
            impure.append(func)
            return
        if func in IMPURE_COMMANDS:
            impure.append(func)
            return
        signature = self.env.signatures.get(func)
        if signature is not None:
            # a declared command is pure unless listed above; it touches
            # BATs when its signature mentions a BAT column
            mentions_bat = any(
                "BAT" in str(a) for a in (signature.args or ())
            ) or "BAT" in str(signature.returns or "")
            flags["bat"] = flags["bat"] or mentions_bat
            return
        # procedure calls and unknown commands: conservatively impure
        # (the callee body may commit or print)
        impure.append(func)

    # -- region partitioning ---------------------------------------------
    def _analyze(
        self, body: list[Any], proc_name: str, source: str
    ) -> tuple[FusionPlan, DiagnosticReport]:
        regions, findings = self.env.once(
            "fusion", body, lambda: self._partition_body(body)
        )
        return FusionPlan(proc_name, regions), findings.labelled(source)

    def _partition_body(
        self, body: list[Any]
    ) -> tuple[tuple[FusionRegion, ...], DiagnosticReport]:
        """The analysis proper: regions and unlabelled findings of ``body``."""
        regions: list[FusionRegion] = []
        report = DiagnosticReport()
        self._partition(body, "body", frozenset(), regions, report)
        for region in regions:
            if region.certified and region.statements >= 2:
                report.add(
                    "FUSE001",
                    f"certified fusion region #{region.index} at "
                    f"{region.path}: {region.statements} statements "
                    f"(lines {region.start_line}-{region.end_line})",
                    Severity.INFO,
                    line=region.start_line,
                    end_line=region.end_line,
                )
        return tuple(regions), report

    def _partition(
        self,
        body: list[Any],
        path: str,
        conflicted: frozenset[str],
        regions: list[FusionRegion],
        report: DiagnosticReport,
    ) -> None:
        draft = _Draft()
        last_region: FusionRegion | None = None
        barriers: list[tuple[int | None, str]] = []

        def flush() -> None:
            nonlocal last_region
            region = self._close(draft, path, conflicted, regions, report)
            if region is not None:
                if last_region is not None and len(barriers) == 1:
                    line, what = barriers[0]
                    report.add(
                        "FUSE002",
                        f"impure statement ({what}) splits two fusible "
                        f"regions at {path}; hoisting it would fuse "
                        f"lines {last_region.start_line}-{region.end_line}",
                        Severity.WARNING,
                        line=line,
                    )
                last_region = region
                barriers.clear()

        for statement in body:
            if isinstance(statement, (If, While, Parallel, ProcDef)):
                flush()
                last_region = None
                barriers.clear()
                self._partition_control(
                    statement, path, conflicted, regions, report
                )
                continue
            effects = self.infer_effects(statement)
            if effects.pure:
                draft.stmts.append((statement, effects))
            else:
                flush()
                barriers.append(
                    (
                        getattr(statement, "line", None),
                        ", ".join(effects.impure) or "commit",
                    )
                )
        flush()

    def _partition_control(
        self,
        statement: Any,
        path: str,
        conflicted: frozenset[str],
        regions: list[FusionRegion],
        report: DiagnosticReport,
    ) -> None:
        line = getattr(statement, "line", None)
        match statement:
            case If(then=then, orelse=orelse):
                self._partition(
                    then, f"{path}.if@{line}", conflicted, regions, report
                )
                if orelse:
                    self._partition(
                        orelse, f"{path}.else@{line}", conflicted, regions, report
                    )
            case While(body=body):
                self._partition(
                    body, f"{path}.while@{line}", conflicted, regions, report
                )
            case Parallel(body=body):
                branch_conflicts = self._branch_conflicts(body)
                for index, branch in enumerate(body):
                    self._partition(
                        [branch],
                        f"{path}.parallel@{line}[{index}]",
                        conflicted | branch_conflicts,
                        regions,
                        report,
                    )
            case ProcDef():
                pass  # nested defs get their own plan at their define site

    def _close(
        self,
        draft: _Draft,
        path: str,
        conflicted: frozenset[str],
        regions: list[FusionRegion],
        report: DiagnosticReport,
    ) -> FusionRegion | None:
        stmts = draft.stmts
        draft.stmts = []
        if not stmts or not any(e.bat_compute for _, e in stmts):
            return None
        lines = [
            getattr(s, "line", None)
            for s, _ in stmts
            if getattr(s, "line", None) is not None
        ]
        start = min(lines) if lines else 0
        end = max(lines) if lines else 0
        written: set[str] = set()
        inputs: list[str] = []
        outputs: list[str] = []
        touched: set[str] = set()
        allocates = False
        for _, effects in stmts:
            for ident in effects.reads:
                if ident not in written and ident not in inputs:
                    inputs.append(ident)
            for ident in effects.writes + effects.appends:
                written.add(ident)
                if ident not in outputs:
                    outputs.append(ident)
            touched |= effects.touched
            allocates = allocates or effects.allocates
        clash = sorted(touched & conflicted)
        certified = not clash
        reason = (
            "" if certified else f"shared-ownership conflict on {clash[0]!r}"
        )
        region = FusionRegion(
            index=len(regions),
            path=path,
            start_line=start,
            end_line=end,
            statements=len(stmts),
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            allocates=allocates,
            certified=certified,
            reason=reason,
        )
        regions.append(region)
        if not certified:
            report.add(
                "FUSE003",
                f"fusible statements at {path} (lines {start}-{end}) left "
                f"uncertified: {reason}",
                Severity.WARNING,
                line=start,
                end_line=end,
            )
        return region

    # -- PARALLEL ownership ----------------------------------------------
    def _branch_conflicts(self, branches: list[Any]) -> frozenset[str]:
        """Names no branch region may touch: racecheck's conflict facts.

        A name conflicts when one branch mutates it non-append (BAT
        ``delete``/``replace`` or a scalar assignment) while any other
        branch touches it at all, or when two branches assign it (lost
        update).  Concurrent appends commute under the BAT lock and do not
        conflict.
        """
        summaries = [branch_summary(branch) for branch in branches]
        conflicted: set[str] = set()
        for index, (touched, mutated, assigned) in enumerate(summaries):
            others_touched: set[str] = set()
            others_assigned: set[str] = set()
            for other_index, (o_touched, _, o_assigned) in enumerate(summaries):
                if other_index != index:
                    others_touched |= o_touched
                    others_assigned |= o_assigned
            conflicted |= mutated & others_touched
            conflicted |= assigned & others_touched
            conflicted |= assigned & others_assigned
        return frozenset(conflicted)


def branch_summary(branch: Any) -> tuple[set[str], set[str], set[str]]:
    """(touched, non-append-mutated, assigned) shared names of a branch."""
    touched: set[str] = set()
    mutated: set[str] = set()
    assigned: set[str] = set()
    for event in shared_events(branch):
        if event.kind == "commit":
            continue
        touched.add(event.name)
        if event.kind == "write":
            mutated.add(event.name)
        elif event.kind == "assign":
            assigned.add(event.name)
    return touched, mutated, assigned
