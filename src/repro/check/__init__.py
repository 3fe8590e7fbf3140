"""Static plan verification for the three-level stack.

Real DBMSs verify plans before running them. This package does the same for
the reproduction's three levels:

* :mod:`repro.check.milcheck` — type/scope checking of MIL procedures
  against the kernel's command signature table (``MILnnn`` codes);
* :mod:`repro.check.moacheck` — shape and binding validation of Moa
  expression trees against the extension registry (``MOAnnn`` codes);
* :mod:`repro.check.modelcheck` — linting of BN/DBN probability models and
  their evidence mappings (``MODELnnn`` codes);
* :mod:`repro.check.catalogcheck` — structural invariants of a BAT catalog
  (``CATnnn`` codes), run by crash recovery before a recovered catalog is
  opened;
* :mod:`repro.check.flowcheck` — cross-level dataflow rules over the
  **range × rate** facts of the shared abstract run, proving feature
  streams stay in [0, 1] at 10 Hz all the way into the evidence nodes
  (``FLOWnnn`` codes);
* :mod:`repro.check.racecheck` — static lockset/ownership analysis of
  ``PARALLEL`` blocks and catalog writes (``RACEnnn`` codes);
* :mod:`repro.check.costcheck` — plan-level perf lints over the
  **cardinality × selectivity × cost** facts of the shared abstract run
  (``PERFnnn`` codes, advisory), and the cost models the Cobra
  preprocessor and the DBN extension consume;
* :mod:`repro.check.sanitize` — the runtime sanitizer armed by
  ``check="sanitize"``, enforcing the same FLOW/RACE invariants while
  plans execute;
* :mod:`repro.check.servicecheck` — service-readiness checks run when a
  PROC is registered for service execution, on whatever topology
  :class:`repro.service.QueryService` fronts (``SVCnnn`` codes): unbounded
  ``WHILE`` loops must carry a ``cancelpoint()``;
* :mod:`repro.check.programcheck` (with :mod:`repro.check.callgraph`) —
  whole-program interprocedural analysis: per-PROC effect/cost
  summaries propagated bottom-up in SCC order over the call graph of all
  registered procedures, memoized by source fingerprint (``CALLnnn``
  codes): unresolved call targets, unbounded recursion without a
  ``cancelpoint``, and interprocedural ``PARALLEL`` races;
* :mod:`repro.check.equivcheck` — Moa→MIL translation validation:
  symbolic execution of both sides over an abstract BAT-algebra
  semantics, certifying every compiled plan equivalent to its source
  expression (``EQnnn`` codes); ``MoaCompiler.compile`` refuses a plan
  whose translation fails (EQ002).

Under the MIL-side passes sit four shared modules:
:mod:`repro.check.environment` (the kernel facts a pass checks against and
the entry points every checker class inherits),
:mod:`repro.check.absint` (the one abstract interpreter: MIL's semantics —
statements, calls, the BAT-method and bulk-operator tables — modelled once
over milcheck's type × flowcheck's type/interval/rate × costcheck's
rows/degree/sorted_tail/keyed_head/interval, each component in the
variable model its pass was defined by, and the one value walk over Moa
trees),
:mod:`repro.check.effects` (the one read/declare/assign/write/append/
commit/call event stream all effect questions are filters over) and
:mod:`repro.check.pipeline` (the one ordered pass list) — see the pass
table below. The tree shape itself is known only to
:func:`repro.monet.mil.children` / :func:`repro.monet.mil.walk`.

All passes report :class:`Diagnostic` findings through a shared
:class:`DiagnosticReport`; error-severity findings raise the matching
:class:`repro.errors.DiagnosticError` subclass at the registration choke
points (``MilInterpreter.define_proc``, ``MoaCompiler.compile``,
``DbnExtension.register``, the fusion experiments).

The MIL pass table
------------------

The MIL-side passes run from one ordered list,
:data:`repro.check.pipeline.PASSES`; each choke point is a *stage* that
runs the rows listing it, in this order, over one shared
:class:`repro.check.environment.Environment` (DESIGN.md § Static analysis
has the same table with more prose):

==  ==============  ========  ======  ====  =======  =======  =====================
#   pass            codes     define  lint  service  scatter  reads from earlier
==  ==============  ========  ======  ====  =======  =======  =====================
1   milcheck        MIL       x       x                       abstract run (type)
2   flowcheck       FLOW      x       x                       abstract run (flow)
3   racecheck       RACE      x       x                       —
4   costcheck       PERF      x       x                       abstract run (cost)
5   servicecheck    SVC                     x                 —
6   programcheck    CALL      x       x     x        x        abstract run (cost);
                                                              summaries
==  ==============  ========  ======  ====  =======  =======  =====================

``define`` is ``MilInterpreter.define_proc`` (one parsed ``PROC``),
``lint`` is ``python -m repro.check``, ``service`` is the ``register_proc``
of a service topology (``CobraVDBMS`` or ``ShardedKernel``, through
:func:`repro.check.pipeline.check_service_source`) and ``scatter`` is
``ShardedKernel.run`` (the last two then hand the source to the kernel(s),
whose ``define`` stage runs per ``PROC``). Source is parsed once per
stage. The *abstract run*
of a definition (:func:`repro.check.absint.interpret`: its facts and its
cost, per set of procedures calls resolve to) is memoised on the
environment (:meth:`Environment.once`), so whichever pass asks first
computes it and the rest read the answer — ``define_proc`` interprets a
definition once, not once per pass. The CLI's built-in run adds the model
lints and the Moa translation validation, which are not MIL passes.

Writing a MIL pass
------------------

1. Subclass :class:`repro.check.environment.MilPass` and implement
   ``_check_definition(definition, label, procs)`` (plus
   ``_check_toplevel`` if file-level statements matter); parsing,
   ``MIL000`` ownership, the per-``PROC`` loop, the procedures calls
   resolve to and ``MilProcedure`` unwrapping come with the base.
   Read kernel facts from ``self.env`` (``commands``, ``signatures``,
   ``globals_names``, ``procedures``).
2. Never ``match`` on the tree's shape to find things: iterate
   :func:`repro.monet.mil.walk` (every node, pre-order) or
   :func:`repro.monet.mil.children` (one level). Only the abstract
   interpreter (:mod:`repro.check.absint`) owns a ``match`` over
   statements and expressions, because it computes a value per node; a
   pass that needs values subclasses its ``InterpretedPass`` and writes
   rules over the run's facts.
3. For "what does this code read / declare / assign / mutate / commit /
   call", filter :func:`repro.check.effects.events` (ordered, evaluation
   order) — or :func:`repro.check.effects.shared_events` for what one
   ``PARALLEL`` branch exposes to its siblings.
4. Reuse another pass's result through the same environment
   (``interpret(self.env, definition).cost``); memoise your own
   reusable analysis with ``self.env.once(kind, node, compute)`` and
   label findings on the way out (:meth:`DiagnosticReport.labelled`).
5. Add one row to :data:`repro.check.pipeline.PASSES` with the stages
   that run it, a row to the tables here and in DESIGN.md, and a corpus
   file under ``tests/data/badplans`` per new code.

Run the linter from the command line::

    python -m repro.check                 # lint built-in procs + networks
    python -m repro.check path/to/file.mil
    python -m repro.check --strict --format sarif examples/
"""

from repro.check.callgraph import CallGraph, CallSite, collect_call_sites, fingerprint
from repro.check.catalogcheck import check_catalog
from repro.check.costcheck import (
    CostChecker,
    check_moa_cost,
    estimate_extraction_cost,
)
from repro.check.diagnostics import (
    CheckMode,
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.check.equivcheck import abstract_mil, abstract_moa, validate_translation
from repro.check.flowcheck import FlowChecker, check_feature_set, check_moa_flow
from repro.check.milcheck import MilChecker
from repro.check.moacheck import MoaChecker
from repro.check.moacheck import check_expr as check_moa_expr
from repro.check.modelcheck import check_cpd, check_template
from repro.check.programcheck import ProcSummary, ProgramChecker, SummaryCache
from repro.check.racecheck import RaceChecker
from repro.check.sanitize import KernelSanitizer
from repro.check.servicecheck import ServiceChecker

__all__ = [
    "CallGraph",
    "CallSite",
    "CheckMode",
    "CostChecker",
    "Diagnostic",
    "DiagnosticReport",
    "FlowChecker",
    "KernelSanitizer",
    "MilChecker",
    "MoaChecker",
    "ProcSummary",
    "ProgramChecker",
    "RaceChecker",
    "ServiceChecker",
    "Severity",
    "SummaryCache",
    "abstract_mil",
    "abstract_moa",
    "check_catalog",
    "check_cpd",
    "check_feature_set",
    "check_moa_cost",
    "check_moa_expr",
    "check_moa_flow",
    "check_template",
    "collect_call_sites",
    "estimate_extraction_cost",
    "fingerprint",
    "validate_translation",
]
