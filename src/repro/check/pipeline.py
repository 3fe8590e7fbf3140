"""The one ordered list of MIL passes, and the two ways to run it.

Every place that statically checks MIL goes through :data:`PASSES`:

===========  ==============================================  ========
stage        choke point                                     runs via
===========  ==============================================  ========
``define``   ``MilInterpreter.define_proc``                  :func:`check_definition`
``lint``     ``python -m repro.check``                       :func:`check_source`
``service``  ``register_proc`` of a service topology          :func:`check_service_source`
``scatter``  ``ShardedKernel.run``                           :func:`check_source`
===========  ==============================================  ========

A stage runs the passes that list it, in table order, all built over one
:class:`~repro.check.environment.Environment`: the source is parsed once,
and what one pass computes for a definition (the abstract run) is what the
later ones read. The table, what each pass
consumes, and how to add one are in the :mod:`repro.check` docstring.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.check.costcheck import CostChecker
from repro.check.diagnostics import DiagnosticReport
from repro.check.environment import Environment, MilPass, parse_program
from repro.check.flowcheck import FlowChecker
from repro.check.milcheck import MilChecker
from repro.check.programcheck import ProgramChecker, SummaryCache
from repro.check.racecheck import RaceChecker
from repro.check.servicecheck import ServiceChecker
from repro.errors import MilCheckError
from repro.monet.mil import ProcDef, parse

__all__ = ["PASSES", "check_definition", "check_service_source", "check_source"]

_EVERY_DEFINITION = frozenset({"define", "lint"})

#: (checker class, stages that run it), in execution order.
PASSES: tuple[tuple[type[MilPass], frozenset[str]], ...] = (
    (MilChecker, _EVERY_DEFINITION),  # MILnnn
    (FlowChecker, _EVERY_DEFINITION),  # FLOWnnn
    (RaceChecker, _EVERY_DEFINITION),  # RACEnnn
    (CostChecker, _EVERY_DEFINITION),  # PERFnnn
    (ServiceChecker, frozenset({"service"})),  # SVCnnn
    (ProgramChecker, frozenset({"define", "lint", "service", "scatter"})),  # CALLnnn
)


def _checkers(
    env: Environment, stage: str, cache: SummaryCache | None
) -> Iterator[MilPass]:
    for checker, stages in PASSES:
        if stage in stages:
            if checker is ProgramChecker:
                yield ProgramChecker(env, cache=cache)
            else:
                yield checker(env)


def check_definition(
    env: Environment,
    definition: ProcDef,
    source: str | None = None,
    cache: SummaryCache | None = None,
) -> DiagnosticReport:
    """The ``define`` stage over one parsed procedure.

    ``source`` labels the findings (default: the procedure's name);
    ``cache`` is the whole-program summary cache to update — without one,
    programcheck starts from an empty program.
    """
    report = DiagnosticReport()
    for checker in _checkers(env, "define", cache):
        report.extend(checker.check_proc(definition, source))
    return report


def check_source(
    env: Environment,
    source: str,
    name: str,
    stage: str = "lint",
    cache: SummaryCache | None = None,
) -> DiagnosticReport:
    """Parse ``source`` once and run ``stage``'s passes over the program.

    Unparseable source is one ``MIL000`` finding when a pass of the stage
    owns syntax errors (milcheck, servicecheck), and nothing otherwise —
    the kernel raises ``MilSyntaxError`` when the source is run.
    """
    checkers = list(_checkers(env, stage, cache))
    statements, syntax = parse_program(source, name)
    if statements is None:
        owned = any(checker.reports_syntax_errors for checker in checkers)
        return syntax if owned else DiagnosticReport()
    report = DiagnosticReport()
    for checker in checkers:
        report.extend(checker.check_program(statements, name=name))
    return report


def check_service_source(kernel: Any, source: str) -> list[str]:
    """The ``service`` stage over ``source`` against ``kernel``'s procedures.

    A service lane cannot preempt a PROC, so an uncancellable loop
    (``SVC001``) is rejected here, and so are cross-proc holes
    (``CALLnnn``). Raises :class:`MilCheckError` on an error finding;
    otherwise returns the names of the PROCs ``source`` defines, for the
    caller to run on its kernel(s). A fresh summary cache: a rejected
    registration leaves nothing on the interpreter's live one.
    """
    env = kernel.interpreter.check_environment()
    report = check_source(env, source, "<service proc>", stage="service")
    if report.has_errors():
        raise MilCheckError("PROC rejected for service execution", report.sorted())
    return [s.name for s in parse(source) if isinstance(s, ProcDef)]
