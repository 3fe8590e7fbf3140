"""Service-readiness checks for MIL procedures (``SVCnnn`` codes).

A PROC registered for *service* execution (see
:meth:`repro.service.QueryService.register_proc`, which hands it to the
topology's ``register_proc``) runs on a shared worker
lane under cooperative cancellation: the interpreter checkpoints between
statements, but a hand-written ``WHILE`` whose condition never changes
inside the loop can still spin forever *between* service-visible
boundaries if the body is free of kernel calls. The service layer cannot
preempt a Python thread, so such loops must carry an explicit
``cancelpoint()`` call (the kernel builtin that checks the ambient
cancellation token).

Diagnostic codes:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
SVC001    error     unbounded WHILE with no cancellation checkpoint in a
                    service-registered PROC
========  ========  =====================================================

A ``WHILE`` counts as *unbounded* when its condition is a constant truthy
literal, or when no variable the condition reads is declared, assigned or
mutated (``insert``/``delete``/``replace``..., see
:mod:`repro.check.effects`) anywhere in the loop body — the loop's own
text cannot make it stop. A
``cancelpoint()`` call anywhere in the body (including nested blocks)
satisfies the checkpoint requirement.

This pass runs only at service registration, not at plain
``define_proc`` time: a batch PROC driven interactively is free to loop
on operator input, but one admitted to the shared service must stay
cancellable.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.check.effects import ACCESSES, MUTATIONS, names
from repro.check.environment import MilPass
from repro.monet.mil import Call, Literal, ProcDef, While, walk

__all__ = ["ServiceChecker"]

#: Calls recognised as cancellation checkpoints inside a WHILE body.
CHECKPOINT_COMMANDS = frozenset({"cancelpoint"})


class ServiceChecker(MilPass):
    """Static service-readiness analyzer for MIL procedures."""

    reports_syntax_errors = True

    def _check_definition(
        self, definition: ProcDef, label: str, procs: Mapping[str, ProcDef]
    ) -> DiagnosticReport:
        report = DiagnosticReport()
        for node in walk(definition.body):
            match node:
                case While(cond=cond, body=body, line=line):
                    if _unbounded(cond, body) and not _has_checkpoint(body):
                        report.add(
                            "SVC001",
                            f"PROC {definition.name}: unbounded WHILE with no "
                            f"cancellation checkpoint — the loop condition "
                            f"never changes inside the body and nothing "
                            f"calls cancelpoint(), so a cancelled request "
                            f"could spin forever on a service lane",
                            Severity.ERROR,
                            source=label,
                            line=line,
                        )
                case ProcDef():  # nested definition: walk() stops here
                    report.extend(self._check_definition(node, label, procs))
        return report


def _unbounded(cond: Any, body: list[Any]) -> bool:
    """Whether the loop text itself can never terminate the loop."""
    if isinstance(cond, Literal):
        return bool(cond.value)
    cond_vars = names(cond, ACCESSES)
    if not cond_vars:
        # a condition made only of calls is opaque — assume bounded
        return False
    # mutating methods count wherever they sit: a BAT the condition reads
    # may shrink via ``delete`` and end the loop
    return not (cond_vars & names(body, MUTATIONS))


def _has_checkpoint(body: list[Any]) -> bool:
    return any(
        isinstance(node, Call) and node.func in CHECKPOINT_COMMANDS
        for node in walk(body)
    )
