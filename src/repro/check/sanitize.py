"""Runtime sanitizer — the dynamic half of flowcheck/racecheck.

Static analysis proves what it can before a plan runs; everything it cannot
see (values computed at runtime, branches taken, threads scheduled) is the
sanitizer's job.  With ``check="sanitize"`` the kernel arms a
:class:`KernelSanitizer` that instruments the three dynamic choke points:

* **parallel fan-outs** — every :class:`repro.monet.parallel.ParallelExecutor`
  region run through the kernel tags its branch threads with an ownership
  label (thread-local, nesting-safe);
* **catalog access** — ``persist``/``drop`` record an owner-tag per catalog
  name and region; a second write to the same name from a *different*
  branch of the same region is the dynamic form of RACE001, and a catalog
  mutation from a thread that does not own the open transaction is RACE005;
* **command invocation** — commands whose
  :class:`repro.monet.module.CommandSignature` declares ``arg_ranges`` /
  ``returns_range`` get their actual values asserted (scalars directly, BAT
  arguments over every tail value) — the dynamic form of FLOW005.

Violations raise :class:`repro.errors.SanitizerError` carrying the same
diagnostic codes the static passes emit, so one defect reads identically
whether it is caught at ``define_proc`` time or mid-execution under the
fault/chaos harnesses.  All findings (raised or not) accumulate on
:attr:`KernelSanitizer.findings`.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Sequence

from repro.check.diagnostics import Diagnostic, Severity
from repro.errors import SanitizerError
from repro.monet.bat import BAT
from repro.monet.module import CommandSignature

__all__ = ["KernelSanitizer"]

_EPS = 1e-9


class KernelSanitizer:
    """Dynamic invariant checker armed by ``MonetKernel(check="sanitize")``.

    The kernel calls in at three points: :meth:`run_parallel` (wrapping the
    executor), :meth:`on_catalog_write` (from ``persist``/``drop``), and
    :meth:`wrap_command` (from the command call guard).
    """

    def __init__(self, kernel: Any):
        self._kernel = kernel
        self._local = threading.local()
        self._lock = threading.Lock()
        self._region_seq = 0
        #: Every violation observed, in detection order (also raised).
        self.findings: list[Diagnostic] = []

    # ------------------------------------------------------------------
    # parallel region ownership
    # ------------------------------------------------------------------
    def run_parallel(
        self,
        run: Callable[..., list[Any]],
        thunks: Sequence[Callable[[], Any]],
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Run a fan-out with every branch thread tagged by its label."""
        with self._lock:
            self._region_seq += 1
            region = self._region_seq
        state: dict[str, Any] = {"region": region, "writes": {}}
        resolved = (
            list(labels)
            if labels is not None
            else [f"parallel branch {i + 1}" for i in range(len(thunks))]
        )

        def tag(thunk: Callable[[], Any], label: str) -> Callable[[], Any]:
            def branch() -> Any:
                previous = getattr(self._local, "branch", None)
                self._local.branch = (label, state)
                try:
                    return thunk()
                finally:
                    self._local.branch = previous

            return branch

        tagged = [tag(t, label) for t, label in zip(thunks, resolved)]
        return run(tagged, resolved)

    # ------------------------------------------------------------------
    # catalog ownership
    # ------------------------------------------------------------------
    def on_catalog_write(self, op: str, name: str, bat: BAT | None = None) -> None:
        """Check one ``persist``/``drop`` against ownership invariants."""
        kernel = self._kernel
        if (
            kernel._txn_stack
            and kernel._txn_owner is not None
            and kernel._txn_owner != threading.get_ident()
        ):
            self._violation(
                "RACE005",
                f"{op} of {name!r} from a thread that does not own the "
                f"open transaction",
                source=f"<sanitize:{op}>",
            )
        branch = getattr(self._local, "branch", None)
        if branch is None:
            return
        label, state = branch
        with self._lock:
            writes: dict[str, str] = state["writes"]
            prior = writes.get(name)
            if prior is not None and prior != label:
                self._violation(
                    "RACE001",
                    f"write-write race on catalog name {name!r}: "
                    f"{prior} and {label} both ran {op} concurrently",
                    source=f"<sanitize:{op}>",
                )
            writes[name] = label
        if bat is not None:
            # owner-tag the BAT itself so later regions can attribute it
            bat.owner_tag = label

    # ------------------------------------------------------------------
    # value-range contracts
    # ------------------------------------------------------------------
    def wrap_command(
        self,
        name: str,
        signature: CommandSignature | None,
        fn: Callable[..., Any],
    ) -> Callable[..., Any]:
        """Wrap a kernel command with its declared range assertions."""
        if signature is None or (
            not signature.arg_ranges and signature.returns_range is None
        ):
            return fn

        def guarded(*args: Any) -> Any:
            for index, value in enumerate(args):
                contract = signature.arg_range(index)
                if contract is not None:
                    self._assert_range(
                        value,
                        contract,
                        f"{signature.describe()} argument {index + 1}",
                        name,
                    )
            result = fn(*args)
            if signature.returns_range is not None:
                self._assert_range(
                    result,
                    signature.returns_range,
                    f"{signature.describe()} return value",
                    name,
                )
            return result

        return guarded

    def _assert_range(
        self,
        value: Any,
        contract: tuple[float, float],
        what: str,
        command: str,
    ) -> None:
        lo, hi = contract
        for number in _numeric_values(value):
            if math.isnan(number) or not (lo - _EPS <= number <= hi + _EPS):
                self._violation(
                    "FLOW005",
                    f"{what} holds {number:g}, outside the declared "
                    f"contract [{lo:g}, {hi:g}]",
                    source=f"<sanitize:{command}>",
                )

    # ------------------------------------------------------------------
    def _violation(self, code: str, message: str, source: str) -> None:
        diagnostic = Diagnostic(code, message, Severity.ERROR, source=source)
        self.findings.append(diagnostic)
        raise SanitizerError(f"sanitizer violation {code}", [diagnostic])


def _numeric_values(value: Any) -> list[float]:
    """Numbers a range contract applies to: scalars or a BAT's tail values."""
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, BAT):
        try:
            return [float(v) for v in value.tails()]
        except (TypeError, ValueError):
            return []
    return []
