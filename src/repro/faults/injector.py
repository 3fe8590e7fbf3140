"""The runtime side of fault injection.

A :class:`FaultInjector` is consulted at opt-in hook points across the
stack — stream synthesis (`repro.synth`), feature extraction
(`repro.fusion.features`), kernel command invocation (`repro.monet`), the
Moa extension call path (`repro.moa`), and dynamic extraction
(`repro.cobra`). Every decision is deterministic in the plan seed and the
per-site invocation counter, and every triggered fault is appended to
:attr:`FaultInjector.injections` so tests can assert the exact schedule.
"""

from __future__ import annotations

import fnmatch
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import (
    InjectedPermanentError,
    InjectedTransientError,
    SimulatedCrash,
)
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = ["Injection", "FaultInjector"]


@dataclass(frozen=True)
class Injection:
    """One triggered fault (the injector's log record)."""

    site: str
    kind: str
    spec_site: str
    invocation: int
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}@{self.site}#{self.invocation}{extra}"


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at hook points.

    ``FaultInjector(None)`` is a disabled no-op injector — hooks can call
    it unconditionally. ``sleep`` is injectable so delay faults are
    testable without wall-clock time.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.plan = plan if plan and plan.specs else None
        self._sleep = sleep
        self._lock = threading.Lock()
        self._site_counts: dict[str, int] = {}
        self._spec_triggers: dict[int, int] = {}
        #: Every triggered fault, in trigger order.
        self.injections: list[Injection] = []

    @classmethod
    def disabled(cls) -> "FaultInjector":
        return cls(None)

    @property
    def enabled(self) -> bool:
        return self.plan is not None

    def targets(self, site: str) -> bool:
        """Whether some spec's site pattern matches ``site``, of any kind —
        so a caller can skip preparing work for a hook that cannot fire."""
        return self.plan is not None and any(
            fnmatch.fnmatchcase(site, spec.site) for spec in self.plan.specs
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _next_invocation(self, site: str) -> int:
        with self._lock:
            count = self._site_counts.get(site, 0)
            self._site_counts[site] = count + 1
            return count

    def _matching(self, site: str, kinds: tuple[str, ...]) -> list[tuple[int, FaultSpec]]:
        assert self.plan is not None
        return [
            (i, spec)
            for i, spec in enumerate(self.plan.specs)
            if spec.kind in kinds and fnmatch.fnmatchcase(site, spec.site)
        ]

    def _fire(self, index: int, spec: FaultSpec, site: str, invocation: int) -> bool:
        """Trigger decision for one spec, honouring max_triggers."""
        assert self.plan is not None
        if not self.plan.triggers(index, site, invocation):
            return False
        with self._lock:
            fired = self._spec_triggers.get(index, 0)
            if spec.max_triggers is not None and fired >= spec.max_triggers:
                return False
            self._spec_triggers[index] = fired + 1
        return True

    def _log(
        self, site: str, spec: FaultSpec, invocation: int, detail: str = ""
    ) -> None:
        with self._lock:
            self.injections.append(
                Injection(site, spec.kind, spec.site, invocation, detail)
            )

    def counts(self) -> dict[str, int]:
        """Triggered-fault totals keyed by ``kind@site``."""
        out: dict[str, int] = {}
        with self._lock:
            for record in self.injections:
                key = f"{record.kind}@{record.site}"
                out[key] = out.get(key, 0) + 1
        return out

    # ------------------------------------------------------------------
    # call-path hooks (fail / delay)
    # ------------------------------------------------------------------
    def on_call(self, site: str) -> None:
        """Hook before a guarded call: may sleep (delay), wedge in a
        cancellable stall (stall), raise (fail), or simulate a process
        kill (kill)."""
        if self.plan is None:
            return
        specs = self._matching(site, ("fail", "delay", "stall", "kill"))
        if not specs:
            return
        invocation = self._next_invocation(site)
        for index, spec in specs:
            if not self._fire(index, spec, site, invocation):
                continue
            if spec.kind == "delay":
                self._log(site, spec, invocation, f"{spec.delay}s")
                if spec.delay > 0:
                    self._sleep(spec.delay)
                continue
            if spec.kind == "stall":
                self._log(site, spec, invocation, f"{spec.delay}s")
                self._stall(site, spec.delay)
                continue
            if spec.kind == "kill":
                self._log(site, spec, invocation, "crash")
                raise SimulatedCrash(
                    spec.message or "injected process kill", site=site
                )
            message = spec.message or (
                f"injected {'transient' if spec.transient else 'permanent'} "
                f"fault at {site}"
            )
            self._log(site, spec, invocation, "transient" if spec.transient else "permanent")
            error = InjectedTransientError if spec.transient else InjectedPermanentError
            raise error(message, site=site)

    def _stall(self, site: str, duration: float) -> None:
        """Wedge for ``duration`` seconds, but stay cancellable.

        Sleeps in small slices and checks the ambient cancellation token
        between them, so a stalled worker holds its bulkhead lane (the
        overload it models) yet still honours cooperative cancellation —
        a drain deadline can reclaim the lane within one slice.
        """
        from repro.resilience import cancel_checkpoint

        slice_s = 0.01
        remaining = duration
        cancel_checkpoint(site)
        while remaining > 0:
            self._sleep(min(slice_s, remaining))
            remaining -= slice_s
            cancel_checkpoint(site)

    # ------------------------------------------------------------------
    # arrival hook (burst)
    # ------------------------------------------------------------------
    def burst_count(self, site: str) -> int:
        """Extra duplicate arrivals to synthesize at an admission site.

        The query service calls this once per real submission; a matching
        ``burst`` spec that fires contributes ``spec.factor`` clones, so a
        plan with ``factor=3`` turns each arrival into 4 requests. Returns
        0 when no spec fires (the common case and the disabled case).
        """
        if self.plan is None:
            return 0
        specs = self._matching(site, ("burst",))
        if not specs:
            return 0
        invocation = self._next_invocation(site)
        extra = 0
        for index, spec in specs:
            if self._fire(index, spec, site, invocation):
                self._log(site, spec, invocation, f"factor={spec.factor}")
                extra += spec.factor
        return extra

    # ------------------------------------------------------------------
    # replication-link hooks (partition / lag)
    # ------------------------------------------------------------------
    def link_partitioned(self, site: str) -> bool:
        """Whether a replication link is severed for this shipment round.

        The kernel group consults this once per replica per pump (site
        ``replication.link:<replica>``); a firing ``partition`` spec drops
        the whole shipment, so the replica receives nothing and its lag
        grows. The link heals as soon as the spec stops firing (rate or
        ``max_triggers`` exhausted) — catch-up recovery then ships the
        checkpoint snapshot + WAL tail the replica missed.
        """
        if self.plan is None:
            return False
        specs = self._matching(site, ("partition",))
        if not specs:
            return False
        invocation = self._next_invocation(site)
        for index, spec in specs:
            if self._fire(index, spec, site, invocation):
                self._log(site, spec, invocation, "link down")
                return True
        return False

    def link_lag(self, site: str) -> int:
        """How many of the newest unshipped records to withhold this round.

        A firing ``lag`` spec keeps the replica ``spec.factor`` records
        behind the primary per trigger (summed across firing specs) without
        severing the link — the slow-follower regime read routing and
        failover must handle. Returns 0 when nothing fires.
        """
        if self.plan is None:
            return 0
        specs = self._matching(site, ("lag",))
        if not specs:
            return 0
        invocation = self._next_invocation(site)
        withheld = 0
        for index, spec in specs:
            if self._fire(index, spec, site, invocation):
                self._log(site, spec, invocation, f"withheld={spec.factor}")
                withheld += spec.factor
        return withheld

    # ------------------------------------------------------------------
    # data hooks (drop / corrupt)
    # ------------------------------------------------------------------
    def should_drop(self, site: str) -> bool:
        """Hook for whole-item loss (a stream, a modality, an overlay)."""
        if self.plan is None:
            return False
        specs = self._matching(site, ("drop",))
        if not specs:
            return False
        invocation = self._next_invocation(site)
        for index, spec in specs:
            if self._fire(index, spec, site, invocation):
                self._log(site, spec, invocation)
                return True
        return False

    def corrupt_array(self, site: str, values: np.ndarray) -> np.ndarray:
        """Corrupt a 1-D sample/feature array with dropout spans + noise.

        Models an audio dropout or a glitchy feature stream: ``severity``
        controls the total fraction of samples zeroed out across a few
        contiguous spans, plus low-amplitude noise over the survivors.
        Returns the input untouched when no matching spec fires.
        """
        if self.plan is None or values.size == 0:
            return values
        specs = self._matching(site, ("corrupt",))
        if not specs:
            return values
        invocation = self._next_invocation(site)
        out = values
        for index, spec in specs:
            if not self._fire(index, spec, site, invocation):
                continue
            rng = self.plan.rng_for(index, site, invocation)
            out = np.array(out, dtype=np.float64, copy=True)
            n = out.shape[0]
            budget = int(spec.severity * n)
            spans = max(1, min(4, budget))
            dropped = 0
            for _ in range(spans):
                if budget - dropped <= 0:
                    break
                width = max(1, int(rng.integers(1, max(2, (budget - dropped) + 1))))
                start = int(rng.integers(0, max(1, n - width + 1)))
                out[start : start + width] = 0.0
                dropped += width
            noise = 0.05 * spec.severity
            if noise > 0:
                out += rng.normal(0.0, noise, size=n)
            self._log(site, spec, invocation, f"dropout={dropped}/{n}")
        return out

    def corrupt_text(self, site: str, text: str) -> str:
        """Garble overlay text: replace a severity-fraction of characters."""
        if self.plan is None or not text:
            return text
        specs = self._matching(site, ("corrupt",))
        if not specs:
            return text
        invocation = self._next_invocation(site)
        out = text
        for index, spec in specs:
            if not self._fire(index, spec, site, invocation):
                continue
            rng = self.plan.rng_for(index, site, invocation)
            chars = list(out)
            n_garble = max(1, int(spec.severity * len(chars)))
            positions = rng.choice(len(chars), size=min(n_garble, len(chars)), replace=False)
            # Renderable garbage only (the overlay font's glyph set): a
            # garbled chyron should misread downstream, not crash the
            # renderer with an undrawable character.
            alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            for position in positions:
                chars[int(position)] = alphabet[int(rng.integers(0, len(alphabet)))]
            out = "".join(chars)
            self._log(site, spec, invocation, f"garbled={len(positions)}/{len(chars)}")
        return out

    def frame_loss_mask(self, site: str, n_frames: int) -> np.ndarray | None:
        """Which frames are lost (frozen to the previous frame), or None.

        Returns a boolean array of shape (n_frames,) with True at lost
        positions when a matching ``corrupt`` spec fires; frame 0 is never
        lost so the freeze always has a predecessor.
        """
        if self.plan is None or n_frames <= 1:
            return None
        specs = self._matching(site, ("corrupt",))
        if not specs:
            return None
        invocation = self._next_invocation(site)
        mask: np.ndarray | None = None
        for index, spec in specs:
            if not self._fire(index, spec, site, invocation):
                continue
            rng = self.plan.rng_for(index, site, invocation)
            if mask is None:
                mask = np.zeros(n_frames, dtype=bool)
            n_lost = int(spec.severity * n_frames)
            if n_lost:
                lost = rng.choice(n_frames - 1, size=min(n_lost, n_frames - 1), replace=False)
                mask[lost + 1] = True
            self._log(site, spec, invocation, f"lost={int(mask.sum())}/{n_frames}")
        return mask
