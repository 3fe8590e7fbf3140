"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is data, not behaviour: a seed plus a list of
:class:`FaultSpec` site patterns. Whether a given invocation of a given
site triggers a fault is a pure function of (plan seed, spec index, site
name, per-site invocation counter), so a chaos test that replays a plan
sees byte-identical fault schedules — chaos as reproducible unit tests,
not flakiness.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS"]

#: What an injected fault does at its hook point.
#:
#: * ``fail``    — raise an Injected(Transient|Permanent)Error,
#: * ``delay``   — sleep ``delay`` seconds before the call proceeds,
#: * ``stall``   — model a wedged call: sleep ``delay`` seconds in small
#:   slices, checking the ambient cancellation token between slices, so a
#:   stalled extractor ties up its bulkhead lane but still honours
#:   cooperative cancellation at checkpoint granularity,
#: * ``drop``    — remove the data item (stream / frame / overlay) entirely,
#: * ``corrupt`` — damage the data in a kind-appropriate way (audio
#:   dropouts, frozen frames, garbled overlay text, noisy streams),
#: * ``burst``   — model an arrival surge at a service admission site: the
#:   :meth:`repro.faults.injector.FaultInjector.burst_count` hook reports
#:   ``factor`` extra duplicate arrivals per trigger, which the query
#:   service synthesizes as clone requests to drive overload,
#: * ``kill``    — raise :class:`repro.errors.SimulatedCrash`, modelling a
#:   process kill at a named WAL/checkpoint crash point (the chaos
#:   scenarios in :mod:`repro.chaos` recover from disk afterwards),
#: * ``partition`` — sever a replication link for one shipment round: the
#:   :meth:`repro.faults.injector.FaultInjector.link_partitioned` hook
#:   reports the link down, so no WAL records flow and the replica's lag
#:   grows (heals when the spec stops firing),
#: * ``lag``     — slow a replication link without severing it: the
#:   :meth:`repro.faults.injector.FaultInjector.link_lag` hook withholds
#:   the newest ``factor`` unshipped records per round, keeping the
#:   replica a bounded distance behind the primary.
FAULT_KINDS = (
    "fail", "delay", "stall", "drop", "corrupt", "burst", "kill",
    "partition", "lag",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: which sites, what happens, how often.

    Attributes:
        site: ``fnmatch``-style pattern over site names, e.g.
            ``"kernel.command:*"``, ``"extractor:flyout*"``,
            ``"synth.audio"``, ``"extract.stream:f1?"``.
        kind: one of :data:`FAULT_KINDS`.
        rate: per-invocation trigger probability in [0, 1].
        transient: for ``kind="fail"`` — raise a transient (retryable) or
            permanent injected error.
        delay: seconds slept for ``kind="delay"`` and total wedge duration
            for ``kind="stall"``.
        severity: corruption strength in [0, 1] for ``kind="corrupt"``
            (fraction of samples dropped out / frames frozen / characters
            garbled / noise amplitude).
        factor: for ``kind="burst"`` — how many extra duplicate arrivals
            each trigger injects on top of the real one; for ``kind="lag"``
            — how many of the newest unshipped WAL records each trigger
            withholds from a replication shipment.
        max_triggers: cap on how many times this spec may fire (``None`` =
            unlimited).
        skip: how many invocations of a matching site pass untouched
            before the spec may fire — ``skip=1`` on ``journal.append:mid``
            tears the *second* record a run appends.
        message: override for the injected error message.
    """

    site: str
    kind: str = "fail"
    rate: float = 1.0
    transient: bool = True
    delay: float = 0.0
    severity: float = 0.5
    factor: int = 2
    max_triggers: int | None = None
    skip: int = 0
    message: str = ""

    def __post_init__(self) -> None:
        if not self.site:
            raise ReproError("fault spec needs a non-empty site pattern")
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"rate must be in [0, 1], got {self.rate}")
        if not 0.0 <= self.severity <= 1.0:
            raise ReproError(f"severity must be in [0, 1], got {self.severity}")
        if self.delay < 0:
            raise ReproError(f"delay must be >= 0, got {self.delay}")
        if self.factor < 1:
            raise ReproError(f"factor must be >= 1, got {self.factor}")
        if self.skip < 0:
            raise ReproError(f"skip must be >= 0, got {self.skip}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault specs.

    The plan is inert until handed to a
    :class:`repro.faults.injector.FaultInjector`.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def rng_for(self, spec_index: int, site: str, invocation: int) -> np.random.Generator:
        """The deterministic generator deciding one (spec, site, call)."""
        return np.random.default_rng(
            [self.seed, spec_index, zlib.crc32(site.encode("utf-8")), invocation]
        )

    def triggers(self, spec_index: int, site: str, invocation: int) -> bool:
        """Whether spec #``spec_index`` fires at this invocation of ``site``."""
        spec = self.specs[spec_index]
        if invocation < spec.skip:
            return False
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        return bool(
            self.rng_for(spec_index, site, invocation).random() < spec.rate
        )

    def describe(self) -> str:
        lines = [f"FaultPlan {self.name or '<unnamed>'} (seed={self.seed})"]
        for spec in self.specs:
            extra = {
                "fail": f"transient={spec.transient}",
                "delay": f"delay={spec.delay}s",
                "stall": f"delay={spec.delay}s",
                "drop": "",
                "corrupt": f"severity={spec.severity}",
                "burst": f"factor={spec.factor}",
                "kill": "",
                "partition": "",
                "lag": f"factor={spec.factor}",
            }[spec.kind]
            cap = f" max={spec.max_triggers}" if spec.max_triggers else ""
            lines.append(
                f"  {spec.site}: {spec.kind} @ rate {spec.rate:g}"
                + (f" ({extra})" if extra else "")
                + cap
            )
        return "\n".join(lines)
