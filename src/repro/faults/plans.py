"""Named fault plans and the env-var-driven global injector.

The CI ``chaos`` job sets ``REPRO_FAULT_PLAN=<name>`` to enable a low-rate
global plan for every hook point that was not given an explicit injector;
``python -m repro.faults <name>`` replays a plan against a synthetic race.
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "NAMED_PLANS",
    "SITE_FAMILIES",
    "get_plan",
    "plan_names",
    "global_injector",
    "install_global",
    "resolve_injector",
]

#: Every fault-site family the codebase consults, pattern -> what a spec
#: matching it injects into. The ``python -m repro.faults --sites``
#: listing prints this table; keep it in sync when adding hook points.
SITE_FAMILIES: dict[str, str] = {
    "synth.audio|video|text": "synthesis streams (corrupt: dropouts, "
    "frozen frames, garbled captions)",
    "extract.stream:<name>": "per-feature-stream extraction "
    "(corrupt/drop)",
    "extract.audio|visual|text": "whole-modality extraction (fail)",
    "extractor:<method>": "dynamic extraction methods (fail/stall/delay)",
    "kernel.command:<name>": "kernel command dispatch (fail/delay)",
    "moa.invoke:<ext>.<op>": "Moa operator invocation (fail/delay)",
    "wal.append:<point>": "WAL append crash points (kill)",
    "wal.commit:<point>": "WAL commit crash points (kill)",
    "checkpoint:<point>": "checkpoint crash points (kill)",
    "journal.append:<point>": "placement journal append crash points "
    "(kill)",
    "service.submit:<kind>": "service admission (burst: duplicate "
    "arrivals)",
    "replication.link:<replica>": "WAL shipping links (partition/lag)",
    "replication.probe:<primary>": "group health probes (fail/kill)",
    "sharding.transport:<shard>": "shard scatter transports "
    "(partition -> request lost, lag -> hedged backup read, "
    "kill -> shard crash mid-scatter, fail/delay)",
    "sharding.place:prepared|registered": "two-phase document placement "
    "crash points (kill between journal prepare and commit)",
    "sharding.migrate:<video>": "per-document migration copy/catch-up "
    "fault sites (kill before the bulk copy, fail/delay)",
    "migration:planned|copied|cutover|retired": "migration protocol "
    "crash points, one after each phase's journal record (kill)",
}

#: Environment variable naming the plan behind :func:`global_injector`.
ENV_VAR = "REPRO_FAULT_PLAN"

NAMED_PLANS: dict[str, FaultPlan] = {
    # Non-failing background noise for running tolerant suites under chaos:
    # mild stream corruption plus sub-millisecond kernel delays. Nothing
    # raises, so strict pipelines still complete.
    "ci-low-rate": FaultPlan(
        seed=2002,
        name="ci-low-rate",
        specs=(
            FaultSpec(site="extract.stream:f*", kind="corrupt", rate=0.02, severity=0.1),
            FaultSpec(site="kernel.command:*", kind="delay", rate=0.005, delay=0.001),
        ),
    ),
    # The acceptance scenario of ISSUE 2: one full modality gone plus 5 %
    # transient kernel-command failures.
    "modality-drop": FaultPlan(
        seed=55,
        name="modality-drop",
        specs=(
            FaultSpec(site="extract.visual", kind="fail", rate=1.0, transient=False),
            FaultSpec(site="kernel.command:*", kind="fail", rate=0.05, transient=True),
        ),
    ),
    # Transient kernel glitches only — exercised against retry policies.
    "kernel-transient": FaultPlan(
        seed=7,
        name="kernel-transient",
        specs=(
            FaultSpec(site="kernel.command:*", kind="fail", rate=0.05, transient=True),
        ),
    ),
    # One simulated process kill mid-commit: WAL records written, commit
    # marker not yet — recovery must discard the in-flight transaction.
    # Exercised by tests/test_crash_recovery.py (repro.chaos's durability
    # scenario covers every other crash site).
    "crash-commit": FaultPlan(
        seed=11,
        name="crash-commit",
        specs=(
            FaultSpec(site="wal.commit:mid", kind="kill", max_triggers=1),
        ),
    ),
    # The ISSUE-5 acceptance scenario: every submission to the service is
    # amplified 4x (factor=3 extra clones per arrival) while the video
    # extractor lane wedges in cancellable stalls — drives the queue to
    # saturation so shed-oldest and drain paths are exercised. Used by
    # repro.chaos's overload scenario.
    "overload-burst": FaultPlan(
        seed=41,
        name="overload-burst",
        specs=(
            FaultSpec(site="service.submit:*", kind="burst", rate=1.0, factor=3),
            FaultSpec(site="extractor:*", kind="stall", rate=0.5, delay=0.02),
        ),
    ),
    # The ISSUE-8 acceptance scenario: shards die mid-scatter. shard-1 is
    # killed outright while shard-0 straggles (a lag trigger the gather
    # answers through a hedged backup read) — a fan-out query must return
    # a degraded result with an exact ShardCoverageReport, never raise.
    # Used by tests/test_sharding.py; the richer two-kill scenario (dead
    # shard + in-shard failover) is repro.chaos's shard-death scenario.
    "shard-death": FaultPlan(
        seed=77,
        name="shard-death",
        specs=(
            FaultSpec(site="sharding.transport:shard-1", kind="kill", max_triggers=1),
            FaultSpec(site="sharding.transport:shard-0", kind="lag", factor=2, max_triggers=1),
        ),
    ),
    # The full broadcast-from-hell: audio dropouts, frame loss, garbled
    # chyrons, stream corruption, transient kernel/extractor failures.
    "chaos": FaultPlan(
        seed=1999,
        name="chaos",
        specs=(
            FaultSpec(site="synth.audio", kind="corrupt", rate=1.0, severity=0.05),
            FaultSpec(site="synth.video", kind="corrupt", rate=1.0, severity=0.03),
            FaultSpec(site="synth.text", kind="corrupt", rate=0.3, severity=0.4),
            FaultSpec(site="extract.stream:f*", kind="corrupt", rate=0.05, severity=0.2),
            FaultSpec(site="extract.stream:f1", kind="drop", rate=1.0, max_triggers=1),
            FaultSpec(site="kernel.command:*", kind="fail", rate=0.05, transient=True),
            FaultSpec(site="extractor:*", kind="fail", rate=0.2, transient=True),
            FaultSpec(site="moa.invoke:*", kind="delay", rate=0.05, delay=0.002),
        ),
    ),
}


def plan_names() -> list[str]:
    return sorted(NAMED_PLANS)


def get_plan(name: str) -> FaultPlan:
    try:
        return NAMED_PLANS[name]
    except KeyError:
        raise ReproError(
            f"unknown fault plan {name!r}; known plans: {plan_names()}"
        ) from None


# ---------------------------------------------------------------------------
# global injector
# ---------------------------------------------------------------------------

_NULL_INJECTOR = FaultInjector.disabled()
#: The installed global injector, or None when the env var decides lazily.
_GLOBAL: FaultInjector | None = None
_GLOBAL_FROM_ENV: str | None = None


def install_global(injector: "FaultInjector | FaultPlan | None") -> FaultInjector:
    """Install (or clear, with ``None``) the process-wide injector.

    Passing ``None`` reverts to the ``REPRO_FAULT_PLAN`` env-var behaviour.
    """
    global _GLOBAL, _GLOBAL_FROM_ENV
    if injector is None:
        _GLOBAL = None
        _GLOBAL_FROM_ENV = None
        return _NULL_INJECTOR
    if isinstance(injector, FaultPlan):
        injector = FaultInjector(injector)
    _GLOBAL = injector
    _GLOBAL_FROM_ENV = None
    return injector


def global_injector() -> FaultInjector:
    """The process-wide injector consulted when no explicit one is given.

    Explicitly installed injectors win; otherwise ``REPRO_FAULT_PLAN``
    names a plan from :data:`NAMED_PLANS` (re-read when the variable
    changes, so tests can monkeypatch it). Disabled by default.
    """
    global _GLOBAL, _GLOBAL_FROM_ENV
    env = os.environ.get(ENV_VAR) or None
    if _GLOBAL is not None and _GLOBAL_FROM_ENV is None:
        return _GLOBAL
    if env != _GLOBAL_FROM_ENV:
        _GLOBAL = FaultInjector(get_plan(env)) if env else None
        _GLOBAL_FROM_ENV = env
    return _GLOBAL if _GLOBAL is not None else _NULL_INJECTOR


def resolve_injector(injector: "FaultInjector | FaultPlan | None") -> FaultInjector:
    """Normalize a hook-point argument: explicit wins, else the global one."""
    if injector is None:
        return global_injector()
    if isinstance(injector, FaultPlan):
        return FaultInjector(injector)
    return injector
