"""The ``durability`` scenario: kill the single-node write path at every
crash point and recover.

The crash model is a *process kill*: a ``kind="kill"`` fault raises
:class:`repro.errors.SimulatedCrash` at a named crash point inside the WAL
or checkpoint write path, the "process" (the kernel object) is abandoned,
and a fresh :class:`DurableStore` recovers from whatever reached the file
system. Bytes already written survive the kill (page-cache loss is not
modelled); torn records are manufactured for real by the WAL writer's
split-write protocol around ``wal.append:mid``.

Every crash point is classified by what the last mutation's fate must be
after recovery:

* ``durable`` — the record (or commit marker) reached the file before the
  kill, so the mutation MUST be present after recovery;
* ``absent`` — the kill preceded the record (or tore it, or left a commit
  batch without its marker), so the mutation MUST NOT be present;
* ``neutral`` — checkpoint-path kills: checkpoints never change the logical
  catalog, so recovery must return exactly the pre-kill committed state.

:func:`sweep` runs a fixed six-step workload once per crash point, kills
at that point, recovers, and compares the recovered catalog against the
expected model — structurally via :meth:`BAT.equals` and byte-for-byte on
the numeric tail arrays. Any surviving uncommitted transaction, lost
committed mutation, or resurrected rolled-back state is a sweep failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.chaos import fixtures
from repro.chaos.harness import ChaosReport, kill_sweep
from repro.durability.store import DurableStore
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel

__all__ = ["ABSENT", "CRASH_SITES", "DURABLE", "NEUTRAL", "crash_site", "sweep"]

DURABLE = "durable"
ABSENT = "absent"
NEUTRAL = "neutral"

#: Every named crash point, classified by the required post-recovery fate
#: of the mutation in flight when the kill fires.
CRASH_SITES: dict[str, str] = {
    "wal.append:before": ABSENT,
    "wal.append:mid": ABSENT,  # record torn in half; recovery truncates it
    "wal.append:written": DURABLE,
    "wal.append:synced": DURABLE,
    "wal.commit:begin": ABSENT,
    "wal.commit:mid": ABSENT,  # batch without its commit marker: discarded
    "wal.commit:marker": DURABLE,
    "wal.commit:synced": DURABLE,
    "checkpoint:before": NEUTRAL,
    "checkpoint:temp-written": NEUTRAL,
    # renamed over the old checkpoint but the directory entry is not yet
    # fsynced — the window the parent-directory fsync exists to cover
    "checkpoint:replaced": NEUTRAL,
    "checkpoint:renamed": NEUTRAL,
    "checkpoint:truncated": NEUTRAL,
}


@dataclass
class _Step:
    """One workload step: mutate the kernel, and (on success or a
    ``durable``-classified kill) the expected model."""

    name: str
    run: Callable[[MonetKernel], None]
    commit: Callable[[dict[str, BAT], set[str]], None]


def _txn_insert(kernel: MonetKernel) -> None:
    with kernel.transaction():
        kernel.persist("driver", fixtures.drivers())
        kernel.bat("lap_time").insert(77.512)


def _txn_insert_model(model: dict[str, BAT], procs: set[str]) -> None:
    model["driver"] = fixtures.drivers()
    model["lap_time"] = fixtures.laps_extended()


def _txn_drop(kernel: MonetKernel) -> None:
    with kernel.transaction():
        kernel.drop("driver")
        kernel.persist("pit_stop", fixtures.pits())


def _txn_drop_model(model: dict[str, BAT], procs: set[str]) -> None:
    del model["driver"]
    model["pit_stop"] = fixtures.pits()


def _workload() -> list[_Step]:
    """Auto-commit persists, transactions (insert and drop), a PROC
    definition, and a checkpoint — in an order that puts each crash-site
    family's first trigger in a known step."""
    return [
        _Step(
            "persist lap_time (auto-commit)",
            lambda k: k.persist("lap_time", fixtures.laps()),
            lambda m, p: m.__setitem__("lap_time", fixtures.laps()),
        ),
        _Step("txn: persist driver + insert lap", _txn_insert, _txn_insert_model),
        _Step(
            "define PROC bestLap",
            lambda k: k.run(fixtures.PROC_SOURCE),
            lambda m, p: p.add("bestLap"),
        ),
        _Step("checkpoint", lambda k: k.checkpoint(), lambda m, p: None),
        _Step("txn: drop driver + persist pit_stop", _txn_drop, _txn_drop_model),
        _Step(
            "persist final_ranking (auto-commit)",
            lambda k: k.persist("final_ranking", fixtures.ranking()),
            lambda m, p: m.__setitem__("final_ranking", fixtures.ranking()),
        ),
    ]


def crash_site(
    store_dir: Path, site: str, faults: FaultInjector, fsync: bool
) -> ChaosReport:
    """Run the workload until the kill at ``site``, then recover and
    compare against the expected committed state."""
    classification = CRASH_SITES[site]
    store = DurableStore(store_dir, faults=faults, fsync=fsync)
    # check="warn": the sweep verifies crash consistency, not MIL style
    kernel = MonetKernel(check="warn", store=store)

    model: dict[str, BAT] = {}
    expected_procs: set[str] = set()
    crashed = False
    crashed_step: str | None = None
    for step in _workload():
        try:
            step.run(kernel)
        except SimulatedCrash:
            crashed = True
            crashed_step = step.name
            if classification == DURABLE:
                step.commit(model, expected_procs)
            break
        step.commit(model, expected_procs)
    # the killed "process" is abandoned; release its file handle (the kill
    # is simulated in-process, so the descriptor would otherwise leak)
    kernel.close()

    state = DurableStore(store_dir, fsync=fsync).recover()
    failures = compare_catalogs(model, state.catalog)
    missing_procs = expected_procs - set(state.definitions)
    if missing_procs:
        failures.append(f"committed PROC(s) lost: {sorted(missing_procs)}")
    return ChaosReport(
        payload={
            "site": site,
            "classification": classification,
            "crashed": crashed,
            "crashed_step": crashed_step,
            "transactions_committed": state.report.transactions_committed,
            "transactions_discarded": state.report.transactions_discarded,
        },
        failures=failures,
    )


def sweep(base: Path, fsync: bool) -> list[ChaosReport]:
    """Kill at every crash point in turn; every run must recover to exactly
    the last committed state (the acceptance bar for the durability layer)."""
    return kill_sweep(base, CRASH_SITES, crash_site, fsync)
