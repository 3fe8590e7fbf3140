"""The ``shard-death`` and ``migration`` scenarios of the sharded fleet.

:func:`shard_death` drives one deterministic disaster across a
three-shard fleet (one replica per shard):

1. six documents are registered (the placement spread over the shards is
   a pure function of the video ids and the ring) and shipped to the
   replicas;
2. a fan-out gather runs while the plan fires on the shard transports:
   ``shard-0`` lags (answered through a **hedged** replica read),
   ``shard-1`` is killed with its replica partitioned (in-shard failover
   finds nobody to promote — the shard is **dead**), and ``shard-2`` is
   killed with its replica reachable (the shard **fails over** internally
   and survives). The gather must return a degraded result whose
   :class:`repro.sharding.ShardCoverageReport` matches the expected
   report *exactly* — never an unhandled exception;
3. the same query under a ``min_coverage=0.9`` floor must fail loudly
   with a typed :class:`repro.errors.InsufficientCoverageError`;
4. a new document owned by the failed-over shard is registered: the
   fleet's cached lease predates the promotion, so the write must fence
   and be retried under a fresh lease (``fenced_retries == 1``);
5. the fleet rebalances: the dead shard's documents move to their ring
   successors in journal order, a follow-up gather covers the full
   corpus again, and every surviving shard's catalog must converge
   byte-for-byte against a reference rebuild.

:func:`placement_sweep` separately crashes document registration at each
two-phase crash point (``sharding.place:prepared`` — journal record
written, rows not yet on the shard; ``sharding.place:registered`` — rows
durable, commit record missing) and at the journal's own four
(``journal.append:*``, once inside the ``prepare`` append and once inside
the ``commit`` append), and verifies recovery resolves the registration
as :data:`PLACEMENT_KILL_SITES` says it must.

:func:`split_under_load` exercises the online-split machinery of
:mod:`repro.sharding.migration`: a third shard joins a live two-shard
fleet and the remapped documents migrate while queries and writes keep
arriving. Mid-copy the migrating document's source shard is partitioned
and the gather must answer the document through a **dual read** against
the half-built destination copy (``dual_read > 0`` on the coverage
report, coverage still at or above the floor); a write routed during the
copy leaves the destination lagging, so cutover is refused with a typed
:class:`repro.errors.MigrationLagError` until catch-up drains the tail;
a write intent captured before the cutover must fence
(:class:`repro.errors.FencedWriteError`) and be retried once against the
new owner. :func:`migration_sweep` then crashes the split at every
protocol kill point (:data:`MIGRATION_KILL_SITES`) and verifies recovery
plus an idempotent re-split land on placements, query answers, and
convergence byte-identical to a run that never crashed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chaos.harness import ChaosReport, kill_sweep
from repro.cobra.model import RawVideo, VideoDocument, VideoObject
from repro.durability.wal import JOURNAL_MAGIC, read_records
from repro.errors import (
    FencedWriteError,
    InsufficientCoverageError,
    MigrationLagError,
    SimulatedCrash,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sharding.fleet import (
    JOURNAL_FILE,
    ShardConfig,
    ShardCoverageReport,
    ShardedKernel,
)
from repro.synth.annotations import Interval

__all__ = [
    "MIGRATION_KILL_SITES",
    "PLACEMENT_KILL_SITES",
    "migration_sweep",
    "placement_sweep",
    "shard_death",
    "split_under_load",
]

_ABORTED = ["prepare", "abort"]
_COMMITTED = ["prepare", "commit"]

#: The registration crash points the placement sweep kills at — the two
#: between the phases, then the journal append's four, ``<site>@<record>``
#: killing inside the append of that record — each with what recovery must
#: do about the registration in flight and the journal it must leave. An
#: absent or torn ``prepare`` leaves nothing (the torn half is cut off); a
#: durable one without rows rolls back; durable rows roll forward whether
#: the ``commit`` is absent or torn.
PLACEMENT_KILL_SITES = {
    "sharding.place:prepared": ("rolled back", _ABORTED),
    "sharding.place:registered": ("rolled forward", _COMMITTED),
    "journal.append:before@prepare": ("found nothing journaled", []),
    "journal.append:mid@prepare": ("found nothing journaled", []),
    "journal.append:written@prepare": ("rolled back", _ABORTED),
    "journal.append:synced@prepare": ("rolled back", _ABORTED),
    "journal.append:before@commit": ("rolled forward", _COMMITTED),
    "journal.append:mid@commit": ("rolled forward", _COMMITTED),
    "journal.append:written@commit": ("found it committed", _COMMITTED),
    "journal.append:synced@commit": ("found it committed", _COMMITTED),
}

#: The migration crash points the split sweep kills at: one after each
#: protocol phase's journal record, plus the per-document copy site of
#: the first document the sweep's split migrates (``sorted`` order over
#: the remapped set, so ``race2`` on this corpus).
MIGRATION_KILL_SITES = (
    "migration:planned",
    "migration:copied",
    "migration:cutover",
    "migration:retired",
    "sharding.migrate:race2",
)

#: The corpus: placement over three shards is a pure function of these
#: ids (race1/race4 -> shard-0; race0/race3/race5 -> shard-1;
#: race2 -> shard-2 on the default ring).
_VIDEO_IDS = ("race0", "race1", "race2", "race3", "race4", "race5")

#: Registered after shard-2's failover; owned by shard-2, so the write
#: must travel the fenced-retry path.
_LATE_VIDEO = "race7"


def _document(video_id: str) -> VideoDocument:
    doc = VideoDocument(
        raw=RawVideo(video_id, "synthetic://f1", 100.0, 10.0, 192, 144, 16000)
    )
    doc.add_object(VideoObject(f"{video_id}/d1", "driver", "HAKKINEN"))
    doc.new_event(
        "fly_out", Interval(10, 18), 0.9, {"driver": f"{video_id}/d1"}, "dbn"
    )
    return doc


def shard_death(base_dir: Path, fsync: bool) -> ChaosReport:
    """Run the kill-shards-mid-scatter disaster once."""
    plan = FaultPlan(
        name="shard-death-chaos",
        specs=(
            # shard-0 straggles once: the gather hedges a replica read
            FaultSpec(
                site="sharding.transport:shard-0",
                kind="lag",
                factor=2,
                max_triggers=1,
            ),
            # shard-1 dies with its replica partitioned: nobody to promote
            FaultSpec(
                site="sharding.transport:shard-1",
                kind="kill",
                max_triggers=1,
            ),
            # shard-2 dies with its replica reachable: in-shard failover
            FaultSpec(
                site="sharding.transport:shard-2",
                kind="kill",
                max_triggers=1,
            ),
        ),
    )
    payload = {
        "degraded_coverage": {},
        "degraded_records": 0,
        "floor_error": {},
        "fenced_retries": 0,
        "moves": [],
        "final_coverage": {},
        "dead": [],
        "epochs": {},
    }
    report = ChaosReport(payload)
    events = report.events
    failures = report.failures

    fleet = ShardedKernel(
        base_dir,
        shards=3,
        config=ShardConfig(
            min_coverage=0.25, replication=1, fsync=fsync
        ),
        faults=FaultInjector(plan),
    )
    for video_id in _VIDEO_IDS:
        fleet.register_document(_document(video_id), "formula1")
    fleet.pump()
    events.append(f"registered {len(_VIDEO_IDS)} document(s); replicas caught up")

    # shard-1's replica link is administratively severed: when the kill
    # lands, its in-shard failover must find nobody to promote
    fleet.shard("shard-1").group.partition("shard-1-r0")
    events.append("shard-1's replica partitioned (failover will find nobody)")

    # ---- the degraded gather -----------------------------------------
    result = fleet.query("RETRIEVE fly_out")
    coverage = result.coverage
    payload["degraded_coverage"] = coverage.to_dict()
    payload["degraded_records"] = len(result.records)
    events.append(f"gather under fire: {coverage.describe()}")
    expected = ShardCoverageReport(
        plan="sequential",
        targeted=("shard-0", "shard-1", "shard-2"),
        answered=("shard-0",),
        hedged=("shard-0",),
        shed=(),
        timed_out=("shard-2",),
        dead=("shard-1",),
        documents_total=6,
        documents_covered=2,
    )
    if coverage != expected:
        failures.append(
            f"degraded coverage report mismatch: expected "
            f"{expected.to_dict()}, got {coverage.to_dict()}"
        )
    if not result.degraded:
        failures.append("a 2/6-coverage result did not report degraded")
    if payload["degraded_records"] != 2:
        failures.append(
            f"expected 2 record(s) from the surviving shard, got "
            f"{payload['degraded_records']}"
        )

    # ---- the coverage floor ------------------------------------------
    try:
        fleet.query("RETRIEVE fly_out", min_coverage=0.9)
        failures.append(
            "a 0.5-coverage gather under a 0.9 floor did not raise "
            "InsufficientCoverageError"
        )
    except InsufficientCoverageError as exc:
        payload["floor_error"] = {
            "coverage": round(exc.coverage, 6),
            "required": exc.required,
        }
        events.append(f"floor held: {exc}")
        if exc.report is None or abs(exc.coverage - 0.5) > 1e-9:
            failures.append(
                f"floor error should carry the 0.5-coverage report, got "
                f"coverage {exc.coverage}"
            )

    # ---- the fenced retry --------------------------------------------
    # race7 is owned by shard-2, which failed over mid-scatter: the
    # fleet's cached lease predates the promotion and must fence once
    fleet.register_document(_document(_LATE_VIDEO), "formula1")
    payload["fenced_retries"] = fleet.fenced_retries
    if fleet.fenced_retries != 1:
        failures.append(
            f"expected exactly 1 fenced write retry after shard-2's "
            f"failover, got {fleet.fenced_retries}"
        )
    events.append(
        f"late registration of {_LATE_VIDEO!r} fenced and retried under a "
        f"fresh lease"
    )

    # ---- rebalance + convergence -------------------------------------
    rebalance = fleet.rebalance()
    moves = payload["moves"] = [list(move) for move in rebalance.moves]
    events.append(f"rebalanced: {moves}")
    if {move[1] for move in rebalance.moves} != {"shard-1"}:
        failures.append(
            f"rebalance must move exactly the dead shard's documents, "
            f"moved {moves}"
        )
    if sorted(move[0] for move in rebalance.moves) != [
        "race0", "race3", "race5",
    ]:
        failures.append(
            f"expected race0/race3/race5 to leave shard-1, moved {moves}"
        )

    final = fleet.query("RETRIEVE fly_out")
    payload["final_coverage"] = final.coverage.to_dict()
    if not final.coverage.complete:
        failures.append(
            f"post-rebalance gather is not complete: "
            f"{final.coverage.describe()}"
        )
    if "shard-1" in final.coverage.targeted:
        failures.append("post-rebalance gather still targets the dead shard")
    if len(final.records) != 7:
        failures.append(
            f"expected all 7 record(s) after rebalance, got "
            f"{len(final.records)}"
        )

    fleet.pump()
    failures.extend(fleet.convergence_report())

    status = fleet.status()
    dead = payload["dead"] = fleet.dead_shards()
    epochs = payload["epochs"]
    for shard_status in status.shards:
        epochs[shard_status.name] = shard_status.epoch
    if dead != ["shard-1"]:
        failures.append(f"expected exactly shard-1 dead, got {dead}")
    if epochs.get("shard-2") != 2:
        failures.append(
            f"expected shard-2 at epoch 2 after its in-shard failover, "
            f"got {epochs.get('shard-2')}"
        )
    events.append("surviving catalogs converged byte-for-byte")
    fleet.close()
    return report


def _placement_site(
    scratch: Path, label: str, faults: FaultInjector, fsync: bool
) -> ChaosReport:
    """Crash one registration at ``label``; recovery must resolve the
    registration in flight as :data:`PLACEMENT_KILL_SITES` lists."""
    resolution, journal_after = PLACEMENT_KILL_SITES[label]
    failures: list[str] = []
    fleet = ShardedKernel(
        scratch, shards=2, config=ShardConfig(fsync=fsync), faults=faults
    )
    try:
        fleet.register_document(_document("race0"), "formula1")
    except SimulatedCrash:
        pass
    fleet.close()

    # reopen: recovery must resolve the in-doubt placement
    recovered = ShardedKernel(scratch, shards=2, config=ShardConfig(fsync=fsync))
    placements = recovered.placements()
    rows_durable = journal_after == _COMMITTED
    if rows_durable and "race0" not in placements:
        failures.append(
            "rows reached the owning shard before the crash but "
            "recovery rolled the placement back"
        )
    if not rows_durable and placements:
        failures.append(
            f"no rows reached any shard but recovery committed {placements}"
        )
    if not rows_durable and any(
        recovered._shard_has_rows(name, "race0")
        for name in recovered.shard_names()
    ):
        failures.append("the registration never took effect but left rows")
    journal = read_records(scratch / JOURNAL_FILE, magics=(JOURNAL_MAGIC,))
    ops = [entry["op"] for entry in journal.records]
    if journal.corruption or ops != journal_after:
        failures.append(
            f"recovery should leave the journal at {journal_after} with "
            f"no torn tail, found {ops} ({journal.corruption or 'clean'})"
        )
    # re-registration must complete (or idempotently restore) the
    # placement either way, and the catalogs must converge
    recovered.register_document(_document("race0"), "formula1")
    if "race0" not in recovered.placements():
        failures.append("re-registration after recovery did not place")
    failures.extend(recovered.convergence_report())
    recovered.close()
    return ChaosReport(
        {"site": label, "resolution": resolution, "placements": placements},
        failures,
    )


def placement_sweep(base: Path, fsync: bool) -> list[ChaosReport]:
    """Crash registration at each of :data:`PLACEMENT_KILL_SITES`."""
    return kill_sweep(base, PLACEMENT_KILL_SITES, _placement_site, fsync)


# ---------------------------------------------------------------------------
# online split under load
# ---------------------------------------------------------------------------

#: The split corpus: on the two-shard ring shard-0 owns race1/race4/
#: race6/race9 and shard-1 the rest; adding shard-2 remaps race2, race7,
#: race8 (from shard-1) and race9 (from shard-0).
_SPLIT_VIDEO_IDS = tuple(f"race{i}" for i in range(10))

#: The document migrated by hand mid-scenario (the first of the remapped
#: set in sorted order, owned by shard-1).
_SPLIT_PILOT = "race2"


def split_under_load(base_dir: Path, fsync: bool) -> ChaosReport:
    """Run the online-split disaster once.

    The pilot document migrates by hand so every mid-flight contract is
    observable — dual read while its source is partitioned, cutover
    refused above the lag floor, the stale write intent fenced — then an
    idempotent :meth:`ShardedKernel.split` finishes the remaining moves.
    """
    plan = FaultPlan(
        name="split-under-load",
        specs=(
            # the pilot's *source* shard drops off the network for exactly
            # one gather — fired by the first query below, mid-copy, so
            # the pilot must be answered through the destination copy
            FaultSpec(
                site="sharding.transport:shard-1",
                kind="partition",
                max_triggers=1,
            ),
        ),
    )
    payload = {
        "remapped": [],
        "dual_read_coverage": {},
        "dual_read_records": 0,
        "lag_refusal": {},
        "fenced_retries": 0,
        "moves": [],
        "final_coverage": {},
        "routing_epoch": 0,
    }
    report = ChaosReport(payload)
    events = report.events
    failures = report.failures

    fleet = ShardedKernel(
        base_dir,
        shards=2,
        config=ShardConfig(min_coverage=0.25, fsync=fsync),
        faults=FaultInjector(plan),
    )
    documents = {}
    for video_id in _SPLIT_VIDEO_IDS:
        documents[video_id] = _document(video_id)
        fleet.register_document(documents[video_id], "formula1")
    events.append(f"registered {len(_SPLIT_VIDEO_IDS)} document(s)")

    # ---- the shard joins; the pilot's copy phase opens ----------------
    remapped = fleet.add_shard("shard-2")
    payload["remapped"] = list(remapped)
    events.append(f"shard-2 joined; remapped {remapped}")
    if remapped != ["race2", "race7", "race8", "race9"]:
        failures.append(
            f"ring remap is not the expected minimal set: {remapped}"
        )
    migrations = fleet.migrations
    state = migrations.plan(_SPLIT_PILOT)
    migrations.copy(_SPLIT_PILOT)
    events.append(
        f"pilot {_SPLIT_PILOT!r} copied {state.src} -> {state.dst}; "
        f"source still owns reads"
    )

    # ---- dual read: the source is partitioned mid-copy ----------------
    result = fleet.query("RETRIEVE fly_out")
    coverage = result.coverage
    payload["dual_read_coverage"] = coverage.to_dict()
    payload["dual_read_records"] = len(result.records)
    events.append(f"gather with the source partitioned: {coverage.describe()}")
    if coverage.dual_read < 1:
        failures.append(
            f"the pilot should have been answered through a dual read, "
            f"coverage reports {coverage.dual_read}"
        )
    if coverage.migrating != 1:
        failures.append(
            f"one migration is in flight but coverage reports "
            f"{coverage.migrating}"
        )
    # shard-0's four documents plus the pilot through its destination copy
    if coverage.documents_covered != 5 or not result.degraded:
        failures.append(
            f"expected a degraded 5/10 answer (source shard lost, pilot "
            f"dual-read), got {coverage.documents_covered}/"
            f"{coverage.documents_total}"
        )
    pilot_rows = [
        row for row in result.records if row["video_id"] == _SPLIT_PILOT
    ]
    if len(pilot_rows) != 1:
        failures.append(
            f"the dual read must contribute the pilot exactly once, got "
            f"{len(pilot_rows)} row(s)"
        )

    # ---- bounded staleness: a write lands, cutover is refused ---------
    late_event = documents[_SPLIT_PILOT].new_event(
        "passing", Interval(30.0, 36.0), 0.8, {}, "dbn"
    )
    target = fleet.store_event(_SPLIT_PILOT, late_event)
    events.append(f"mid-copy write routed to owner {target!r}")
    if target != state.src:
        failures.append(
            f"a pre-cutover write must land on the source, went to "
            f"{target!r}"
        )
    try:
        migrations.cutover(_SPLIT_PILOT)
        failures.append("cutover above the lag floor was not refused")
    except MigrationLagError as exc:
        payload["lag_refusal"] = {"lag": exc.lag, "floor": exc.floor}
        events.append(f"cutover refused: {exc}")

    # ---- fenced cutover: a stale intent must not reach the source -----
    stale_intent = fleet.write_intent(_SPLIT_PILOT)
    migrations.catch_up(_SPLIT_PILOT)
    migrations.cutover(_SPLIT_PILOT)
    events.append("tail drained; ownership cut over; routing epoch bumped")
    fence_event = documents[_SPLIT_PILOT].new_event(
        "pit_stop", Interval(50.0, 58.0), 0.7, {}, "dbn"
    )
    try:
        stale_intent.apply(fence_event)
        failures.append("a pre-cutover write intent was honored afterwards")
    except FencedWriteError:
        events.append("stale pre-cutover intent fenced")
    retry_target = fleet.store_event(_SPLIT_PILOT, fence_event)
    payload["fenced_retries"] = fleet.migration_fenced_retries
    if retry_target != state.dst or payload["fenced_retries"] != 0:
        failures.append(
            f"a fresh post-cutover write should land on {state.dst!r} "
            f"without fencing, went to {retry_target!r} after "
            f"{payload['fenced_retries']} retry(ies)"
        )
    migrations.retire(_SPLIT_PILOT)
    events.append("pilot retired after byte-for-byte copy verification")

    # ---- the split finishes the remaining moves -----------------------
    split = fleet.split("shard-2")
    moves = payload["moves"] = [list(move) for move in split.moves]
    events.append(f"split completed: {moves}")
    if [move[0] for move in split.moves] != ["race7", "race8", "race9"]:
        failures.append(
            f"the idempotent split must migrate exactly the documents "
            f"the pilot left behind, moved {moves}"
        )

    final = fleet.query("RETRIEVE fly_out")
    payload["final_coverage"] = final.coverage.to_dict()
    if not final.coverage.complete or final.coverage.migrating:
        failures.append(
            f"post-split gather is not a complete, migration-free "
            f"answer: {final.coverage.describe()}"
        )
    if len(final.records) != len(_SPLIT_VIDEO_IDS):
        failures.append(
            f"expected all {len(_SPLIT_VIDEO_IDS)} record(s) after the "
            f"split, got {len(final.records)}"
        )
    payload["routing_epoch"] = fleet._routing_epoch
    if payload["routing_epoch"] != 5:
        failures.append(
            f"four cutovers should leave the routing epoch at 5, got "
            f"{payload['routing_epoch']}"
        )

    failures.extend(fleet.convergence_report())
    if not failures:
        events.append("catalogs converged byte-for-byte after the split")
    fleet.close()
    return report


def _split_fleet(
    scratch: Path, fsync: bool, faults: FaultInjector | None = None
) -> tuple[ShardedKernel, dict[str, VideoDocument]]:
    fleet = ShardedKernel(
        scratch,
        shards=2,
        config=ShardConfig(fsync=fsync),
        faults=faults,
    )
    documents = {}
    for video_id in _SPLIT_VIDEO_IDS:
        documents[video_id] = _document(video_id)
        fleet.register_document(documents[video_id], "formula1")
    return fleet, documents


def _records(fleet: ShardedKernel) -> str:
    return json.dumps(
        fleet.query("RETRIEVE fly_out").records,
        sort_keys=True,
        default=repr,  # Interval objects; repr is deterministic
    )


def migration_sweep(base: Path, fsync: bool) -> list[ChaosReport]:
    """Crash the split at each migration kill point; recovery plus an
    idempotent re-split must land byte-for-byte on the reference state.

    The reference run splits the same corpus with no faults; each crash
    run must recover to identical placements, identical query answers
    (every document exactly once — nothing lost, nothing duplicated) and
    an empty convergence report.
    """
    reference, _ = _split_fleet(base / "reference", fsync)
    reference.split("shard-2")
    ref_placements = reference.placements()
    ref_records = _records(reference)
    ref_convergence = reference.convergence_report()
    reference.close()
    if ref_convergence:
        return [
            ChaosReport(
                {
                    "site": "<reference>",
                    "resolution": "reference run failed to converge",
                    "resumed_moves": [],
                },
                list(ref_convergence),
            )
        ]

    def crash_split(
        scratch: Path, site: str, faults: FaultInjector, fsync: bool
    ) -> ChaosReport:
        failures: list[str] = []
        fleet, documents = _split_fleet(scratch, fsync, faults=faults)
        try:
            fleet.split("shard-2")
        except SimulatedCrash:
            pass
        fleet.close()

        # reopen: recovery sweeps every in-doubt migration forward or
        # back; the re-split then finishes whatever rolled back
        recovered = ShardedKernel(
            scratch, shards=2, config=ShardConfig(fsync=fsync)
        )
        in_doubt = recovered.migrations.in_flight()
        if in_doubt:
            failures.append(f"recovery left migrations in flight: {in_doubt}")
        for document in documents.values():
            recovered.register_document(document, "formula1")
        resumed = recovered.split("shard-2")
        resolution = (
            f"recovery rolled the in-doubt work to a verified state; "
            f"re-split moved {[m[0] for m in resumed.moves]}"
            if resumed.moves
            else "recovery rolled every move forward; re-split was a no-op"
        )
        if recovered.placements() != ref_placements:
            failures.append(
                f"placements diverged from the reference run: "
                f"{recovered.placements()} != {ref_placements}"
            )
        if _records(recovered) != ref_records:
            failures.append(
                "query answers diverged from the reference run (lost or "
                "duplicated document rows)"
            )
        failures.extend(recovered.convergence_report())
        recovered.close()
        return ChaosReport(
            {
                "site": site,
                "resolution": resolution,
                "resumed_moves": [list(m) for m in resumed.moves],
            },
            failures,
        )

    return kill_sweep(base, MIGRATION_KILL_SITES, crash_split, fsync)
