"""The ``overload`` scenario: the query service driven to saturation.

The ``overload-burst`` fault plan amplifies every submission 4x while the
extractor lane wedges in cancellable stalls, against a *durable* kernel.
The acceptance bar of the service layer:

* **no silent drops** — every request ends in a terminal status, and
  every non-completed one carries a typed reason;
* **zero lost WAL commits** — every document whose registration
  completed is recoverable from the store after the drain checkpoint;
* **bounded admission latency** — p99 queue wait stays under
  :data:`P99_BOUND`.

The payload is the :class:`ServiceReport` (admissions, sheds,
rejections, completions — everything but wall-clock latencies) and the
registrations that committed, so the run-twice check replays all of it.
"""

from __future__ import annotations

from pathlib import Path

from repro.chaos.harness import ChaosReport
from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
from repro.cobra.model import RawVideo, VideoDocument
from repro.cobra.vdbms import CobraVDBMS
from repro.durability import DurableStore
from repro.errors import OverloadError
from repro.faults import FaultInjector, get_plan
from repro.service import Priority, QueryService, ServiceConfig
from repro.synth.annotations import Interval

__all__ = ["CAPACITY", "P99_BOUND", "scenario"]

#: Admission queue size: two waves of 16 arrivals are 4x saturation.
CAPACITY = 8

#: Ceiling on the p99 admission latency, in seconds.
P99_BOUND = 5.0


def _document(video_id: str) -> VideoDocument:
    document = VideoDocument(
        raw=RawVideo(video_id, f"synthetic://{video_id}", 120.0, 10.0, 192, 144, 16000)
    )
    document.new_event("highlight", Interval(9, 20), 0.8, source="dbn")
    return document


def _knowledge() -> DomainKnowledge:
    def extract(document):
        return [
            document.new_event(
                "excited_speech", Interval(5, 9), 0.7, source="dbn"
            )
        ]

    return DomainKnowledge(
        "f1",
        methods=[
            ExtractionMethod("chaos_dbn", ("excited_speech",), extract, quality=0.8)
        ],
    )


def scenario(store_dir: Path, fsync: bool) -> ChaosReport:
    """One seeded overload run against a durable kernel in ``store_dir``."""
    injector = FaultInjector(get_plan("overload-burst"))
    db = CobraVDBMS(
        store=DurableStore(store_dir, faults=injector, fsync=fsync),
        faults=injector,
    )
    db.register_domain(_knowledge())
    service = QueryService(
        db, ServiceConfig(queue_capacity=CAPACITY, shed_policy="oldest")
    )

    # Two waves of 4 real arrivals each; the burst plan turns every one
    # into 4 (1 real + 3 clones), i.e. 16 arrivals per wave against a
    # queue of CAPACITY, so shed-oldest must engage. Wave 1 registers
    # documents (WAL commits), wave 2 queries them (stalled extraction).
    registers: dict[int, str] = {}
    for index in range(4):
        video_id = f"race{index}"
        try:
            ticket = service.submit_register(_document(video_id), "f1")
            registers[ticket.seq] = video_id
        except OverloadError:
            pass  # typed rejection, on the record
    service.run_until_idle()
    for index in range(4):
        try:
            service.submit_query(
                f"RETRIEVE excited_speech FROM race{index % 4}",
                priority=Priority.INTERACTIVE,
            )
        except OverloadError:
            pass
    service.run_until_idle()
    report = service.shutdown(deadline=5.0)
    db.close()

    committed = [
        video_id
        for seq, video_id in sorted(registers.items())
        if report.records[seq].status == "completed"
    ]
    # clones that completed also committed their video
    for record in report.records:
        if (
            record.kind == "register"
            and record.status == "completed"
            and record.clone_of in registers
        ):
            video_id = registers[record.clone_of]
            if video_id not in committed:
                committed.append(video_id)

    failures: list[str] = []
    if not report.all_terminal:
        limbo = [r for r in report.records if r.status in ("queued", "running")]
        failures.append(f"requests left in limbo: {limbo}")
    for record in report.records:
        if record.status in ("failed",) and not record.detail:
            failures.append(f"untyped failure on record #{record.seq}")
    if report.shed + report.rejected == 0:
        failures.append(
            "burst at 4x capacity shed/rejected nothing - overload "
            "controls did not engage"
        )
    if report.completed == 0:
        failures.append("nothing completed - the service made no progress")
    p99 = report.p99_admission_latency()
    if p99 > P99_BOUND:
        failures.append(f"p99 admission latency {p99:.3f}s > {P99_BOUND}s")

    # zero lost WAL commits: every completed registration survives
    state = DurableStore(store_dir).recover()
    recovered_events = state.catalog.get("meta_event_video_id")
    recovered_videos = (
        set(recovered_events.tails()) if recovered_events is not None else set()
    )
    for video_id in committed:
        if video_id not in recovered_videos:
            failures.append(
                f"registration of {video_id!r} completed but is absent "
                f"after recovery - lost WAL commit"
            )
    return ChaosReport(
        {"report": report.to_dict(), "committed": committed}, failures
    )
