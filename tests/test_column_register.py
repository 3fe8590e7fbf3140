"""Registration a column at a time.

``MetadataStore`` lands a document's rows with one ``insert_bulk`` per
metadata BAT. These tests pin what that must not change — the bytes of the
WAL and of the checkpoint a fixed sequence of registrations, a rollback,
late events and checkpoints writes (digests captured before the column
writer existed) — and what it must: no per-row ``BAT.insert`` and a number
of bulk appends that does not grow with the document. They also cover the
writer's edges: a rejected registration leaves no document handle behind,
and the public ``append_events`` is what the fleet and its migrations
write late events through.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import pytest

import repro.monet.bat as bat_module
from repro.cobra.metadata import MetadataStore
from repro.cobra.model import RawVideo, VideoDocument, VideoEvent, VideoObject
from repro.durability import DurableStore
from repro.errors import AtomTypeError, CobraError
from repro.monet.bat import compare_catalogs
from repro.monet.kernel import MonetKernel
from repro.synth.annotations import Interval

LABELS = ("SCHUMACHER", "HÄKKINEN", "MONTOYA", "RÄIKKÖNEN")
CONFIDENCES = (0.5, 1.0, -0.0, math.nan, 0.1 + 0.2, 1e-7, math.inf, -0.25)
ROLE_SETS = (
    {},
    {"driver": "d0"},
    {"driver": "d1", "lap": "3"},
    {"p1": "d2", "p2": "d0", "lap": "12"},
    {"driver": "MONTOYA"},
)


def make_document(video_id: str, events: int, objects: int = 3) -> VideoDocument:
    """A document whose values are fixed by ``video_id``'s position and
    the counts: no randomness, so its bytes on disk are reproducible."""
    seed = sum(map(ord, video_id))
    document = VideoDocument(
        raw=RawVideo(video_id, f"synthetic://{video_id}", 120.0, 25.0, 192, 144, 16000)
    )
    for index in range(objects):
        document.add_object(
            VideoObject(
                f"d{index}",
                "driver" if index % 2 == 0 else "car",
                LABELS[(seed + index) % len(LABELS)],
            )
        )
    for index in range(events):
        start = (seed % 7) * 1.25 + index * 0.75
        document.events[f"{video_id}/e{index}"] = VideoEvent(
            f"{video_id}/e{index}",
            ("highlight", "fly_out", "passing", "pit_stop")[(seed + index) % 4],
            Interval(start, start + 0.5 + (index % 5) * 0.3),
            CONFIDENCES[(seed + index) % len(CONFIDENCES)],
            dict(ROLE_SETS[(seed + index) % len(ROLE_SETS)]),
            ("dbn", "text", "annotation")[index % 3],
        )
    return document


class Boom(Exception):
    """The failure the rolled-back registration raises."""


def write_pinned_store(path: Path) -> list[str]:
    """Three registrations, one rolled back, a checkpoint, two more
    registrations and a late event, a second checkpoint (which finds every
    metadata BAT grown since the first), one more registration. Returns
    the sha256 of the WAL before each checkpoint and at the end, and of
    each checkpoint, in the order they were written."""
    kernel = MonetKernel(threads=1, check="off", store=DurableStore(path, fsync=False))
    metadata = MetadataStore(kernel)
    digests: list[str] = []

    def checkpoint() -> None:
        digests.append(digest(path / "wal.log"))
        kernel.checkpoint()
        digests.append(digest(path / "checkpoint"))

    def register(document: VideoDocument) -> None:
        with kernel.transaction():
            metadata.register_document(document)

    for index in range(3):
        register(make_document(f"race{index}", events=8 + 5 * index))
    with pytest.raises(Boom):
        with kernel.transaction():
            metadata.register_document(make_document("doomed", events=6))
            raise Boom
    checkpoint()
    register(make_document("race3", events=11))
    register(make_document("race4", events=0, objects=0))
    late = VideoEvent("race1/late", "passing", Interval(3.5, 4.0), 0.75, {"p1": "d1"}, "rule")
    with kernel.transaction():
        metadata.store_event("race1", late)
    checkpoint()
    register(make_document("race5", events=4, objects=1))
    kernel.close()
    return [*digests, digest(path / "wal.log")]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: What :func:`write_pinned_store` returns, captured with the row-at-a-time
#: writer and the whole-catalog checkpoint encoder: the WAL before the first
#: checkpoint, the first checkpoint, the WAL before the second, the second
#: checkpoint, the final WAL.
PINNED = [
    "4bad84cadc5d67c0a358393f95e93cb46ac648c4d502f88c855400af930a7dbf",
    "1233414978d88a1be851727695053299a5c44896b9a73b52ede96663477c1660",
    "d40bbd0f96eff7cb2cd34c9bdc21f4dc7c96d91fe16c2308f6cebb16b5f0dc56",
    "e3f5130f408f274c6e1d13842b906290b3a8eb50b13e5a340d2550ac9c8da1d1",
    "2792de7adeab474c8b7e2f2985615e129e15732104ab3161c72a0b405c614ce0",
]


def test_a_fixed_write_sequence_writes_the_pinned_bytes(tmp_path):
    assert write_pinned_store(tmp_path / "s") == PINNED


def test_the_pinned_store_recovers_to_the_live_catalog(tmp_path):
    write_pinned_store(tmp_path / "s")
    kernel = MonetKernel(
        threads=1, check="off", store=DurableStore(tmp_path / "s", fsync=False)
    )
    live = MonetKernel(threads=1, check="off")
    metadata = MetadataStore(live)
    for document in (
        *(make_document(f"race{index}", events=8 + 5 * index) for index in range(3)),
        make_document("race3", events=11),
        make_document("race4", events=0, objects=0),
    ):
        metadata.register_document(document)
    metadata.store_event(
        "race1",
        VideoEvent("race1/late", "passing", Interval(3.5, 4.0), 0.75, {"p1": "d1"}, "rule"),
    )
    metadata.register_document(make_document("race5", events=4, objects=1))
    assert compare_catalogs(live.snapshot(), kernel.snapshot()) == []
    kernel.close()


# ----------------------------------------------------------------------
# how many writes a registration makes
# ----------------------------------------------------------------------
def count_writes(monkeypatch, events: int) -> dict[str, int]:
    """``BAT.insert`` and ``BAT.insert_bulk`` calls made by registering
    one document of ``events`` events in a transaction."""
    kernel = MonetKernel(threads=1, check="off")
    metadata = MetadataStore(kernel)
    calls = {"insert": 0, "insert_bulk": 0}
    for method in calls:
        original = getattr(bat_module.BAT, method)

        def counting(self, *args, _method=method, _original=original):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(bat_module.BAT, method, counting)
    with kernel.transaction():
        metadata.register_document(make_document(f"v{events}", events=events))
    monkeypatch.undo()
    assert len(kernel.bat("meta_event_event_id")) == events
    return calls


def test_a_registration_makes_no_row_insert_and_a_fixed_number_of_bulk_appends(
    monkeypatch,
):
    counts = [count_writes(monkeypatch, events) for events in (1, 50, 200)]
    assert counts[1]["insert"] == 0
    assert counts[1]["insert_bulk"] <= 13
    assert counts[0] == counts[1] == counts[2]


# ----------------------------------------------------------------------
# the writer's edges
# ----------------------------------------------------------------------
def test_a_rejected_registration_leaves_no_document_handle(tmp_path):
    kernel = MonetKernel(threads=1, check="off", store=DurableStore(tmp_path, fsync=False))
    metadata = MetadataStore(kernel)
    before = kernel.snapshot()
    bad = make_document("v0", events=5)
    bad.events["v0/e3"].source = 123  # no str atom takes an int
    with pytest.raises(AtomTypeError):
        with kernel.transaction():
            metadata.register_document(bad)
    assert compare_catalogs(before, kernel.snapshot()) == []
    with pytest.raises(CobraError, match="unknown video"):
        metadata.document("v0")
    assert metadata.video_ids() == []

    good = make_document("v0", events=5)
    with kernel.transaction():
        metadata.register_document(good)
    assert metadata.document("v0") is good
    assert kernel.bat("meta_event_event_id").tails() == list(good.events)
    kernel.close()
    recovered = MonetKernel(threads=1, check="off", store=DurableStore(tmp_path, fsync=False))
    assert compare_catalogs(kernel.snapshot(), recovered.snapshot()) == []
    recovered.close()


def test_append_events_lands_role_rows_under_their_event_oids():
    kernel = MonetKernel(threads=1, check="off")
    metadata = MetadataStore(kernel)
    metadata.register_document(make_document("v0", events=3))
    late = [
        VideoEvent("v0/x", "passing", Interval(1.0, 2.0), 0.5, {"p1": "d0", "p2": "d1"}),
        VideoEvent("v0/y", "fly_out", Interval(2.0, 3.0), 0.5, {}),
        VideoEvent("v0/z", "passing", Interval(3.0, 4.0), 0.5, {"driver": "d2"}),
    ]
    # no handle needed: a shard's view writes late events for documents
    # it holds only rows of
    MetadataStore(kernel).append_events("v0", late)
    roles = kernel.bat("meta_role_name")
    assert roles.heads()[-3:] == [3, 3, 5]
    assert roles.tails()[-3:] == ["p1", "p2", "driver"]
    assert kernel.bat("meta_role_object").tails()[-3:] == ["d0", "d1", "d2"]
    by_id = {record["event_id"]: record for record in metadata.events(video_id="v0")}
    assert by_id["v0/x"]["roles"] == {"p1": "d0", "p2": "d1"}
    assert by_id["v0/y"]["roles"] == {}
    assert by_id["v0/z"]["roles"] == {"driver": "d2"}


def test_no_caller_reaches_into_the_private_writer():
    source = Path(__file__).resolve().parents[1] / "src"
    offenders = [
        str(path.relative_to(source))
        for path in source.rglob("*.py")
        if "._store_event" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
