"""One nil per float atom.

The WAL and checkpoints keep no NaN's sign or payload: a ``dbl``/``flt``
NaN such as ``0xfff8…0`` comes back from either as ``0x7ff8…0``. So every
write path stores that one NaN, and a recovered, replicated or migrated
catalog equals the live one byte for byte. Each case sends sign-set,
payload-carrying and signalling NaNs through ``insert``, ``insert_bulk``
and ``replace`` — fixed inputs, unlike the property tests that found it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.cobra.model import RawVideo, VideoDocument, VideoObject
from repro.durability import DurableStore
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel
from repro.replication import GroupConfig, KernelGroup
from repro.sharding import ShardConfig, ShardedKernel
from repro.synth.annotations import Interval


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


#: The one NaN, as a Python float and as a stored float32.
NIL_BITS = 0x7FF8_0000_0000_0000
NIL_FLT_BITS = 0x7FC0_0000
#: Sign-set, payload-carrying (quiet and signalling) and both at once.
NANS = [
    from_bits(bits)
    for bits in (
        0xFFF8_0000_0000_0000,
        0x7FF8_0000_0000_0001,
        0xFFF8_0000_DEAD_BEEF,
        0x7FF0_0000_0000_0001,
    )
]
FLOAT_ATOMS = ("dbl", "flt")


def write_nans(bat: BAT) -> None:
    """Every NaN through each writer: row inserts, a column of only NaNs,
    a column mixing them with numbers, and replaces over numbers."""
    for value in NANS:
        bat.insert(value)
    bat.insert_bulk(None, NANS)
    bat.insert_bulk(None, [1.5, *NANS, -0.0])
    first = len(bat)
    bat.insert_bulk(None, [0.25] * len(NANS))
    for offset, value in enumerate(NANS):
        bat.replace(first + offset, value)


def assert_one_nil(catalog: dict[str, BAT], names=None) -> int:
    """Every NaN stored in a float column of ``catalog`` is the one nil, as
    a value and in the tail array; returns how many were checked."""
    checked = 0
    for name in names or sorted(catalog):
        bat = catalog[name]
        if bat.tail_type not in FLOAT_ATOMS:
            continue
        nans = [value for value in bat.tails() if value != value]
        assert {to_bits(value) for value in nans} <= {NIL_BITS}, name
        array = bat.tail_array()
        raw = array.view(np.uint64 if bat.tail_type == "dbl" else np.uint32)
        nil = NIL_BITS if bat.tail_type == "dbl" else NIL_FLT_BITS
        assert set(raw[np.isnan(array)].tolist()) <= {nil}, name
        checked += len(nans)
    return checked


def open_kernel(path) -> MonetKernel:
    return MonetKernel(threads=1, check="off", store=DurableStore(path, fsync=False))


def test_every_writer_stores_the_one_nil():
    for atom in FLOAT_ATOMS:
        bat = BAT("void", atom)
        write_nans(bat)
        assert assert_one_nil({atom: bat}) == 4 * len(NANS)
        built = BAT.from_columns("void", atom, range(len(NANS)), NANS, next_oid=len(NANS))
        grown = BAT("void", atom).append_columns(range(len(NANS)), NANS, len(NANS))
        assert assert_one_nil({"built": built, "grown": grown}) == 2 * len(NANS)


def test_wal_replay_and_checkpoint_give_back_the_live_bits(tmp_path):
    kernel = open_kernel(tmp_path)
    with kernel.transaction():
        for atom in FLOAT_ATOMS:
            kernel.persist(atom, BAT("void", atom))
            write_nans(kernel.bat(atom))
    live = kernel.snapshot()
    kernel.close()

    replayed = open_kernel(tmp_path)  # from the WAL alone
    assert compare_catalogs(live, replayed.snapshot()) == []
    assert assert_one_nil(live) == 8 * len(NANS)
    replayed.checkpoint()
    replayed.close()
    restored = open_kernel(tmp_path)  # from the checkpoint
    assert compare_catalogs(live, restored.snapshot()) == []
    assert_one_nil(restored.snapshot())
    restored.close()


def test_a_replica_applies_the_live_bits(tmp_path):
    primary = open_kernel(tmp_path / "primary")
    group = KernelGroup(
        primary, tmp_path, replicas=("replica-0",), config=GroupConfig(fsync=False)
    )
    with primary.transaction():
        for atom in FLOAT_ATOMS:
            primary.persist(atom, BAT("void", atom))
            write_nans(primary.bat(atom))
    group.pump()
    live = primary.snapshot()
    applied = group.replica("replica-0").catalog()
    assert compare_catalogs(live, applied) == []
    assert assert_one_nil(live) == 8 * len(NANS)
    assert group.convergence_report() == []
    group.close()


def nan_document(video_id: str) -> VideoDocument:
    document = VideoDocument(
        raw=RawVideo(video_id, "synthetic://f1", 100.0, 10.0, 192, 144, 16000)
    )
    document.add_object(VideoObject(f"{video_id}/d1", "driver", "HAKKINEN"))
    for index, confidence in enumerate([*NANS, 0.5]):
        document.new_event(
            "fly_out", Interval(10 + index, 18 + index), confidence, {}, "dbn"
        )
    return document


def test_a_migrated_document_keeps_the_live_bits(tmp_path):
    """On two shards, adding a third moves race2 (see test_migration.py):
    its NaN confidences, registered and stored late, land on the new
    shard as the one nil, as they are on the shard it left."""
    fleet = ShardedKernel(tmp_path, shards=2, config=ShardConfig(fsync=False))
    documents = {f"race{index}": nan_document(f"race{index}") for index in range(6)}
    for document in documents.values():
        fleet.register_document(document, "f1")
    late = documents["race2"].new_event("passing", Interval(40, 44), NANS[0], {}, "dbn")
    fleet.store_event("race2", late)
    before = fleet.owner_of("race2")
    fleet.split("shard-2")
    assert fleet.owner_of("race2") == "shard-2" != before
    checked = 0
    for name in fleet.shard_names():
        catalog = fleet.shard(name).kernel.snapshot()
        checked += assert_one_nil(catalog, ["meta_event_confidence"])
    assert checked >= 6 * len(NANS) + 1
    assert fleet.convergence_report() == []
    fleet.close()
