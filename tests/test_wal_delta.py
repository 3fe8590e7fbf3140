"""Row-delta WAL: what a commit logs, how replay stays exact, how the
replication link tails the log.

The speed of a durable write rests on four properties, each pinned here:
a commit logs the rows a transaction appended (and nothing when it
appended none); everything that is not an append falls back to a full
image; replay of a delta is idempotent through its ``at``; and a pump
decodes only the bytes written since the replica's offset.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

import repro.replication.link as link_module
from repro.durability import (
    DurableStore,
    WriteAheadLog,
    apply_record,
    read_records,
    replay,
)
from repro.durability.wal import (
    LEGACY_MAGIC,
    MAGIC,
    append_record,
    bat_to_payload,
    encode_record,
)
from repro.errors import DurabilityError, ReplicationError, WalCorruptionError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.replication import KernelGroup, ReplicaPosition, ReplicationLink
from repro.replication.group import GroupConfig


def laps(rows: int = 3) -> BAT:
    return BAT("void", "dbl").insert_bulk(None, [70.0 + i for i in range(rows)])


def durable(tmp_path, name="s") -> MonetKernel:
    store = DurableStore(tmp_path / name, fsync=False)
    return MonetKernel(threads=1, check="off", store=store)


def logged(kernel: MonetKernel) -> list[dict]:
    return read_records(kernel.store.wal_path).records


def committed_ops(kernel: MonetKernel) -> list[tuple]:
    """(op, name) of every record inside the last transaction batch."""
    records = logged(kernel)
    begin = max(i for i, r in enumerate(records) if r["op"] == "begin")
    return [(r["op"], r["name"]) for r in records[begin + 1 : -1]]


def recovered(kernel: MonetKernel) -> dict[str, BAT]:
    return DurableStore(kernel.store.path, fsync=False).recover().catalog


def assert_recovers_exactly(kernel: MonetKernel) -> None:
    live, back = kernel.snapshot(), recovered(kernel)
    assert sorted(back) == sorted(live)
    for name, bat in live.items():
        assert back[name].equals(bat), name


# ---------------------------------------------------------------------------
# BAT: which rows are new, in O(1)
# ---------------------------------------------------------------------------


class TestAppendedSince:
    def test_inserts_report_the_first_new_row(self):
        bat = laps(3)
        before = bat.version()
        assert bat.appended_since(before) == 3 == len(bat)  # unchanged
        bat.insert(99.0)
        bat.insert_bulk(None, [1.0, 2.0])
        assert bat.appended_since(before) == 3 and len(bat) == 6
        assert bat.appended_since(bat.version()) == 6

    def test_a_copy_carries_the_version(self):
        bat = laps(3)
        saved = bat.copy()
        assert saved.version() == bat.version()
        bat.insert(1.0)
        assert bat.appended_since(saved.version()) == 3
        # and a restored copy still continues what its source had logged
        assert saved.copy().insert(2.0).appended_since(saved.version()) == 3

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda bat, saved: bat.delete(0),
            lambda bat, saved: bat.replace(0, 1.0),
            lambda bat, saved: bat.insert(1.0).restore(saved),
        ],
        ids=["delete", "replace", "restore"],
    )
    def test_any_other_mutation_cannot_be_told(self, rewrite):
        bat = laps(3)
        saved = bat.copy()
        rewrite(bat, saved)
        bat.insert(5.0)
        assert bat.appended_since(saved.version()) is None

    def test_restoring_an_untouched_bat_is_free(self):
        bat = laps(3)
        saved = bat.copy()
        bat.tail_positions(70.0)
        bat.restore(saved)
        assert bat.version() == saved.version() and "tail" in bat._hashes

    def test_unrelated_bats_and_new_lineages_cannot_be_told(self):
        bat = laps(3)
        assert laps(3).appended_since(bat.version()) is None
        before = bat.version()
        bat.begin_lineage()
        assert bat.appended_since(before) is None
        assert bat.appended_since(bat.copy().version()) == 3

    def test_mutable_object_values_always_compare(self):
        bat = BAT("void", "any").insert_bulk(None, [{"a": 1}])
        saved = bat.copy()
        bat.fetch(0)[1]["a"] = 2  # in place: bumps nothing
        assert bat.appended_since(saved.version()) is None
        assert not bat.equals(saved)

    def test_columns_from_a_row_and_append_columns_round_trip(self):
        source = laps(5)
        target = laps(3)
        head, tail, next_oid = source.columns(3)
        assert (head, tail, next_oid) == ([3, 4], [73.0, 74.0], 5)
        target.tail_positions(70.0)  # build an accelerator
        target.append_columns(head, tail, next_oid)
        assert target.equals(source)
        assert target.tail_positions(74.0) == [4]
        assert "tail" in target._hashes  # survived: the append was in place


# ---------------------------------------------------------------------------
# what a commit logs
# ---------------------------------------------------------------------------


class TestCommitLogsDeltas:
    def test_appending_ten_rows_to_ten_thousand_logs_ten_rows(self, tmp_path):
        kernel = durable(tmp_path)
        big = kernel.persist("big", laps(10_000))
        kernel.persist("idle", laps(10_000))
        before = kernel.store.wal_size()
        with kernel.transaction():
            big.insert_bulk(None, [float(i) for i in range(10)])
        assert kernel.store.wal_size() - before < 4096
        assert committed_ops(kernel) == [("append", "big")]
        (record,) = [r for r in logged(kernel) if r["op"] == "append"]
        assert record["at"] == 10_000 and len(record["tail"]) == 10
        assert record["head"] == list(range(10_000, 10_010))
        assert record["next_oid"] == 10_010
        assert_recovers_exactly(kernel)

    def test_a_commit_that_touches_nothing_writes_nothing(self, tmp_path):
        kernel = durable(tmp_path)
        kernel.persist("big", laps(100))
        before = kernel.store.wal_path.read_bytes()
        with kernel.transaction():
            kernel.bat("big").tail_positions(70.0)  # reads are free
        with kernel.transaction():
            with kernel.transaction():
                pass
        assert kernel.store.wal_path.read_bytes() == before

    def test_unchanged_bats_are_decided_without_comparing_values(
        self, tmp_path, monkeypatch
    ):
        kernel = durable(tmp_path)
        bat = kernel.persist("big", laps(100))
        monkeypatch.setattr(
            BAT, "equals", lambda *a: pytest.fail("compared column values")
        )
        with kernel.transaction():
            pass
        with kernel.transaction():
            bat.insert(1.0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda k: k.bat("laps").delete(0),
            lambda k: k.bat("laps").replace(1, 9.0),
            lambda k: k.bat("laps").insert(1.0).delete(0),
            lambda k: k.persist("laps", laps(5)),
            lambda k: k.persist("laps", k.bat("laps").copy().insert(1.0)),
            lambda k: (k.drop("laps"), k.persist("laps", laps(1))),
        ],
        ids=["delete", "replace", "insert+delete", "rebound", "rebound-copy", "drop+new"],
    )
    def test_everything_but_an_append_falls_back_to_a_full_image(
        self, tmp_path, mutate
    ):
        kernel = durable(tmp_path)
        kernel.persist("laps", laps(3))
        with kernel.transaction():
            mutate(kernel)
        assert committed_ops(kernel) == [("persist", "laps")]
        assert_recovers_exactly(kernel)

    def test_an_inner_rollback_restores_and_so_logs_a_full_image(self, tmp_path):
        kernel = durable(tmp_path)
        bat = kernel.persist("laps", laps(3))
        with kernel.transaction():
            bat.insert(1.0)
            with pytest.raises(RuntimeError):
                with kernel.transaction():
                    bat.insert(2.0)
                    raise RuntimeError("inner scope fails")
            bat.insert(3.0)
        assert committed_ops(kernel) == [("persist", "laps")]
        assert bat.tails()[-2:] == [1.0, 3.0]
        assert_recovers_exactly(kernel)

    def test_a_diverged_copy_rebound_under_its_source_name(self, tmp_path):
        # copy and source share history; both grow, differently, and the
        # copy takes over the name: never "the source grew"
        kernel = durable(tmp_path)
        source = kernel.persist("laps", laps(3))
        copy = source.copy()
        copy.insert_bulk(None, [1.0, 2.0])
        source.insert(9.0)
        with kernel.transaction():
            kernel.persist("laps", copy)
        assert committed_ops(kernel) == [("persist", "laps")]
        assert_recovers_exactly(kernel)

    def test_new_dropped_and_grown_bats_in_one_transaction(self, tmp_path):
        kernel = durable(tmp_path)
        grown = kernel.persist("grown", laps(3))
        kernel.persist("gone", laps(2))
        kernel.persist("idle", laps(2))
        with kernel.transaction():
            grown.insert(5.0)
            kernel.drop("gone")
            kernel.persist("new", laps(1))
        assert sorted(committed_ops(kernel)) == [
            ("append", "grown"),
            ("drop", "gone"),
            ("persist", "new"),
        ]
        assert_recovers_exactly(kernel)

    def test_rows_inserted_outside_a_transaction_ride_with_the_next_commit(
        self, tmp_path
    ):
        # nothing logs a bare insert; the next delta must start at what the
        # store holds (3 rows), not at what the transaction found (4)
        kernel = durable(tmp_path)
        bat = kernel.persist("laps", laps(3))
        kernel.persist("idle", laps(3))
        bat.insert(1.0)
        with kernel.transaction():
            bat.insert(2.0)
        (record,) = [r for r in logged(kernel) if r["op"] == "append"]
        assert record["at"] == 3 and record["tail"] == [1.0, 2.0]
        assert_recovers_exactly(kernel)
        kernel.bat("idle").insert(9.0)
        with kernel.transaction():
            pass  # touches nothing, and still picks up the stray row
        assert committed_ops(kernel) == [("append", "idle")]
        assert_recovers_exactly(kernel)

    def test_a_rewrite_outside_a_transaction_is_caught_up_by_a_full_image(
        self, tmp_path
    ):
        kernel = durable(tmp_path)
        bat = kernel.persist("laps", laps(3))
        bat.delete(0)
        with kernel.transaction():
            pass
        assert committed_ops(kernel) == [("persist", "laps")]
        assert_recovers_exactly(kernel)

    def test_a_bat_of_mutable_values_is_logged_when_it_differs(self, tmp_path):
        kernel = durable(tmp_path)
        bat = kernel.persist("models", BAT("void", "any").insert_bulk(None, [[1]]))
        size = kernel.store.wal_size()
        with kernel.transaction():
            pass
        assert kernel.store.wal_size() == size
        with kernel.transaction():
            bat.fetch(0)[1].append(2)  # in place: only a comparison sees it
        assert committed_ops(kernel) == [("persist", "models")]
        with kernel.transaction():
            bat.insert([3])
        assert committed_ops(kernel) == [("persist", "models")]
        assert_recovers_exactly(kernel)

    def test_deltas_continue_across_checkpoint_and_restart(self, tmp_path):
        kernel = durable(tmp_path)
        bat = kernel.persist("laps", laps(3))
        kernel.checkpoint()
        with kernel.transaction():
            bat.insert(1.0)
        assert committed_ops(kernel) == [("append", "laps")]
        kernel.close()
        kernel = durable(tmp_path)
        with kernel.transaction():
            kernel.bat("laps").insert(2.0)
        assert committed_ops(kernel) == [("append", "laps")]
        assert logged(kernel)[-2]["at"] == 4
        assert_recovers_exactly(kernel)

    def test_a_failed_transaction_costs_the_bats_it_touched_one_full_image(
        self, tmp_path
    ):
        kernel = durable(tmp_path)
        touched = kernel.persist("touched", laps(3))
        spared = kernel.persist("spared", laps(3))
        with pytest.raises(RuntimeError):
            with kernel.transaction():
                touched.insert(1.0)
                raise RuntimeError("rolled back")
        # the rollback rewrote ``touched``; the store can no longer vouch
        # for it, so the next commit logs it whole — once
        with kernel.transaction():
            spared.insert(2.0)
        assert sorted(committed_ops(kernel)) == [
            ("append", "spared"),
            ("persist", "touched"),
        ]
        with kernel.transaction():
            touched.insert(3.0)
        assert committed_ops(kernel) == [("append", "touched")]
        assert_recovers_exactly(kernel)

    def test_autocommit_persist_still_logs_the_full_image(self, tmp_path):
        kernel = durable(tmp_path)
        bat = kernel.persist("laps", laps(3))
        bat.insert(4.0)
        kernel.persist("laps", bat)
        assert [r["op"] for r in logged(kernel)] == ["persist", "persist"]
        assert_recovers_exactly(kernel)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _state():
    return {"laps": laps(3)}, {}, set()


class TestReplay:
    def test_append_applies_in_place_only_at_its_row(self):
        catalog, procs, modules = _state()
        target = catalog["laps"]
        record = append_record("laps", laps(5), 3)
        apply_record(record, catalog, procs.__setitem__, modules)
        assert catalog["laps"] is target and target.equals(laps(5))
        # again: the BAT already holds rows [3, 5) — nothing to do
        apply_record(record, catalog, procs.__setitem__, modules)
        assert target.equals(laps(5))
        # and once the BAT has grown past it, still nothing to do
        apply_record(append_record("laps", laps(6), 5), catalog, procs.__setitem__, modules)
        apply_record(record, catalog, procs.__setitem__, modules)
        assert target.equals(laps(6))

    @pytest.mark.parametrize("at", [4, 2])
    def test_an_append_that_does_not_continue_the_bat_raises(self, at):
        catalog, procs, modules = _state()
        record = append_record("laps", laps(at + 2), at)
        with pytest.raises(WalCorruptionError, match="do not continue its 3 row"):
            apply_record(record, catalog, procs.__setitem__, modules)
        with pytest.raises(ReplicationError):
            apply_record(
                record, catalog, procs.__setitem__, modules, error=ReplicationError
            )
        assert catalog["laps"].equals(laps(3))

    def test_an_append_to_a_missing_bat_raises(self):
        with pytest.raises(DurabilityError, match="missing"):
            apply_record(append_record("ghost", laps(2), 0), {}, {}.__setitem__, set())

    def test_an_unknown_op_is_an_error_not_a_no_op(self):
        catalog, procs, modules = _state()
        with pytest.raises(WalCorruptionError, match="unknown record op 'merge'"):
            apply_record({"op": "merge", "name": "laps"}, catalog, procs.__setitem__, modules)

    def test_recovery_refuses_an_unknown_op(self, tmp_path):
        kernel = durable(tmp_path)
        kernel.persist("laps", laps(3))
        kernel.store._wal.append({"op": "merge", "name": "laps"})
        kernel.close()
        with pytest.raises(WalCorruptionError, match="merge"):
            DurableStore(tmp_path / "s", fsync=False).recover()

    def test_recovery_refuses_an_append_beyond_the_bat(self, tmp_path):
        kernel = durable(tmp_path)
        kernel.persist("laps", laps(3))
        kernel.store.commit([("append", "laps", laps(9), 7)])
        kernel.close()
        with pytest.raises(DurabilityError, match=r"rows \[7, 9\)"):
            DurableStore(tmp_path / "s", fsync=False).recover()

    def test_a_superseded_append_is_passed_over(self):
        # replayed onto the final state (2 rows), rows [3, 5) fit nowhere —
        # but a later full image of the same BAT makes them irrelevant
        catalog, procs, modules = {"laps": laps(2)}, {}, set()
        records = [
            append_record("laps", laps(5), 3),
            {"op": "persist", "name": "laps", "bat": bat_to_payload(laps(1))},
            append_record("laps", laps(2), 1),
        ]
        replay(records, catalog, procs.__setitem__, modules)
        assert catalog["laps"].equals(laps(2))
        with pytest.raises(WalCorruptionError):
            replay(records[:1], catalog, procs.__setitem__, modules)

    def test_recovery_counts_the_deltas_it_replayed(self, tmp_path):
        kernel = durable(tmp_path)
        bat = kernel.persist("laps", laps(3))
        with kernel.transaction():
            bat.insert_bulk(None, [1.0, 2.0])
        kernel.close()
        report = DurableStore(tmp_path / "s", fsync=False).recover().report
        assert (report.appends_replayed, report.rows_appended) == (1, 2)
        assert "1 append(s) of 2 row(s)" in report.describe()


# ---------------------------------------------------------------------------
# the format rule
# ---------------------------------------------------------------------------


def legacy_store(path) -> None:
    """A store as the parent commit wrote it: REPROWAL1, full images only.
    Built byte by byte — nothing here goes through the current writer."""

    def frame(record: dict) -> bytes:
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload

    def image(tails: list[float]) -> dict:
        return {
            "head_type": "void",
            "tail_type": "dbl",
            "head": list(range(len(tails))),
            "tail": tails,
            "next_oid": len(tails),
        }

    path.mkdir()
    (path / "wal.log").write_bytes(
        b"REPROWAL1\n"
        + frame({"op": "persist", "name": "laps", "bat": image([70.0, 71.0])})
        + frame({"op": "begin", "txn": 1})
        + frame({"op": "persist", "name": "laps", "bat": image([70.0, 71.0, 72.0])})
        + frame({"op": "persist", "name": "gone", "bat": image([1.0])})
        + frame({"op": "commit", "txn": 1})
        + frame({"op": "drop", "name": "gone"})
    )


class TestFormatRule:
    def test_the_writer_stamps_the_new_magic(self, tmp_path):
        kernel = durable(tmp_path)
        kernel.close()
        assert kernel.store.wal_path.read_bytes() == MAGIC == b"REPROWAL2\n"
        assert read_records(kernel.store.wal_path).format == 2

    def test_a_legacy_store_reads_back(self, tmp_path):
        legacy_store(tmp_path / "s")
        scan = read_records(tmp_path / "s" / "wal.log")
        assert scan.format == 1 and len(scan.records) == 6
        state = DurableStore(tmp_path / "s", fsync=False).recover(dry_run=True)
        assert state.report.wal_format == 1
        assert sorted(state.catalog) == ["laps"]
        assert state.catalog["laps"].equals(laps(3))
        # recovery alone rewrites nothing
        assert (tmp_path / "s" / "wal.log").read_bytes().startswith(LEGACY_MAGIC)

    def test_open_folds_a_legacy_log_before_the_first_delta(self, tmp_path):
        legacy_store(tmp_path / "s")
        kernel = durable(tmp_path)
        assert kernel.store.wal_path.read_bytes() == MAGIC
        assert kernel.recovery.wal_format == 1
        with kernel.transaction():
            kernel.bat("laps").insert(73.0)
        assert committed_ops(kernel) == [("append", "laps")]
        kernel.close()
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.report.checkpoint_seqno == 1 and state.report.wal_format == 2
        assert state.catalog["laps"].equals(laps(4))

    def test_compact_folds_a_legacy_log_too(self, tmp_path):
        legacy_store(tmp_path / "s")
        DurableStore(tmp_path / "s", fsync=False).compact()
        assert (tmp_path / "s" / "wal.log").read_bytes() == MAGIC
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.catalog["laps"].equals(laps(3))

    def test_the_writer_refuses_to_append_to_a_legacy_log(self, tmp_path):
        legacy_store(tmp_path / "s")
        before = (tmp_path / "s" / "wal.log").read_bytes()
        wal = WriteAheadLog(tmp_path / "s" / "wal.log", fsync=False)
        with pytest.raises(DurabilityError, match="cannot be appended to"):
            wal.append(append_record("laps", laps(4), 3))
        assert (tmp_path / "s" / "wal.log").read_bytes() == before

    def test_a_replica_catches_up_from_a_legacy_store(self, tmp_path):
        legacy_store(tmp_path / "primary")
        shipment = ReplicationLink(tmp_path / "primary").fetch(
            ReplicaPosition(), epoch=1
        )
        assert shipment.catchup and len(shipment.records) == 6


# ---------------------------------------------------------------------------
# tailing: read_records from an offset, the link's cursor
# ---------------------------------------------------------------------------


class TestTailing:
    def test_read_records_resumes_at_any_reported_offset(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=False)
        for name in "abcd":
            wal.append({"op": "drop", "name": name})
        wal.close()
        whole = read_records(path)
        assert whole.ends[-1] == whole.valid_length == whole.file_length
        assert whole.ends[0] == len(MAGIC) + len(encode_record(whole.records[0]))
        for skipped, offset in enumerate([0, *whole.ends]):
            tail = read_records(path, start=offset)
            assert tail.records == whole.records[skipped:]
            assert tail.ends == whole.ends[skipped:]
            assert tail.valid_length == whole.valid_length

    def test_a_torn_tail_past_the_offset_is_bounded_as_before(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=False)
        for name in "abc":
            wal.append({"op": "drop", "name": name})
        wal.close()
        ends = read_records(path).ends
        path.write_bytes(path.read_bytes()[:-3])
        tail = read_records(path, start=ends[0])
        assert [r["name"] for r in tail.records] == ["b"]
        assert "torn" in tail.corruption and tail.valid_length == ends[1]
        with pytest.raises(WalCorruptionError, match="resume offset"):
            read_records(path, start=ends[2] + 100)

    def test_fetch_decodes_only_the_bytes_past_the_offset(
        self, tmp_path, monkeypatch
    ):
        kernel = durable(tmp_path, "primary")
        bat = kernel.persist("laps", laps(2_000))
        link = ReplicationLink(kernel.store.path)
        position = link.fetch(ReplicaPosition(), epoch=1).position
        assert position.offset == kernel.store.wal_size()

        starts = []
        real = link_module.read_records

        def spy(path, start=0):
            starts.append(start)
            return real(path, start=start)

        monkeypatch.setattr(link_module, "read_records", spy)
        for commit in range(1, 6):
            size_before = kernel.store.wal_size()
            with kernel.transaction():
                bat.insert(float(commit))
            assert link.backlog(position, epoch=1) == 3
            shipment = link.fetch(position, epoch=1)
            # both scans began where the replica stood: the 2,000-row image
            # before it was not read again, let alone decoded
            assert starts[-2:] == [size_before, size_before]
            assert [r["op"] for r in shipment.records] == ["begin", "append", "commit"]
            assert not shipment.catchup and shipment.remaining == 0
            assert shipment.position.records_consumed == 1 + 3 * commit
            assert shipment.position.offset == kernel.store.wal_size()
            assert shipment.position.offset - size_before < 300
            position = shipment.position

    def test_withheld_records_leave_the_offset_before_them(self, tmp_path):
        kernel = durable(tmp_path, "primary")
        bat = kernel.persist("laps", laps(3))
        link = ReplicationLink(kernel.store.path)
        position = link.fetch(ReplicaPosition(), epoch=1).position
        with kernel.transaction():
            bat.insert(1.0)
        ends = read_records(kernel.store.wal_path).ends
        held = link.fetch(position, epoch=1, withhold=1)
        assert [r["op"] for r in held.records] == ["begin", "append"]
        assert held.remaining == 1 and held.position.offset == ends[-2]
        nothing = link.fetch(position, epoch=1, withhold=5)
        assert nothing.records == [] and nothing.position == position
        assert nothing.position.offset == position.offset
        rest = link.fetch(held.position, epoch=1)
        assert [r["op"] for r in rest.records] == ["commit"]
        assert rest.position == ReplicaPosition(1, 0, 4)
        assert rest.position.offset == ends[-1]

    def test_the_checkpoint_is_parsed_once_per_checkpoint_file(
        self, tmp_path, monkeypatch
    ):
        kernel = durable(tmp_path, "primary")
        bat = kernel.persist("laps", laps(3))
        kernel.checkpoint()
        parses = []
        real = link_module.read_checkpoint
        monkeypatch.setattr(
            link_module,
            "read_checkpoint",
            lambda path: parses.append(path) or real(path),
        )
        link = ReplicationLink(kernel.store.path)
        position = link.fetch(ReplicaPosition(), epoch=1).position
        for lap in (1.0, 2.0, 3.0):
            with kernel.transaction():
                bat.insert(lap)
            position = link.fetch(position, epoch=1).position
            link.backlog(position, epoch=1)
        assert len(parses) == 1
        kernel.checkpoint()
        shipment = link.fetch(position, epoch=1)
        assert shipment.catchup and shipment.snapshot.seqno == 2
        assert len(shipment.snapshot.catalog["laps"]) == 6
        assert len(parses) == 2


# ---------------------------------------------------------------------------
# replicas apply deltas in place
# ---------------------------------------------------------------------------


def make_group(tmp_path, replicas=("replica-0",)):
    primary = durable(tmp_path, "primary")
    group = KernelGroup(
        primary, tmp_path, replicas=replicas, config=GroupConfig(fsync=False)
    )
    return primary, group


class TestReplicaAppliesInPlace:
    def test_a_pump_keeps_the_bat_object_and_its_accelerators(self, tmp_path):
        primary, group = make_group(tmp_path)
        bat = primary.persist("laps", laps(3))
        group.pump()
        replica = group.replica("replica-0")
        applied = replica.kernel.bat("laps")
        assert applied.tail_positions(71.0) == [1]  # builds the tail hash
        with primary.transaction():
            bat.insert(71.0)
        group.pump()
        assert replica.kernel.bat("laps") is applied
        assert "tail" in applied._hashes
        assert applied.tail_positions(71.0) == [1, 3]
        assert group.convergence_report() == []

    def test_two_replicas_seeded_from_one_checkpoint_do_not_share_bats(
        self, tmp_path
    ):
        primary, group = make_group(tmp_path, replicas=("replica-0", "replica-1"))
        bat = primary.persist("laps", laps(3))
        primary.checkpoint()
        group.pump()
        first = group.replica("replica-0").kernel.bat("laps")
        second = group.replica("replica-1").kernel.bat("laps")
        assert first is not second
        with primary.transaction():
            bat.insert(1.0)
        group.pump()
        assert len(first) == len(second) == 4
        assert group.convergence_report() == []

    def test_a_delta_that_does_not_fit_raises_and_the_replica_reseeds(
        self, tmp_path
    ):
        primary, group = make_group(tmp_path)
        bat = primary.persist("laps", laps(3))
        group.pump()
        replica = group.replica("replica-0")
        primary.store.commit([("append", "laps", laps(9), 7)])
        with pytest.raises(ReplicationError, match=r"rows \[7, 9\)"):
            group.pump()
        assert replica.kernel.bat("laps").equals(laps(3))
        # half a shipment may have landed, so the position is forgotten:
        # once the log is whole again the next pump is a full catch-up
        assert replica.position == ReplicaPosition()
        primary.persist("laps", bat)  # a full image supersedes the bad delta
        group.pump()
        assert replica.snapshots_installed == 2
        assert group.convergence_report() == []

    def test_a_replica_refuses_an_unknown_op(self, tmp_path):
        primary, group = make_group(tmp_path)
        primary.persist("laps", laps(3))
        primary.store._wal.append({"op": "merge", "name": "laps"})
        with pytest.raises(ReplicationError, match="unknown record op 'merge'"):
            group.pump()

    def test_failover_from_a_checkpoint_that_was_never_truncated(self, tmp_path):
        # the primary dies between the checkpoint's rename and the WAL
        # truncation: the replica re-seeds from the new checkpoint and is
        # shipped a log of deltas that checkpoint already holds
        from repro.durability import Checkpoint, write_checkpoint

        primary, group = make_group(tmp_path)
        bat = primary.persist("laps", laps(3))
        shrinks = primary.persist("shrinks", laps(3))
        group.pump()
        for lap in (1.0, 2.0):
            with primary.transaction():
                bat.insert(lap)
                shrinks.insert(lap)
        with primary.transaction():
            shrinks.delete(0).delete(1).delete(2).delete(3)
        write_checkpoint(
            primary.store.path,
            Checkpoint(seqno=1, catalog=primary.snapshot()),
            fsync=False,
        )
        group.pump()
        replica = group.replica("replica-0")
        assert replica.snapshots_installed == 2
        assert len(replica.kernel.bat("laps")) == 5
        assert group.convergence_report() == []
