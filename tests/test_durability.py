"""Durability: WAL codec, checkpoints, recovery edge cases, durable kernel."""

import base64
import json
import math
import pickle
import zlib

import numpy as np
import pytest

from repro.check import check_catalog
from repro.durability import (
    Checkpoint,
    DurableStore,
    WriteAheadLog,
    apply_record,
    read_checkpoint,
    read_records,
    write_checkpoint,
)
from repro.durability.__main__ import main as durability_main
from repro.durability.wal import (
    JOURNAL_MAGIC,
    MAGIC,
    BatchAssembler,
    RecordLog,
    bat_from_payload,
    bat_to_payload,
    decode_value,
    encode_record,
    encode_value,
)
from repro.errors import (
    AtomTypeError,
    DurabilityError,
    MonetError,
    RecoveryError,
    ReplicationError,
    SimulatedCrash,
    WalCorruptionError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel


def lap_bat(name=None):
    return BAT.from_columns(
        "void", "dbl", [0, 1, 2], [78.1, 77.9, 78.4], next_oid=3, name=name
    )


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


class TestCodec:
    def test_primitives_stay_json_native(self):
        for value in (None, True, 3, 2.5, "monza"):
            assert encode_value(value) == value
            assert decode_value(encode_value(value)) == value

    def test_numpy_scalars_become_items(self):
        assert encode_value(np.float64(1.5)) == 1.5
        assert encode_value(np.int64(7)) == 7

    def test_opaque_values_roundtrip_via_pickle(self):
        value = {"nested": [1, 2, {"deep": "state"}]}
        encoded = encode_value(value)
        assert "__pickle__" in encoded
        assert decode_value(encoded) == value

    def test_nan_tail_roundtrips(self):
        bat = BAT.from_columns("void", "dbl", [0, 1], [1.0, math.nan], next_oid=2)
        back = bat_from_payload(bat_to_payload(bat))
        assert back.equals(bat)

    def test_bat_payload_roundtrip(self):
        bat = lap_bat()
        back = bat_from_payload(bat_to_payload(bat), name="laps")
        assert back.equals(bat)
        assert back.name == "laps"
        assert np.array_equal(back.tail_array(), bat.tail_array())

    @pytest.mark.parametrize("tail_type", ["str", "dbl", "int", "bit"])
    def test_a_tag_in_a_native_column_is_rejected_not_unpickled(
        self, tail_type, monkeypatch
    ):
        # a JSON-native column never holds a tag; one found there is
        # damage, and the atom's coercion rejects it as the dict it is
        monkeypatch.setattr(
            pickle, "loads", lambda *a: pytest.fail("unpickled a native column")
        )
        payload = {
            "head_type": "void",
            "tail_type": tail_type,
            "head": [0],
            "tail": [_tag(1)],
            "next_oid": 1,
        }
        with pytest.raises(AtomTypeError):
            bat_from_payload(payload)

    def test_only_non_native_columns_are_tagged(self):
        objects = BAT.from_columns("void", "any", [0], [{"k": 1}], next_oid=1)
        assert bat_to_payload(objects)["tail"] == [encode_value({"k": 1})]
        strings = BAT.from_columns("void", "str", [0], ['{"__pickle__": 1}'])
        payload = bat_to_payload(strings)
        assert payload["tail"] == ['{"__pickle__": 1}']
        assert bat_from_payload(payload).equals(strings)

    def test_replay_rejects_a_tagged_value_in_a_native_column(self):
        catalog = {"laps": lap_bat("laps")}
        record = {
            "op": "append",
            "name": "laps",
            "at": 3,
            "head": [3],
            "tail": [_tag(78.0)],
            "next_oid": 4,
        }
        with pytest.raises(WalCorruptionError, match="laps"):
            apply_record(record, catalog, {}.__setitem__, set())
        assert catalog["laps"].equals(lap_bat())  # left as it was
        persist = {
            "op": "persist",
            "name": "names",
            "bat": {
                "head_type": "void",
                "tail_type": "str",
                "head": [0],
                "tail": [_tag("x")],
                "next_oid": 1,
            },
        }
        with pytest.raises(ReplicationError):
            apply_record(persist, catalog, {}.__setitem__, set(), error=ReplicationError)
        assert "names" not in catalog

    def test_recovery_surfaces_a_tagged_native_value_as_wal_corruption(
        self, tmp_path
    ):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store._wal.append(
            {
                "op": "append",
                "name": "laps",
                "at": 3,
                "head": [3],
                "tail": [_tag(78.0)],
                "next_oid": 4,
            }
        )
        store.close()
        with pytest.raises(WalCorruptionError, match="do not rebuild"):
            DurableStore(tmp_path / "s", fsync=False).recover()


def _tag(value):
    """``value`` as the WAL tags what JSON cannot carry."""
    return {"__pickle__": base64.b64encode(pickle.dumps(value)).decode("ascii")}


# ---------------------------------------------------------------------------
# WAL scanning + tail damage
# ---------------------------------------------------------------------------


class TestWalScan:
    def _write(self, path, records):
        wal = WriteAheadLog(path, fsync=False)
        wal.open()
        for record in records:
            wal.append(record)
        wal.close()
        return path

    def test_missing_and_empty_files_scan_clean(self, tmp_path):
        scan = read_records(tmp_path / "absent.log")
        assert scan.records == [] and scan.corruption is None
        empty = tmp_path / "empty.log"
        empty.write_bytes(b"")
        assert read_records(empty).records == []

    def test_torn_final_record_is_detected_and_bounded(self, tmp_path):
        path = self._write(
            tmp_path / "wal.log",
            [{"op": "drop", "name": "a"}, {"op": "drop", "name": "b"}],
        )
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # tear the last record
        scan = read_records(path)
        assert [r["name"] for r in scan.records] == ["a"]
        assert "torn" in scan.corruption
        assert scan.torn_bytes > 0

    def test_zero_length_tail_after_torn_write(self, tmp_path):
        # the torn write flushed a length header but zero payload bytes —
        # the smallest tail the replication stream can encounter
        path = self._write(
            tmp_path / "wal.log",
            [{"op": "drop", "name": "a"}, {"op": "drop", "name": "b"}],
        )
        intact = path.read_bytes()
        path.write_bytes(intact + (10).to_bytes(4, "big"))
        scan = read_records(path)
        assert [r["name"] for r in scan.records] == ["a", "b"]
        assert "torn" in scan.corruption
        assert scan.torn_bytes == 4
        assert scan.valid_length == len(intact)
        # truncated back to the valid boundary, the tail is zero-length
        # and the scan is clean again
        path.write_bytes(intact)
        rescan = read_records(path)
        assert rescan.corruption is None
        assert rescan.valid_length == rescan.file_length

    def test_opening_cuts_a_torn_tail_off_before_the_first_append(
        self, tmp_path
    ):
        path = self._write(tmp_path / "wal.log", [{"op": "drop", "name": "a"}])
        intact = path.read_bytes()
        path.write_bytes(intact + encode_record({"op": "drop", "name": "b"})[:7])
        wal = WriteAheadLog(path, fsync=False)
        wal.open()
        assert path.read_bytes() == intact
        wal.append({"op": "drop", "name": "c"})
        wal.close()
        scan = read_records(path)
        assert [r["name"] for r in scan.records] == ["a", "c"]
        assert scan.corruption is None

    def test_corrupt_checksum_mid_log_discards_the_tail(self, tmp_path):
        path = self._write(
            tmp_path / "wal.log",
            [{"op": "drop", "name": n} for n in ("a", "b", "c")],
        )
        data = bytearray(path.read_bytes())
        first = len(MAGIC) + len(encode_record({"op": "drop", "name": "a"}))
        data[first + 10] ^= 0xFF  # flip a byte inside record "b"
        path.write_bytes(bytes(data))
        scan = read_records(path)
        # record "c" is intact on disk but untrustworthy past the damage
        assert [r["name"] for r in scan.records] == ["a"]
        assert "checksum mismatch" in scan.corruption


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        checkpoint = Checkpoint(seqno=4, catalog={"laps": lap_bat("laps")})
        write_checkpoint(tmp_path, checkpoint, fsync=False)
        back = read_checkpoint(tmp_path)
        assert back.seqno == 4
        assert back.catalog["laps"].equals(checkpoint.catalog["laps"])

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert read_checkpoint(tmp_path) is None

    def test_damaged_checkpoint_raises(self, tmp_path):
        write_checkpoint(tmp_path, Checkpoint(seqno=1), fsync=False)
        target = tmp_path / "checkpoint"
        target.write_text(target.read_text().replace('"seqno": 1', '"seqno": 2'))
        with pytest.raises(RecoveryError, match="CRC"):
            read_checkpoint(tmp_path)

    def test_one_edited_body_byte_fails_the_crc(self, tmp_path):
        write_checkpoint(
            tmp_path, Checkpoint(seqno=1, catalog={"laps": lap_bat()}), fsync=False
        )
        target = tmp_path / "checkpoint"
        data = target.read_bytes()
        at = data.index(b"77.9") + 3
        target.write_bytes(data[:at] + b"8" + data[at + 1 :])  # 77.9 -> 77.8
        with pytest.raises(RecoveryError, match="CRC"):
            read_checkpoint(tmp_path)

    def test_the_body_is_written_canonically_once(self, tmp_path):
        write_checkpoint(
            tmp_path, Checkpoint(seqno=2, catalog={"laps": lap_bat()}), fsync=False
        )
        text = (tmp_path / "checkpoint").read_text()
        body = json.loads(text)["body"]
        assert text.startswith('{"format": 1, "crc": ')
        assert text.endswith(
            '"body": ' + json.dumps(body, sort_keys=True, allow_nan=True) + "}"
        )

    def test_a_checkpoint_in_the_insertion_ordered_layout_reads_back(
        self, tmp_path
    ):
        # the layout written before the body was embedded canonically:
        # json.dump of the whole document, body keys in insertion order
        blob = base64.b64encode(pickle.dumps({"k": [1]})).decode("ascii")
        body = {
            "seqno": 3,
            "catalog": {
                "laps": {
                    "head_type": "void",
                    "tail_type": "dbl",
                    "head": [0, 1, 2],
                    "tail": [78.1, float("nan"), float("inf")],
                    "next_oid": 3,
                },
                "models": {
                    "head_type": "void",
                    "tail_type": "any",
                    "head": [0, 1],
                    "tail": [{"__pickle__": blob}, 7],
                    "next_oid": 2,
                },
            },
            "procs": {},
            "modules": ["dbn"],
        }
        document = {
            "format": 1,
            "crc": zlib.crc32(
                json.dumps(body, sort_keys=True, allow_nan=True).encode("utf-8")
            ),
            "body": body,
        }
        with open(tmp_path / "checkpoint", "w", encoding="utf-8") as fh:
            json.dump(document, fh, allow_nan=True)
        text = (tmp_path / "checkpoint").read_text()
        assert text.index('"seqno"') < text.index('"catalog"')  # not sorted
        back = read_checkpoint(tmp_path)
        assert back.seqno == 3 and back.modules == ["dbn"]
        expected = {
            "laps": BAT.from_columns(
                "void", "dbl", [0, 1, 2], [78.1, math.nan, math.inf], next_oid=3
            ),
            "models": BAT.from_columns("void", "any", [0, 1], [{"k": [1]}, 7], next_oid=2),
        }
        assert compare_catalogs(expected, back.catalog) == []

    def test_special_floats_and_tagged_values_round_trip(self, tmp_path):
        catalog = {
            "floats": BAT.from_columns(
                "void",
                "dbl",
                [0, 1, 2, 3],
                [math.nan, math.inf, -math.inf, -0.0],
                next_oid=4,
            ),
            "flags": BAT.from_columns("int", "bit", [-1, 5], [True, False]),
            "letters": BAT.from_columns("oid", "chr", [4, 2], ["é", "\n"]),
            "objects": BAT.from_columns(
                "void",
                "any",
                [0, 1, 2, 3],
                [{"nested": {1, 2}}, ("tuple", 1), None, 2.5],
                next_oid=4,
            ),
        }
        write_checkpoint(tmp_path, Checkpoint(seqno=1, catalog=catalog), fsync=False)
        back = read_checkpoint(tmp_path).catalog
        assert compare_catalogs(catalog, back) == []
        assert back["objects"].tails()[:2] == [{"nested": {1, 2}}, ("tuple", 1)]


# ---------------------------------------------------------------------------
# recovery edge cases
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_empty_store_recovers_to_nothing(self, tmp_path):
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.catalog == {} and state.next_txn == 1
        assert state.report.clean

    def test_empty_wal_replays_to_nothing(self, tmp_path):
        # an opened-then-closed store leaves a magic-only WAL: zero
        # records, zero corruption, clean recovery
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.close()
        assert store.wal_path.read_bytes() == MAGIC
        scan = read_records(store.wal_path)
        assert scan.records == [] and scan.corruption is None
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.catalog == {} and state.report.clean
        assert state.report.wal_records == 0

    def test_checkpoint_with_no_subsequent_records_starts_an_empty_wal(
        self, tmp_path
    ):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.checkpoint({"laps": lap_bat("laps")})
        store.close()
        # the WAL was truncated to magic-only; everything lives in the
        # checkpoint (the catch-up shape replication ships as a snapshot)
        assert store.wal_path.read_bytes() == MAGIC
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.report.wal_records == 0
        assert state.report.checkpoint_seqno == 1
        assert state.catalog["laps"].equals(lap_bat())

    def test_wal_only_recovery(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.close()
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.catalog["laps"].equals(lap_bat())
        assert state.report.checkpoint_seqno == 0

    def test_checkpoint_only_recovery(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.checkpoint({"laps": lap_bat("laps")})
        store.close()
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.report.wal_records == 0
        assert state.catalog["laps"].equals(lap_bat())

    def test_committed_transaction_replays(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        txn = store.commit(
            [("persist", "laps", lap_bat()), ("drop", "ghost")]
        )
        store.close()
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert txn == 1
        assert state.report.transactions_committed == 1
        assert state.catalog["laps"].equals(lap_bat())
        assert state.next_txn == 2

    def test_uncommitted_transaction_is_discarded(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store._wal.append({"op": "begin", "txn": 9})
        store._wal.append(
            {"op": "persist", "name": "laps", "bat": bat_to_payload(lap_bat())}
        )
        store.close()  # no commit marker: the "process" died mid-commit
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.catalog == {}
        assert state.report.transactions_discarded == 1
        assert state.next_txn == 10  # txn ids never reused after recovery

    def test_duplicate_replay_is_idempotent(self, tmp_path):
        # checkpoint renamed but WAL not yet truncated: every WAL record is
        # already folded into the checkpoint and must replay harmlessly
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.log_persist("ghost", lap_bat())
        store.log_drop("ghost")
        write_checkpoint(
            store.path,
            Checkpoint(seqno=1, catalog={"laps": lap_bat("laps")}),
            fsync=False,
        )
        store.close()  # killed before the WAL truncation
        for _ in range(2):  # recovery itself must also be re-runnable
            state = DurableStore(tmp_path / "s", fsync=False).recover()
            assert sorted(state.catalog) == ["laps"]
            assert state.catalog["laps"].equals(lap_bat())

    def test_duplicate_replay_of_row_deltas_is_idempotent(self, tmp_path):
        # the same crash, with a WAL of append records: the rows they carry
        # are already in the checkpoint and must not be appended twice
        kernel = MonetKernel(threads=1, check="off", store=tmp_path / "s")
        laps = kernel.persist("laps", lap_bat())
        ghost = kernel.persist("ghost", lap_bat())
        for lap in (77.7, 77.5):
            with kernel.transaction():
                laps.insert(lap)
                ghost.insert(lap)
        with kernel.transaction():
            # a shrinking full image after the appends: the checkpoint
            # holds 2 rows, which the earlier deltas (rows 3 and 4) do
            # not fit — they are superseded, not an error
            ghost.delete(0).delete(1).delete(2)
        expected = kernel.snapshot()
        write_checkpoint(
            kernel.store.path, Checkpoint(seqno=1, catalog=expected), fsync=False
        )
        kernel.close()  # killed before the WAL truncation
        ops = [r["op"] for r in read_records(kernel.store.wal_path).records]
        assert ops.count("append") == 4 and ops.count("persist") == 3
        for _ in range(2):
            state = DurableStore(tmp_path / "s", fsync=False).recover()
            assert sorted(state.catalog) == ["ghost", "laps"]
            assert len(state.catalog["laps"]) == 5
            for name, bat in expected.items():
                assert state.catalog[name].equals(bat)

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.log_drop("other")
        store.close()
        wal = store.wal_path
        wal.write_bytes(wal.read_bytes()[:-4])
        state = DurableStore(tmp_path / "s", fsync=False).recover()
        assert state.report.truncated_bytes > 0
        assert sorted(state.catalog) == ["laps"]
        # physical truncation happened: a rescan sees no corruption
        assert read_records(wal).corruption is None

    def test_dry_run_leaves_the_torn_tail_in_place(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.close()
        wal = store.wal_path
        damaged = wal.read_bytes()[:-4]
        wal.write_bytes(damaged)
        DurableStore(tmp_path / "s", fsync=False).recover(dry_run=True)
        assert wal.read_bytes() == damaged

    def test_recovery_report_metrics(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist("laps", lap_bat())
        store.commit([("persist", "times", lap_bat())])
        store.close()
        report = DurableStore(tmp_path / "s", fsync=False).recover().report
        assert report.wal_records == 4  # persist + begin/persist/commit
        assert report.records_replayed == 2
        assert report.bats_recovered == 2
        assert report.duration_seconds > 0
        assert "recovery of" in report.describe()

    def test_recovered_catalog_runs_invariants(self, tmp_path):
        report = check_catalog({"laps": lap_bat("laps")})
        assert not list(report)
        broken = lap_bat("bad")
        broken._tail.append(99.0)  # misaligned columns
        findings = check_catalog({"bad": broken})
        assert any(d.code == "CAT002" for d in findings)

    def test_group_alignment_invariant(self, tmp_path):
        a = BAT.from_columns("void", "str", [0], ["e1"], next_oid=1)
        b = BAT.from_columns("void", "str", [], [], next_oid=0)
        findings = check_catalog(
            {"meta_event_event_id": a, "meta_event_kind": b}
        )
        assert any(d.code == "CAT005" for d in findings)


# ---------------------------------------------------------------------------
# the durable kernel
# ---------------------------------------------------------------------------


class TestDurableKernel:
    def test_persist_drop_and_proc_survive_restart(self, tmp_path):
        kernel = MonetKernel(store=tmp_path / "s")
        kernel.persist("laps", lap_bat())
        kernel.persist("doomed", lap_bat())
        kernel.drop("doomed")
        kernel.run("PROC best(BAT[void,dbl] l) : dbl := { RETURN l.min; }")
        kernel.close()

        revived = MonetKernel(store=tmp_path / "s")
        assert revived.catalog_names() == ["laps"]
        assert revived.bat("laps").equals(lap_bat())
        assert "best" in revived.procedures()
        assert revived.call("best", [revived.bat("laps")]) == pytest.approx(77.9)
        revived.close()

    def test_transaction_is_the_commit_boundary(self, tmp_path):
        kernel = MonetKernel(store=tmp_path / "s")
        with kernel.transaction():
            kernel.persist("a", lap_bat())
            kernel.persist("b", lap_bat())
        with pytest.raises(MonetError):
            with kernel.transaction():
                kernel.persist("c", lap_bat())
                raise MonetError("boom")
        kernel.close()
        revived = MonetKernel(store=tmp_path / "s")
        assert revived.catalog_names() == ["a", "b"]  # "c" rolled back
        assert revived.recovery.aborts_seen == 1
        revived.close()

    def test_checkpoint_truncates_and_recovers(self, tmp_path):
        kernel = MonetKernel(store=tmp_path / "s")
        kernel.persist("laps", lap_bat())
        seqno = kernel.checkpoint()
        assert seqno == 1
        assert kernel.store._records_in_wal == 0
        kernel.persist("after", lap_bat())
        kernel.close()
        revived = MonetKernel(store=tmp_path / "s")
        assert revived.catalog_names() == ["after", "laps"]
        assert revived.recovery.checkpoint_seqno == 1
        revived.close()

    def test_auto_checkpoint_fires_between_commits(self, tmp_path):
        store = DurableStore(tmp_path / "s", fsync=False, auto_checkpoint=3)
        kernel = MonetKernel(store=store)
        for i in range(4):
            kernel.persist(f"b{i}", lap_bat())
        assert store._records_in_wal < 3
        assert read_checkpoint(store.path) is not None
        kernel.close()

    def test_modules_are_remembered_not_reloaded(self, tmp_path):
        from repro.cobra.extensions import DbnModule

        kernel = MonetKernel(store=tmp_path / "s")
        kernel.load_module(DbnModule())
        kernel.close()
        revived = MonetKernel(store=tmp_path / "s")
        assert revived.expected_modules == ["dbn"]
        assert revived.module_names() == []  # caller must re-load
        revived.close()

    def test_nested_transactions_are_savepoints(self, tmp_path):
        kernel = MonetKernel(store=tmp_path / "s")
        with kernel.transaction():
            kernel.persist("outer", lap_bat())
            with pytest.raises(MonetError):
                with kernel.transaction():
                    kernel.persist("inner", lap_bat())
                    raise MonetError("inner fails")
            assert "outer" in kernel.catalog_names()
            assert "inner" not in kernel.catalog_names()
        kernel.close()
        revived = MonetKernel(store=tmp_path / "s")
        assert revived.catalog_names() == ["outer"]
        revived.close()

    def test_a_failed_commit_rolls_the_catalog_back(self, tmp_path):
        kernel = MonetKernel(store=tmp_path / "s")
        kernel.persist("kept", lap_bat())
        kernel.store.close()
        with pytest.raises(DurabilityError):
            with kernel.transaction():
                kernel.persist("lost", lap_bat())
        assert kernel.catalog_names() == ["kept"]
        [failure] = kernel.drain_failures()
        assert (failure.site, failure.error, failure.action) == (
            "kernel.transaction",
            "DurabilityError",
            "rolled-back",
        )

    def test_a_commit_killed_mid_batch_leaves_no_abort_marker(self, tmp_path):
        faults = FaultInjector(
            FaultPlan(
                seed=1,
                name="kill-commit",
                specs=(FaultSpec(site="wal.commit:mid", kind="kill", max_triggers=1),),
            )
        )
        store = DurableStore(tmp_path / "s", faults=faults, fsync=False)
        kernel = MonetKernel(store=store)
        kernel.persist("kept", lap_bat())
        with pytest.raises(SimulatedCrash):
            with kernel.transaction():
                kernel.persist("lost", lap_bat())
        assert kernel.catalog_names() == ["kept"]
        store.close()
        revived = MonetKernel(store=tmp_path / "s")
        assert revived.catalog_names() == ["kept"]
        assert revived.recovery.aborts_seen == 0
        revived.close()

    def test_cross_thread_transaction_rejected(self):
        import threading

        kernel = MonetKernel()
        errors = []

        def intruder():
            try:
                with kernel.transaction():
                    pass
            except MonetError as exc:
                errors.append(exc)

        with kernel.transaction():
            thread = threading.Thread(target=intruder)
            thread.start()
            thread.join()
        assert len(errors) == 1

    def test_snapshot_is_aliasing_free(self):
        # regression: snapshot()/copy() used to share tail storage for
        # object-atom values, so post-snapshot mutation leaked into the
        # "snapshot" and rollback silently restored the mutated state
        kernel = MonetKernel()
        bat = BAT("void", "any")
        bat.insert({"mutable": [1, 2]})
        kernel.persist("state", bat)
        saved = kernel.snapshot()
        with pytest.raises(MonetError):
            with kernel.transaction():
                bat.tails()[0]["mutable"].append(3)
                assert saved["state"].tails()[0]["mutable"] == [1, 2]
                raise MonetError("roll back")
        assert kernel.bat("state") is bat
        assert bat.tails()[0]["mutable"] == [1, 2]

    def test_bat_copy_deep_copies_object_tails(self):
        bat = BAT("void", "any")
        payload = {"k": [1]}
        bat.insert(payload)
        clone = bat.copy()
        payload["k"].append(2)
        assert clone.tails()[0] == {"k": [1]}


# ---------------------------------------------------------------------------
# the record log under another magic, and the batch grammar's one reader
# ---------------------------------------------------------------------------


class TestRecordLog:
    def _journal(self, path, faults=None):
        return RecordLog(
            path, (JOURNAL_MAGIC,), "journal", faults=faults, fsync=False
        )

    def test_each_kind_of_log_rejects_the_other(self, tmp_path):
        journal = self._journal(tmp_path / "j.log")
        journal.append({"op": "prepare", "seq": 1})
        journal.close()
        assert (tmp_path / "j.log").read_bytes().startswith(JOURNAL_MAGIC)
        with pytest.raises(WalCorruptionError, match="REPROWAL2"):
            read_records(tmp_path / "j.log")
        wal = WriteAheadLog(tmp_path / "w.log", fsync=False)
        wal.append({"op": "drop", "name": "a"})
        wal.close()
        with pytest.raises(WalCorruptionError, match="REPROJNL1"):
            self._journal(tmp_path / "w.log").recover()
        with pytest.raises(WalCorruptionError):
            self._journal(tmp_path / "w.log").append({"op": "prepare", "seq": 1})

    @pytest.mark.parametrize(
        "step, survives", [("before", 0), ("mid", 0), ("written", 1), ("synced", 1)]
    )
    def test_kill_sites_carry_the_callers_prefix(self, tmp_path, step, survives):
        plan = FaultPlan(
            specs=(
                # the WAL's sites must stay silent: the same injector
                # reaches the stores beside a journal
                FaultSpec(site="wal.append:*", kind="kill"),
                FaultSpec(site=f"journal.append:{step}", kind="kill", skip=1),
            )
        )
        journal = self._journal(tmp_path / "j.log", FaultInjector(plan))
        journal.append({"op": "prepare", "seq": 1})
        with pytest.raises(SimulatedCrash):
            journal.append({"op": "commit", "seq": 1})
        journal.close()
        scan = self._journal(tmp_path / "j.log").recover()
        assert len(scan.records) == 1 + survives
        assert scan.torn_bytes == 0 or step == "mid"
        after = read_records(tmp_path / "j.log", magics=(JOURNAL_MAGIC,))
        assert after.torn_bytes == 0 and after.records == scan.records


class TestBatchAssembler:
    BATCH = [
        {"op": "begin", "txn": 4},
        {"op": "drop", "name": "a"},
        {"op": "drop", "name": "b"},
        {"op": "commit", "txn": 4},
    ]

    def test_a_batch_takes_effect_only_at_its_commit_marker(self):
        batches = BatchAssembler()
        assert batches.feed([{"op": "drop", "name": "auto"}, *self.BATCH[:2]]) == [
            {"op": "drop", "name": "auto"}
        ]
        assert batches.open and batches.committed == 0
        # the open batch is carried into the next call
        assert [r["name"] for r in batches.feed(self.BATCH[2:])] == ["a", "b"]
        assert not batches.open
        assert (batches.committed, batches.discarded, batches.max_txn) == (1, 0, 4)

    def test_a_batch_without_its_marker_is_discarded(self):
        batches = BatchAssembler()
        stream = [*self.BATCH[:3], {"op": "abort", "txn": 9}, *self.BATCH]
        assert [r["name"] for r in batches.feed(stream)] == ["a", "b"]
        assert (batches.committed, batches.discarded, batches.aborted) == (1, 1, 1)
        assert batches.max_txn == 9
        batches.feed(self.BATCH[:2])
        batches.discard()
        batches.discard()  # nothing open: not another discarded batch
        assert batches.discarded == 2 and not batches.open


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _seed_store(self, tmp_path):
        kernel = MonetKernel(store=tmp_path / "s")
        kernel.persist("laps", lap_bat())
        with kernel.transaction():
            kernel.persist("times", lap_bat())
        kernel.close()
        return str(tmp_path / "s")

    def test_inspect(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert durability_main(["inspect", store]) == 0
        out = capsys.readouterr().out
        assert "persist 'laps'" in out and "commit txn" in out

    def test_inspect_marks_an_uncommitted_batch(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        wal = WriteAheadLog(tmp_path / "s" / "wal.log", fsync=False)
        wal.append({"op": "begin", "txn": 7})
        wal.append({"op": "drop", "name": "laps"})
        wal.close()
        # a store directory and its log file read the same
        for target in (store, f"{store}/wal.log"):
            assert durability_main(["inspect", target]) == 0
            lines = capsys.readouterr().out.splitlines()
            marked = [line for line in lines if "uncommitted" in line]
            assert len(marked) == 1 and "drop 'laps'" in marked[0]

    def test_inspect_reads_a_placement_journal(self, tmp_path, capsys):
        journal = RecordLog(
            tmp_path / "placements.log", (JOURNAL_MAGIC,), "journal", fsync=False
        )
        journal.append({"op": "prepare", "seq": 1, "video": "race0"})
        journal.append({"op": "commit", "seq": 1, "video": "race0"})
        journal.close()
        assert durability_main(["inspect", str(tmp_path / "placements.log")]) == 0
        out = capsys.readouterr().out
        assert "placement journal: 2 record(s)" in out
        assert "prepare seq=1 video='race0'" in out
        assert "commit seq=1 video='race0'" in out and "uncommitted" not in out

    def test_inspect_rejects_a_file_that_is_no_record_log(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("prepare race0 on shard-0\n")
        assert durability_main(["inspect", str(tmp_path / "notes.txt")]) == 1
        assert "magic header" in capsys.readouterr().out

    def test_verify_ok_and_corrupt(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert durability_main(["verify", store]) == 0
        out = capsys.readouterr().out
        assert "recoverable" in out
        assert "catalog invariants (CAT001-CAT006): checked" in out
        wal = tmp_path / "s" / "wal.log"
        wal.write_bytes(wal.read_bytes()[:-2])
        assert durability_main(["verify", store]) == 0  # torn tail recoverable
        assert "truncated" in capsys.readouterr().out

    def test_verify_reports_catalog_invariant_violations(self, tmp_path, capsys):
        # two BATs of one aligned group with diverging counts rebuild fine
        # record by record, but violate the CAT005 catalog invariant
        store = DurableStore(tmp_path / "s", fsync=False)
        store.open()
        store.log_persist(
            "meta_event_event_id",
            BAT.from_columns("void", "str", [0], ["e1"], next_oid=1),
        )
        store.log_persist(
            "meta_event_kind",
            BAT.from_columns("void", "str", [], [], next_oid=0),
        )
        store.close()
        assert durability_main(["verify", str(tmp_path / "s")]) == 1
        out = capsys.readouterr().out
        assert "catalog invariants VIOLATED" in out
        assert "CAT005" in out

    def test_compact(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert durability_main(["compact", store]) == 0
        assert "compacted into checkpoint" in capsys.readouterr().out
        state = DurableStore(store).recover()
        assert state.report.wal_records == 0
        assert sorted(state.catalog) == ["laps", "times"]
