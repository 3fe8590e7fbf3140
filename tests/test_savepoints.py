"""Transaction savepoints by watermark.

A ``transaction()`` scope records each BAT's column lists and row count
instead of copying the catalog, and a rollback cuts grown columns back in
place. This file is the rollback matrix: every kind of catalog mutation,
in nested scopes, rolled back to a catalog equal to a deep copy taken
before the scope — BAT objects, oid counters and all — after which the
next durable commit still recovers to the live kernel. It also pins that
opening a transaction copies no column of a catalog without mutable
values.
"""

from __future__ import annotations

import pytest

import repro.monet.bat as bat_module
from repro.durability import DurableStore
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel


class Boom(Exception):
    """The failure every rolled-back scope raises."""


def laps(rows: int) -> BAT:
    return BAT("void", "dbl").insert_bulk(None, [70.0 + i for i in range(rows)])


def durable(tmp_path) -> MonetKernel:
    kernel = MonetKernel(
        threads=1, check="off", store=DurableStore(tmp_path / "s", fsync=False)
    )
    with kernel.transaction():
        kernel.persist("laps", laps(3))
        kernel.persist("pairs", BAT("oid", "str").insert_bulk([10, 11, 12], list("abc")))
        kernel.persist("models", BAT("void", "any").insert_bulk(None, [{"k": [1]}]))
    return kernel


def grow(kernel: MonetKernel) -> None:
    """Append one row to every BAT: a change that only grows columns."""
    for name, bat in kernel.catalog.items():
        if bat.head_type == "void":
            bat.insert({"grown": name} if bat.tail_type == "any" else 3)
        else:
            bat.insert(100 + len(bat), "g")


#: Every kind of catalog mutation a scope can roll back.
MUTATIONS = {
    "insert-void": lambda k: k.bat("laps").insert(99.0),
    "insert-oid": lambda k: k.bat("pairs").insert(13, "d"),
    "insert_bulk-void": lambda k: k.bat("laps").insert_bulk(None, [1.0, 2.0]),
    "insert_bulk-oid": lambda k: k.bat("pairs").insert_bulk([14, 15], ["e", "f"]),
    "delete": lambda k: k.bat("laps").delete(1),
    "replace": lambda k: k.bat("pairs").replace(11, "changed"),
    "restore": lambda k: k.bat("laps").restore(laps(1)),
    "persist-new": lambda k: k.persist("fresh", laps(2)),
    "rebind": lambda k: k.persist("laps", laps(5)),
    "rebind-other-types": lambda k: k.persist("laps", BAT("void", "int").insert(1)),
    "drop": lambda k: k.drop("pairs"),
    "any-in-place": lambda k: k.bat("models").fetch(0)[1]["k"].append(2),
    "append-rewrite-append": lambda k: k.bat("laps").insert(1.0).delete(0).insert(2.0),
}


def assert_rolled_back(kernel: MonetKernel, entry: dict[str, BAT], bound: dict) -> None:
    """The catalog equals the deep copy ``entry``, under the BAT objects
    ``bound`` to each name then, with their oid counters."""
    assert compare_catalogs(entry, kernel.catalog) == []
    for name, bat in bound.items():
        assert bat is kernel.bat(name) and bat._next_oid == entry[name]._next_oid


def assert_commit_recovers(kernel: MonetKernel) -> None:
    with kernel.transaction():
        kernel.bat("laps").insert(5.0)
    back = DurableStore(kernel.store.path, fsync=False).recover().catalog
    assert compare_catalogs(kernel.snapshot(), back) == []


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
class TestRollbackMatrix:
    def test_a_failed_scope_rolls_back_to_its_entry(self, tmp_path, mutate):
        kernel = durable(tmp_path)
        entry, bound = kernel.snapshot(), dict(kernel.catalog)
        with pytest.raises(Boom):
            with kernel.transaction():
                mutate(kernel)
                grow(kernel)
                raise Boom
        assert_rolled_back(kernel, entry, bound)
        assert_commit_recovers(kernel)

    def test_an_inner_scope_rolls_back_to_the_outer_scopes_state(
        self, tmp_path, mutate
    ):
        kernel = durable(tmp_path)
        with kernel.transaction():
            grow(kernel)
            middle, bound = kernel.snapshot(), dict(kernel.catalog)
            with pytest.raises(Boom):
                with kernel.transaction():
                    mutate(kernel)
                    grow(kernel)
                    raise Boom
            assert_rolled_back(kernel, middle, bound)
            grow(kernel)
        assert_commit_recovers(kernel)

    def test_an_outer_rollback_undoes_a_released_inner_scope(
        self, tmp_path, mutate
    ):
        kernel = durable(tmp_path)
        entry, bound = kernel.snapshot(), dict(kernel.catalog)
        with pytest.raises(Boom):
            with kernel.transaction():
                grow(kernel)
                with kernel.transaction():
                    mutate(kernel)
                    grow(kernel)
                with pytest.raises(Boom):
                    with kernel.transaction():
                        grow(kernel)
                        raise Boom
                raise Boom
        assert_rolled_back(kernel, entry, bound)
        assert_commit_recovers(kernel)


def test_rollback_after_a_rewrite_keeps_the_saved_prefix(tmp_path):
    # the outer savepoint's rows are untouched by everything the scope did:
    # appends land past them, the rewrite builds new lists
    kernel = durable(tmp_path)
    bat = kernel.bat("laps")
    saved_tail = bat._tail
    with pytest.raises(Boom):
        with kernel.transaction():
            bat.insert(1.0)
            bat.replace(0, 9.0)
            bat.insert(2.0)
            assert bat._tail is not saved_tail and saved_tail[:3] == [70.0, 71.0, 72.0]
            raise Boom
    assert bat.tails() == [70.0, 71.0, 72.0]


def test_an_untouched_bat_keeps_its_accelerators_and_version(tmp_path):
    kernel = durable(tmp_path)
    spared, touched = kernel.bat("laps"), kernel.bat("pairs")
    spared.tail_positions(70.0)
    version = spared.version()
    with pytest.raises(Boom):
        with kernel.transaction():
            touched.insert(20, "z")
            raise Boom
    assert spared.version() == version and "tail" in spared._hashes
    assert touched.version()[1] > 0  # rolled back: the store logs it whole


def test_opening_a_transaction_copies_no_column(tmp_path, monkeypatch):
    kernel = MonetKernel(
        threads=1, check="off", store=DurableStore(tmp_path / "s", fsync=False)
    )
    kernel.persist("laps", laps(1000))
    kernel.persist("pairs", BAT("oid", "str").insert_bulk(range(1000), ["x"] * 1000))
    copies = []
    monkeypatch.setattr(BAT, "copy", lambda *a, **k: copies.append("copy"))
    monkeypatch.setattr(
        bat_module, "_copy_column", lambda *a: copies.append("_copy_column")
    )
    with kernel.transaction():
        kernel.bat("laps").insert(1.0)
    with pytest.raises(Boom):
        with kernel.transaction():
            with kernel.transaction():
                kernel.bat("pairs").insert(5000, "y")
            raise Boom
    assert copies == []
