"""BAT accelerators: the on-demand value -> positions hashes and the
memoised ``tail_array()``.

The invariant under test is one sentence: *after any sequence of mutators,
a probe returns what a scan of a freshly rebuilt BAT returns*. The fresh
BAT comes from ``from_columns`` and so has never had an accelerator.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cobra.metadata import MetadataStore
from repro.hmm.parallel import HmmModule
from repro.moa.rewrite import BulkModule
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel

NAN = float("nan")
HEADS = (0, 1, 2, 3)
TAILS = (0.0, -0.0, 1.5, 2.5, NAN, float(np.float64("nan")))


def same(a, b) -> bool:
    """Equality with NaN == NaN, element-wise over (nested) sequences."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def fresh(bat: BAT) -> BAT:
    head, tail, next_oid = bat.columns()
    return BAT.from_columns(bat.head_type, bat.tail_type, head, tail, next_oid)


def scan(column, key) -> list[int]:
    return [i for i, value in enumerate(column) if same(value, key)]


def assert_probes_match_a_fresh_scan(bat: BAT) -> None:
    plain = fresh(bat)
    for tail in TAILS:
        expected = scan(plain.tails(), tail)
        assert bat.tail_positions(tail) == expected
        assert bat.tail_exists(tail) == bool(expected)
        got, want = bat.select(tail), plain.select(tail)
        assert got.heads() == want.heads() and same(got.tails(), want.tails())
    for head in HEADS:
        expected = scan(plain.heads(), head)
        assert bat.head_positions(head) == expected
        assert bat.exist(head) == plain.exist(head) == bool(expected)
        if expected:
            assert same(bat.find(head), plain.find(head))
    batch = [*HEADS, 7, *reversed(HEADS)]  # repeats and a head never stored
    assert bat.head_positions_many(batch) == [bat.head_positions(h) for h in batch]
    assert same(bat.tails_at(range(len(bat))), plain.tails())
    assert bat.heads_at(range(len(bat))) == plain.heads()
    array = bat.tail_array()
    assert not array.flags.writeable
    assert array.dtype == plain.tail_array().dtype
    assert same(array.tolist(), plain.tails())


# one step = (mutator name, head, tail)
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "insert_bulk", "delete", "replace", "snapshot", "restore", "copy")
        ),
        st.sampled_from(HEADS),
        st.sampled_from(TAILS),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_property_probe_after_any_mutator_equals_a_fresh_scan(script):
    bat = BAT("oid", "dbl")
    snapshot = bat.copy()
    for op, head, tail in script:
        if op == "insert":
            bat.insert(head, tail)
        elif op == "insert_bulk":
            bat.insert_bulk([head, head + 1], [tail, 1.5])
        elif op == "delete":
            bat.delete(head)
        elif op == "replace":
            if bat.exist(head):
                bat.replace(head, tail)
        elif op == "snapshot":
            snapshot = bat.copy()
        elif op == "restore":
            bat.restore(snapshot)
        else:  # carry on with the copy; the original stays probed-and-stale
            original, bat = bat, bat.copy()
            original.delete(head)
            assert_probes_match_a_fresh_scan(original)
        assert_probes_match_a_fresh_scan(bat)  # builds / catches up / rebuilds


def test_kernel_rollback_drops_accelerators_built_inside_the_transaction():
    kernel = MonetKernel(threads=1, check="off")
    bat = kernel.persist("laps", BAT("oid", "dbl"))
    bat.insert(0, 1.5).insert(1, 2.5)
    assert bat.tail_positions(1.5) == [0]
    with pytest.raises(RuntimeError):
        with kernel.transaction():
            bat.insert(2, 1.5)
            bat.delete(0)
            assert bat.tail_positions(1.5) == [1]  # positions moved
            raise RuntimeError("roll back")
    assert kernel.bat("laps") is bat
    assert_probes_match_a_fresh_scan(bat)
    assert bat.tail_positions(1.5) == [0]


def test_nan_tails_probe_like_eq():
    bat = BAT("void", "dbl")
    bat.insert_bulk(None, [1.0, NAN, 2.0, float(np.float64("nan")), 0.0, -0.0])
    before = bat.select(NAN).heads()  # scan: no hash yet
    assert bat.tail_positions(NAN) == [1, 3] == before
    assert bat.select(np.nan).heads() == before  # through the hash now
    assert bat.tail_positions(-0.0) == bat.tail_positions(0.0) == [4, 5]
    assert bat.reverse().exist(NAN) and bat.reverse().find(NAN) == 1


def test_unhashable_tails_fall_back_to_a_scan():
    bat = BAT("void", "any")
    bat.insert([1, 2]).insert("x").insert([1, 2])
    assert bat.tail_positions([1, 2]) == [0, 2]
    assert bat.tail_positions("x") == [1]
    assert not bat.tail_exists("y")


def test_unhashable_heads_fall_back_to_a_scan_in_a_batched_probe():
    bat = BAT("any", "int")
    bat.insert([1, 2], 0).insert("x", 1).insert([1, 2], 2)
    assert bat.head_positions_many([[1, 2], "x", "y"]) == [[0, 2], [1], []]


def test_probe_result_belongs_to_the_caller():
    bat = BAT("void", "str")
    bat.insert("a").insert("b").insert("a")
    positions = bat.tail_positions("a")
    positions.append(99)
    assert bat.tail_positions("a") == [0, 2]
    batch = bat.reverse().head_positions_many(["a", "a"])
    batch[0].append(99)
    assert batch[1] == [0, 2] == bat.reverse().head_positions("a")


# one role row = (event oid, role name, value); names repeat on purpose
role_rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(("driver", "p1", "lap")),
        st.sampled_from(("d0", "d1", "HAKKINEN", "2")),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(role_rows, role_rows)
def test_property_role_map_is_the_last_pair_of_each_event(first, later):
    """``MetadataStore.role_values(role)`` equals ``dict(pairs of oid)
    .get(role)`` per event — duplicate role names included, and for rows
    appended after the role BATs' accelerators were first built."""
    store = MetadataStore(MonetKernel(threads=1, check="off"))
    names, objects = store._role_names, store._role_objects
    written: list[tuple[int, str, str]] = []
    for rows in (first, later):
        for oid, role, value in rows:
            names.insert(oid, role)
            objects.insert(oid, value)
        written.extend(rows)
        for role in ("driver", "p1", "lap", "p9"):
            pairs: dict[int, dict[str, str]] = {}
            for oid, name, value in written:
                pairs.setdefault(oid, {})[name] = value
            expected = {
                oid: roles[role] for oid, roles in pairs.items() if role in roles
            }
            assert store.role_values(role) == expected
        oids = sorted({oid for oid, _, _ in written}) + [6]
        assert names.head_positions_many(oids) == [
            names.head_positions(oid) for oid in oids
        ]


class TestMemoisedTailArray:
    def test_shared_until_the_column_changes(self):
        bat = BAT("void", "dbl")
        bat.insert_bulk(None, [0.1, 0.9])
        first = bat.tail_array()
        assert bat.tail_array() is first
        bat.insert(0.5)
        second = bat.tail_array()
        assert second is not first and second.tolist() == [0.1, 0.9, 0.5]
        assert first.tolist() == [0.1, 0.9]  # the old image is untouched
        bat.replace(0, 0.2)
        assert bat.tail_array().tolist() == [0.2, 0.9, 0.5]

    def test_is_read_only(self):
        bat = BAT("void", "dbl")
        bat.insert(0.1)
        with pytest.raises(ValueError):
            bat.tail_array()[0] = 7.0
        names = BAT("void", "str")
        names.insert("a")
        with pytest.raises(ValueError):
            names.tail_array()[0] = "b"

    def test_existing_consumers_do_not_write_through_it(self):
        """moa/rewrite.py, hmm/parallel.py and compare_catalogs read the
        shared image; a write would raise on the read-only array and would
        show in the column."""
        left, right = BAT("void", "dbl"), BAT("void", "dbl")
        left.insert_bulk(None, [0.1, 0.9, 0.4])
        right.insert_bulk(None, [0.5, 0.2, 0.4])
        images = (left.tail_array(), right.tail_array())  # memoised from here on
        bulk = BulkModule()
        assert bulk.mselect(left, ">", 0.3).tails() == [0.9, 0.4]
        assert bulk.mmap(left, "*", 2.0).tails() == [0.2, 1.8, 0.8]
        assert bulk.maggr(left, "max") == 0.9
        assert HmmModule([]).quantize(left, right).tails() == [1, 0, 0]
        assert compare_catalogs({"f": left}, {"f": left.copy()}) == []
        assert (left.tail_array(), right.tail_array()) == images  # same objects
        assert left.tails() == [0.1, 0.9, 0.4] and right.tails() == [0.5, 0.2, 0.4]


def test_probes_keep_the_watermark_guarantee_under_concurrent_inserts():
    """One writer, three probing readers (more threads than this box has
    cores), a short switch interval. A reader's probes — single-value and
    batched alike — must never return a position at or beyond a length it
    reads afterwards, nor miss a row below a length it read beforehand."""
    rows = 20_000
    bat = BAT("oid", "int")
    errors: list[str] = []
    done = threading.Event()

    def writer() -> None:
        try:
            for row in range(rows):
                bat.insert(row % 5, row % 7)
                if row % 50 == 0:
                    time.sleep(0)  # hand the interpreter to a reader
        finally:
            done.set()

    def reader(key: int) -> None:
        probes = 0
        while not errors:
            finished = done.is_set()
            before = len(bat)
            tails = bat.tail_positions(key)
            heads = bat.head_positions(key % 5)
            batch = bat.head_positions_many([key % 5, (key + 1) % 5])
            array = bat.tail_array()
            after = len(bat)
            for positions, modulus, wanted in (
                (tails, 7, key),
                (heads, 5, key % 5),
                (batch[0], 5, key % 5),
                (batch[1], 5, (key + 1) % 5),
            ):
                complete = list(range(wanted, before, modulus))
                if positions[: len(complete)] != complete:
                    errors.append(f"missing a row below {before}: {positions[-3:]}")
                if positions and positions[-1] >= after:
                    errors.append(f"position {positions[-1]} >= length {after}")
                if any(p % modulus != wanted for p in positions[len(complete) :]):
                    errors.append("a position of another value")
            if not before <= len(array) <= after:
                errors.append(f"array of {len(array)} rows between {before} and {after}")
            probes += 1
            if finished:
                break
        if not probes:
            errors.append("reader never probed")

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(key,)) for key in (1, 3, 6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(bat) == rows
    assert bat.tail_positions(3) == list(range(3, rows, 7))
