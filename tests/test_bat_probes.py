"""The batched and range probes the COQL read path uses: ``tail_positions_many``,
``head_positions_many`` (keys coerced a column at a time), ``tail_runs`` and
``tail_positions_in``.

Each must answer what the single-value probe answers — ``tail_positions`` /
``head_positions``, themselves checked against a scan in
``test_bat_accelerators.py`` — before and after rows are appended behind a
built hash, and after a rewrite drops it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MonetError
from repro.monet.bat import BAT

VALUES = ("a", "b", "c")


def runs_of(positions: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive positions, ``[lo, hi)``, the slow way."""
    runs: list[tuple[int, int]] = []
    for position in positions:
        if runs and runs[-1][1] == position:
            runs[-1] = (runs[-1][0], position + 1)
        else:
            runs.append((position, position + 1))
    return runs


def assert_probes_agree(bat: BAT) -> None:
    wanted = [*VALUES, "z", "a"]  # a value never stored, and a repeat
    single = [bat.tail_positions(value) for value in wanted]
    assert bat.tail_positions_many(wanted) == single
    runs = bat.tail_runs(wanted)
    assert runs == [runs_of(positions) for positions in single]
    groups = [[(0, 3)], [(2, 5), (7, 9)], [], [(0, len(bat) + 2)], *runs]
    for value, positions in zip(VALUES, single):
        assert bat.tail_positions_in(value, groups) == [
            [p for p in positions if any(lo <= p < hi for lo, hi in ranges)]
            for ranges in groups
        ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(VALUES), max_size=40),
    st.lists(st.sampled_from(VALUES), max_size=10),
)
def test_batched_and_range_probes_match_the_single_probe(column, appended):
    bat = BAT("void", "str")
    bat.insert_bulk(None, column)
    assert_probes_agree(bat)  # builds the tail hash
    bat.insert_bulk(None, appended)
    assert_probes_agree(bat)  # caught up to the appended rows
    if len(bat):
        bat.delete(0)  # a rewrite drops the hash
        assert_probes_agree(bat)


def test_range_probe_results_belong_to_the_caller():
    bat = BAT("void", "str")
    bat.insert_bulk(None, ["a", "b", "a", "a"])
    [inside] = bat.tail_positions_in("a", [[(0, 4)]])
    inside.append(99)
    [runs] = bat.tail_runs(["a"])
    runs.append((7, 8))
    assert bat.tail_positions("a") == [0, 2, 3]
    assert bat.tail_runs(["a"]) == [[(0, 1), (2, 4)]]


#: Keys of an oid-headed BAT: stored ones, ones never stored, and values the
#: oid atom converts (a float, a numeric string) or rejects (negative,
#: non-numeric, a bool, None).
OID_KEYS = (0, 1, 2, 7, 1.0, "2", -1, "x", True, None)


def value_by_value(bat: BAT, keys: list) -> list[list[int]] | tuple[type, str]:
    try:
        return [bat.head_positions(key) for key in keys]
    except MonetError as exc:
        return type(exc), str(exc)


def batched(bat: BAT, keys: list) -> list[list[int]] | tuple[type, str]:
    try:
        return bat.head_positions_many(keys)
    except MonetError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(OID_KEYS), max_size=6))
def test_head_keys_coerced_a_column_at_a_time_match_value_by_value(keys):
    """``head_positions_many`` coerces its keys as ``insert_bulk`` coerces a
    column: the same positions, and for a negative or non-integer oid the
    same error, as coercing (and probing) value by value."""
    bat = BAT("oid", "str")
    bat.insert_bulk([0, 1, 0, 2], ["p1", "p2", "lap", "p1"])
    assert batched(bat, keys) == value_by_value(bat, keys)


@pytest.mark.parametrize("bad", [-1, "x", None, True])
def test_a_bad_oid_key_raises_as_the_single_probe_does(bad):
    bat = BAT("oid", "str")
    bat.insert(0, "p1")
    with pytest.raises(MonetError) as single:
        bat.head_positions(bad)
    with pytest.raises(MonetError) as many:
        bat.head_positions_many([0, bad, 0])
    assert (type(many.value), str(many.value)) == (type(single.value), str(single.value))
