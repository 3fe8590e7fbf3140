"""Column-at-a-time coercion in the bulk BAT writers.

``insert_bulk``, ``from_columns`` and ``append_columns`` take a column
whose values all have the atom's exact stored type as it stands and coerce
any other column value by value. Either way the stored column must be what
``[atom.coerce(v) for v in values]`` gives — the same values of the same
types — and a column the atom rejects must raise what that comprehension
raises and leave the BAT as it was.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monet.atoms import ATOMS
from repro.monet.bat import BAT

BUILTIN_ATOMS = ("oid", "void", "int", "flt", "dbl", "str", "bit", "chr", "any")


class Lap(IntEnum):
    FIRST = 1
    BEFORE_START = -1


class Name(str):
    """A str subclass: not the str atom's exact stored type."""


values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-3, 3),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf]),
    st.integers(-5, 5).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from(list(Lap)),
    st.text(max_size=3),
    st.text(max_size=2).map(Name),
    st.binary(max_size=3),
    st.none(),
)
#: Mostly columns of one kind of value — the ones a fast path can take
#: whole — and some of mixed kinds.
columns = st.one_of(
    values.flatmap(lambda v: st.lists(st.just(v), max_size=4)),
    st.lists(st.integers(-3, 100), max_size=6),
    st.lists(st.integers(0, 100), max_size=6),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
    st.lists(st.text(max_size=3), max_size=6),
    st.lists(values, max_size=6),
)


def coerced(atom: str, column: list):
    """What row-by-row coercion stores, or the exception type it raises."""
    try:
        return [ATOMS.get(atom).coerce(v) for v in column]
    except Exception as exc:  # noqa: BLE001 - the type is the expectation
        return type(exc)


def same(got: list, want: list) -> bool:
    """Equal values of identical types; NaN equals NaN, -0.0 is not 0.0."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return False
            elif a != b or math.copysign(1, a) != math.copysign(1, b):
                return False
        elif a is not b and a != b:
            return False
    return True


def outcome(write) -> object:
    try:
        return write()
    except Exception as exc:  # noqa: BLE001 - compared against coerced()
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(atom=st.sampled_from(BUILTIN_ATOMS), column=columns)
def test_bulk_writers_store_what_row_coercion_stores(atom, column):
    want = coerced(atom, column)

    # tails through insert_bulk, onto rows already there
    tails = BAT("void", atom)
    seed = [] if isinstance(want, type) else want[:1]
    tails.insert_bulk(None, seed)
    got = outcome(lambda: tails.insert_bulk(None, column).tails()[len(seed) :])
    assert got is want if isinstance(want, type) else same(got, want)
    if isinstance(want, type):
        assert same(tails.tails(), seed) and tails.count() == len(seed)

    # heads through insert_bulk
    heads = BAT(atom, "any")
    got = outcome(lambda: heads.insert_bulk(column, [None] * len(column)).heads())
    assert got is want if isinstance(want, type) else same(got, want)
    if isinstance(want, type):
        assert heads.count() == 0

    # both columns through from_columns
    got = outcome(lambda: BAT.from_columns(atom, atom, column, column))
    if isinstance(want, type):
        assert got is want
    else:
        assert same(got.heads(), want) and same(got.tails(), want)

    # a replayed row delta through append_columns
    grown = BAT("void", atom)
    got = outcome(
        lambda: grown.append_columns(range(len(column)), column, len(column)).tails()
    )
    assert got is want if isinstance(want, type) else same(got, want)
    if isinstance(want, type):
        assert grown.count() == 0 and grown.version()[2] == 0


def test_a_column_taken_as_it_stands_is_not_the_callers_list():
    column = [1.5, 2.5]
    bat = BAT.from_columns("void", "dbl", [0, 1], column, next_oid=2)
    column.append(3.5)
    assert bat.tails() == [1.5, 2.5]


def test_bool_and_negative_values_never_take_the_int_fast_path():
    assert outcome(lambda: BAT("void", "int").insert_bulk(None, [1, True])) is (
        coerced("int", [1, True])
    )
    assert outcome(lambda: BAT("oid", "int").insert_bulk([0, -1], [1, 2])) is (
        coerced("oid", [0, -1])
    )
    assert same(BAT("void", "dbl").insert_bulk(None, [1, 2.5]).tails(), [1.0, 2.5])
