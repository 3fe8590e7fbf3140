"""The error contract at the query surfaces: only ``ReproError`` escapes.

A MIL binary operator applied to operands Python cannot combine (a BAT
compared with a number, a division by zero, a string plus an int) raises
:class:`repro.errors.MilTypeError` naming the operator and the operand
kinds, never Python's own ``TypeError`` or ``ZeroDivisionError``. The
property tests sweep every operator over literal, string, boolean and BAT
operands, and token soups through ``CobraVDBMS.query`` (the explicit
examples are literals that once escaped as ``ValueError``).
"""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cobra.vdbms import CobraVDBMS
from repro.errors import MilTypeError, ReproError
from repro.monet.kernel import MonetKernel

OPERATORS = ("+", "-", "*", "/", "=", "!=", "<", ">", "<=", ">=")

#: ``b`` is the BAT every swept program declares first.
OPERANDS = st.one_of(
    st.integers(0, 99).map(str),
    st.sampled_from(["0.0", "2.5", "1e308", ".5"]),
    st.text(alphabet="ab ", max_size=3).map(lambda text: f'"{text}"'),
    st.sampled_from(["TRUE", "FALSE", "b"]),
)

COQL_WORDS = (
    "RETRIEVE", "FROM", "ALL", "WHERE", "AND", "ROLE", "DRIVER", "POSITION",
    "CONFIDENCE", "LAP", "WITH", "INTERSECTS", "WITHIN", "BEFORE", "AFTER",
    "DURING", "MEETS", "fly_out", "highlight", "pit_stop", "classification",
    "driver", "SCHUMACHER", "=", ">=", "<", "1", "0.6", "-3", "x1e", '"a b"',
    '"', "(", ")", ",", "",
)


def run_mil(source: str):
    return MonetKernel(threads=1, check="off").run(source)


@pytest.mark.parametrize(
    "source, operator, kinds",
    [
        ("VAR b := new(void,int); VAR x := b > 1.0;", ">", ("BAT", "float")),
        ("VAR x := 1 / 0;", "/", ("int", "int")),
        ('VAR x := "a" + 1;', "+", ("str", "int")),
    ],
)
def test_operand_errors_are_mil_type_errors(source, operator, kinds):
    with pytest.raises(MilTypeError) as err:
        run_mil(source)
    message = str(err.value)
    assert f"operator {operator!r}" in message
    assert all(kind in message for kind in kinds)


@settings(max_examples=400, deadline=None)
@given(left=OPERANDS, op=st.sampled_from(OPERATORS), right=OPERANDS)
def test_only_repro_errors_escape_a_binary_operator(left, op, right):
    try:
        run_mil(f"VAR b := new(void,int); VAR x := {left} {op} {right};")
    except ReproError:
        pass


@cache
def vdbms() -> CobraVDBMS:
    return CobraVDBMS()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    head=st.sampled_from(["", "RETRIEVE fly_out", "RETRIEVE highlight WHERE"]),
    words=st.lists(
        st.one_of(st.sampled_from(COQL_WORDS), st.text(max_size=4)),
        max_size=10,
    ),
)
@example(head="RETRIEVE highlight WHERE", words=["LAP", "=", "x"])
@example(head="RETRIEVE highlight WHERE", words=["CONFIDENCE", ">=", "high"])
@example(head="RETRIEVE highlight WHERE", words=["POSITION", "a", "=", "b"])
def test_only_repro_errors_escape_a_coql_query(head, words):
    try:
        vdbms().query(" ".join([head, *words]))
    except ReproError:
        pass
