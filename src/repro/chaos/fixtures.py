"""The catalog the durability and replication scenarios write: lap times,
drivers, pit stops, a final ranking, and one PROC."""

from __future__ import annotations

from repro.monet.bat import BAT

PROC_SOURCE = """
PROC bestLap(BAT[void,dbl] laps) : dbl := {
    RETURN laps.min;
}
"""


def laps() -> BAT:
    return BAT.from_columns(
        "void", "dbl", [0, 1, 2], [78.123, 77.901, 78.456], next_oid=3
    )


def laps_extended() -> BAT:
    return BAT.from_columns(
        "void", "dbl", [0, 1, 2, 3], [78.123, 77.901, 78.456, 77.512],
        next_oid=4,
    )


def drivers() -> BAT:
    return BAT.from_columns(
        "void", "str", [0, 1], ["hakkinen", "schumacher"], next_oid=2
    )


def pits() -> BAT:
    return BAT.from_columns("void", "dbl", [0, 1], [7.8, 8.4], next_oid=2)


def ranking() -> BAT:
    return BAT.from_columns("void", "int", [0, 1, 2], [3, 1, 2], next_oid=3)


def sectors() -> BAT:
    return BAT.from_columns(
        "void", "dbl", [0, 1, 2], [-0.12, 0.34, -0.05], next_oid=3
    )


def fastest() -> BAT:
    return BAT.from_columns("void", "dbl", [0], [77.512], next_oid=1)


def ghost() -> BAT:
    return BAT.from_columns("void", "int", [0], [666], next_oid=1)
