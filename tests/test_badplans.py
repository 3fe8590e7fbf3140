"""Mutation corpus: every bad plan yields exactly its expected diagnostic.

Each artifact under ``tests/data/badplans/`` seeds exactly one defect; the
flowcheck/racecheck passes must report that defect's code and nothing else
(no false positives riding along, no misclassification). The ``program/``
subdirectory holds whole-program artifacts checked by programcheck alone
(``CALLnnn``), and ``equiv/`` holds Moa-expression/MIL-plan pairs run
through the translation validator (``EQnnn``); clean counterparts carry
``# expect: none`` (or ``"expect": "EQ001"`` — a proof, not a defect).
"""

import json
from pathlib import Path

import pytest

from repro.check.equivcheck import validate_translation
from repro.check.absint import MoaInterpreter
from repro.check.flowcheck import FlowChecker, check_feature_set, check_moa_flow
from repro.check.programcheck import ProgramChecker
from repro.check.racecheck import RaceChecker
from repro.moa.algebra import (
    Aggregate,
    Apply,
    Arith,
    Cmp,
    Const,
    Map,
    Select,
    SetOp,
    Var,
)

BADPLANS = Path(__file__).resolve().parent / "data" / "badplans"
MIL_PLANS = sorted(BADPLANS.glob("*.mil"))
JSON_PLANS = sorted(BADPLANS.glob("*.json"))
PROGRAM_PLANS = sorted((BADPLANS / "program").glob("*.mil"))
EQUIV_PLANS = sorted((BADPLANS / "equiv").glob("*.json"))


@pytest.fixture(scope="module")
def env():
    """The same checker environment the CLI builds: the full Cobra kernel."""
    from repro.cobra.vdbms import CobraVDBMS

    kernel = CobraVDBMS(check="off").kernel
    return dict(
        commands=kernel.command_names(),
        signatures=kernel.command_signatures(),
        globals_names=kernel.catalog_names(),
        procedures=kernel.interpreter.procedures,
    )


def expected_code(path: Path) -> str:
    for line in path.read_text().splitlines():
        if line.startswith("# expect:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{path.name} has no '# expect:' header")


def decode_expr(obj):
    """Tiny JSON -> Moa expression decoder for the corpus artifacts."""
    ((key, value),) = obj.items()
    if key == "var":
        return Var(value)
    if key == "const":
        return Const(value)
    if key == "arith":
        op, left, right = value
        return Arith(op, decode_expr(left), decode_expr(right))
    if key == "map":
        return Map(
            value["var"], decode_expr(value["body"]), decode_expr(value["source"])
        )
    if key == "apply":
        return Apply(
            value["extension"],
            value["operator"],
            [decode_expr(arg) for arg in value["args"]],
        )
    if key == "cmp":
        op, left, right = value
        return Cmp(op, decode_expr(left), decode_expr(right))
    if key == "select":
        return Select(
            value["var"], decode_expr(value["pred"]), decode_expr(value["source"])
        )
    if key == "aggregate":
        return Aggregate(value["kind"], decode_expr(value["source"]))
    if key == "setop":
        op, left, right = value
        return SetOp(op, decode_expr(left), decode_expr(right))
    raise AssertionError(f"unknown expression node {key!r}")


def test_corpus_is_present():
    assert len(MIL_PLANS) >= 10
    assert len(JSON_PLANS) >= 3
    assert len(PROGRAM_PLANS) >= 6
    assert len(EQUIV_PLANS) >= 3


@pytest.mark.parametrize("path", MIL_PLANS, ids=lambda p: p.stem)
def test_mil_badplan_yields_exactly_its_code(path, env):
    expect = expected_code(path)
    source = path.read_text()
    report = FlowChecker(**env).check_source(source, name=path.name)
    report.extend(RaceChecker(**env).check_source(source, name=path.name))
    assert [d.code for d in report] == [expect], report.format()


@pytest.mark.parametrize("path", JSON_PLANS, ids=lambda p: p.stem)
def test_json_badplan_yields_exactly_its_code(path):
    data = json.loads(path.read_text())
    if data["kind"] == "moa":
        report = check_moa_flow(
            MoaInterpreter().run(decode_expr(data["expr"])), source=path.name
        )
    else:
        report = check_feature_set(
            data["streams"], duration=data.get("duration"), source=path.name
        )
    assert [d.code for d in report] == [data["expect"]], report.format()


@pytest.mark.parametrize("path", PROGRAM_PLANS, ids=lambda p: p.stem)
def test_program_badplan_yields_exactly_its_code(path, env):
    expect = expected_code(path)
    report = ProgramChecker(**env).check_source(path.read_text(), name=path.name)
    expected = [] if expect == "none" else [expect]
    assert [d.code for d in report] == expected, report.format()


@pytest.mark.parametrize("path", EQUIV_PLANS, ids=lambda p: p.stem)
def test_equiv_badplan_yields_exactly_its_code(path):
    data = json.loads(path.read_text())
    report = validate_translation(
        decode_expr(data["expr"]),
        data["mil"],
        data["proc"],
        data["inputs"],
        source=path.name,
    )
    assert [d.code for d in report] == [data["expect"]], report.format()


def test_corpus_covers_every_static_code():
    codes = {expected_code(p) for p in MIL_PLANS}
    codes |= {json.loads(p.read_text())["expect"] for p in JSON_PLANS}
    codes |= {expected_code(p) for p in PROGRAM_PLANS}
    codes |= {json.loads(p.read_text())["expect"] for p in EQUIV_PLANS}
    assert {
        "FLOW001",
        "FLOW002",
        "FLOW003",
        "FLOW004",
        "FLOW005",
        "FLOW006",
        "RACE001",
        "RACE002",
        "RACE003",
        "RACE004",
        "CALL001",
        "CALL002",
        "CALL004",
        "EQ001",
        "EQ002",
        "EQ003",
    } <= codes


def test_call004_is_invisible_to_intraprocedural_racecheck(env):
    """The acceptance criterion: the CALL004 corpus plan is clean under
    every intraprocedural pass — only the whole-program pass catches it."""
    source = (BADPLANS / "program" / "call004_parallel_callee_write.mil").read_text()
    report = RaceChecker(**env).check_source(source, name="call004")
    assert [d.code for d in report] == [], report.format()
