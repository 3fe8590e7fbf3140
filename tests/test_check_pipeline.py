"""The shared machinery under the MIL passes: walker, effect stream, pipeline.

These oracles guard the one-walker / one-interpreter / one-effect-inference /
one-pipeline structure of :mod:`repro.check`:

* ``tests/data/check_snapshot.json`` — every finding the CLI printed at
  the commit *before* the passes were rebuilt on shared code; the current
  tree must reproduce it exactly (corpus files added since may add
  findings, nothing else may change);
* ``tests/data/check_generated.json`` — a digest of every finding (and
  cost estimate) milcheck, flowcheck and costcheck gave seeded random
  programs (:mod:`tests.milgen`) before they shared one abstract
  interpreter (re-captured once, when FLOW002 stopped skipping BAT stores
  inside fusion regions): no finding may appear, disappear or change;
* a reflection walk over the node dataclasses, which :func:`repro.monet.mil.walk`
  must match node for node;
* call counters on the analyses passes share, pinning "once per
  definition": the abstract run of a MIL procedure and the value walk of
  a compiled Moa expression;
* the BAT-method table against the runtime ``BAT``: every row resolves
  through the interpreter's method dispatch with an arity its signature
  allows, and every other public method is listed as not modelled.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.check import pipeline
from repro.check.__main__ import main
from repro.check.absint import BAT_METHODS, Interpreter, MoaInterpreter, interpret
from repro.check.costcheck import CostChecker
from repro.check.effects import events, shared_events
from repro.check.environment import Environment
from repro.check.flowcheck import FlowChecker
from repro.check.milcheck import MilChecker
from repro.check.programcheck import ProgramChecker
from repro.errors import MilCheckError, MilTypeError
from repro.monet import mil
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.mil import Call, ProcDef, parse, walk
from tests import milgen

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = json.loads((REPO_ROOT / "tests" / "data" / "check_snapshot.json").read_text())
GENERATED = json.loads((REPO_ROOT / "tests" / "data" / "check_generated.json").read_text())

#: Corpus files added after the snapshot was taken: their findings are the
#: only permitted additions.
ADDED_SINCE_SNAPSHOT = {
    "tests/data/badplans/program/call004_callee_write_in_expression.mil",
    "tests/data/badplans/program/clean_callee_read_in_expression.mil",
    "tests/data/badplans/flow002_dead_bat_store.mil",
}


# ---------------------------------------------------------------------------
# (a) diagnostics hold still
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("run", sorted(SNAPSHOT["runs"]))
def test_cli_reproduces_the_parent_snapshot(run, monkeypatch, capsys):
    expected = SNAPSHOT["runs"][run]
    monkeypatch.chdir(REPO_ROOT)  # sources in the snapshot are repo-relative
    main(["--format", "json", *expected["argv"]])
    document = json.loads(capsys.readouterr().out)
    kept = [
        d for d in document["diagnostics"] if d.get("source") not in ADDED_SINCE_SNAPSHOT
    ]
    added = [
        d for d in document["diagnostics"] if d.get("source") in ADDED_SINCE_SNAPSHOT
    ]
    assert kept == expected["diagnostics"]
    if run == "badplans":
        assert "CALL004" in {d["code"] for d in added}
    else:
        assert document["checked"] == expected["checked"]
        assert not added


INTERPRETED = (MilChecker, FlowChecker, CostChecker)


def _environments():
    from repro.cobra.vdbms import CobraVDBMS

    kernel = CobraVDBMS(check="off").kernel
    return {
        "kernel": dict(
            commands=kernel.command_names(),
            signatures=kernel.command_signatures(),
            globals_names=kernel.catalog_names(),
            procedures=kernel.interpreter.procedures,
        ),
        "small": dict(
            commands=set(milgen.SIGNATURES),
            signatures=milgen.SIGNATURES,
            globals_names=["gbat"],
        ),
    }


def _outcome(source: str, name: str, values: dict) -> str:
    """``count:digest`` of the sorted findings of a file (lint) and of each
    of its PROCs (define), with each PROC's cost estimate."""

    def line(d):
        return f"{d.line}:{d.end_line}:{d.severity.name}:{d.code}:{d.source}:{d.message}"

    lines = []
    for checker in INTERPRETED:
        report = checker(**values).check_source(source, name)
        lines += [f"lint {checker.__name__} {line(d)}" for d in report]
    for index, statement in enumerate(parse(source)):
        if isinstance(statement, ProcDef):
            env = Environment(**values)
            for checker in INTERPRETED:
                report = checker(env).check_proc(statement)
                lines += [f"define {index} {checker.__name__} {line(d)}" for d in report]
            lines.append(f"cost {index} {interpret(env, statement).cost!r}")
    lines.sort()
    return f"{len(lines)}:{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()[:16]}"


@pytest.mark.parametrize("group", sorted(GENERATED))
def test_generated_programs_keep_every_finding(group):
    environment, generator = group.split("/")
    values = _environments()[environment]
    programs = getattr(milgen, f"{generator}_programs")(len(GENERATED[group]))
    outcomes = {name: _outcome(source, name, values) for name, source in programs}
    moved = sorted(name for name in outcomes if outcomes[name] != GENERATED[group][name])
    assert not moved, f"findings moved in {len(moved)} programs: {moved[:10]}"


def test_type_after_if_is_the_textually_last_store():
    """milcheck types a variable by its last store in program text, so a
    store in a branch decides what follows the IF."""
    with pytest.raises(MilCheckError, match="MIL006"):
        MonetKernel().run(
            "PROC p(bit c) := { VAR b := new(void,int);"
            "  IF (c) { b := new(int,int); } b.insert(1); }"
        )


def test_calls_resolve_per_context_whichever_pass_runs_first():
    """A run answers for the procedures it resolved calls to: programcheck
    (a definition's own context) first must not change milcheck's view of
    the file, where the sibling PROC is known."""
    source = (
        "PROC a(BAT[void,dbl] x) : dbl := { RETURN b(x, 1); }\n"
        "PROC b(BAT[void,dbl] x) : dbl := { RETURN x.max; }\n"
    )
    statements = parse(source)
    alone = MilChecker().check_program(statements)
    env = Environment()
    ProgramChecker(env).check_program(statements)  # memoises a's run first
    after = MilChecker(env).check_program(statements)
    assert [str(d) for d in after] == [str(d) for d in alone]
    assert [d.code for d in alone] == ["MIL005"]


# ---------------------------------------------------------------------------
# (b) the walker against reflection
# ---------------------------------------------------------------------------

NODE_TYPES = tuple(
    getattr(mil, name)
    for name in (
        "Literal", "Name", "Call", "MethodCall", "BinOp", "UnaryOp", "VarDecl",
        "Assign", "ExprStmt", "Return", "If", "While", "Parallel", "ProcDef",
    )
)


def reflect(node, root=True):
    """Pre-order nodes by ``dataclasses.fields`` alone, minus the two
    documented exceptions: ``new()``'s type atoms, and the body of a
    ``ProcDef`` below the root."""
    yield node
    if isinstance(node, Call) and node.func == "new":
        return
    if isinstance(node, ProcDef) and not root:
        return
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, NODE_TYPES):
                yield from reflect(item, root=False)


def _corpus_sources():
    from repro.cobra.extensions import DBN_INFER_PROC
    from repro.hmm.parallel import build_parallel_eval_proc

    yield "<dbnInferP>", DBN_INFER_PROC
    yield "<hmmP>", build_parallel_eval_proc(
        "hmmP", [f"model{i}" for i in range(6)], n_servers=6
    )
    for directory in ("tests/data/badplans", "examples/procedures"):
        for path in sorted((REPO_ROOT / directory).rglob("*.mil")):
            yield str(path.relative_to(REPO_ROOT)), path.read_text()


@pytest.mark.parametrize(
    "source", [s for _, s in _corpus_sources()], ids=[n for n, _ in _corpus_sources()]
)
def test_walk_matches_reflection(source):
    for statement in parse(source):
        walked = list(walk(statement))
        assert [id(n) for n in walked] == [id(n) for n in reflect(statement)]
        assert len({id(n) for n in walked}) == len(walked)  # once each


def test_walk_documented_exceptions():
    (outer,) = parse(
        "PROC outer() := {"
        "  VAR b := new(void, dbl);"
        "  PROC inner() := { VAR hidden := 1; }"
        "}"
    )
    names = [n.ident for n in walk(outer) if isinstance(n, mil.Name)]
    assert names == []  # void/dbl are type atoms, not reads
    decls = [n.ident for n in walk(outer) if isinstance(n, mil.VarDecl)]
    assert decls == ["b"]  # inner's body is not outer's code
    (inner,) = [n for n in walk(outer.body) if isinstance(n, ProcDef)]
    assert [n.ident for n in walk(inner) if isinstance(n, mil.VarDecl)] == ["hidden"]


# ---------------------------------------------------------------------------
# the effect stream
# ---------------------------------------------------------------------------


def _events(source):
    (definition,) = parse(source)
    return [(e.kind, e.name) for e in events(definition.body)]


def test_events_come_in_evaluation_order():
    assert _events(
        'PROC p(BAT[void,dbl] b, BAT[void,dbl] c) := {'
        '  VAR n := f(b.count) + c.delete(k).count;'
        '  persist("out", b);'
        '  n := 0;'
        '}'
    ) == [
        ("read", "b"), ("call", "f"), ("write", "c"), ("read", "k"),
        ("declare", "n"),
        ("read", "b"), ("commit", "out"),
        ("assign", "n"),
    ]


def test_shared_events_respect_declaration_order():
    (definition,) = parse(
        "PROC p(BAT[void,dbl] x) := {"
        "  IF (x.count > 0) { VAR x := new(void, dbl); x.insert(1.0); }"
        "}"
    )
    # the condition reads the enclosing x; after the VAR, x is branch-local
    assert [(e.kind, e.name) for e in shared_events(definition.body[0])] == [
        ("read", "x")
    ]


# ---------------------------------------------------------------------------
# (c) every analysis once per definition; every file parsed once
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, cls, method):
    calls = []
    original = getattr(cls, method)

    def counting(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counting)
    return calls


def test_define_proc_runs_each_analysis_once(monkeypatch):
    kernel = MonetKernel(check="warn")
    kernel.run("PROC inner(BAT[void,dbl] x) : dbl := { RETURN x.max; }")
    runs = []
    run_proc = Interpreter.run_proc

    def counting(self, definition):
        runs.append(definition.name)
        return run_proc(self, definition)

    monkeypatch.setattr(Interpreter, "run_proc", counting)
    kernel.run(
        "PROC outer(BAT[void,dbl] x) : dbl := {"
        "  VAR a := x.select(0.1, 0.9);"
        "  VAR top := inner(a);"
        "  RETURN top;"
        "}"
    )
    # milcheck, flowcheck, costcheck and programcheck's local cost read
    # one abstract run
    assert runs == ["outer"]


def test_moa_compile_walks_the_expression_once(monkeypatch):
    from repro.moa.algebra import Cmp, Const, Select, Var
    from repro.moa.rewrite import MoaCompiler

    walks = _count_calls(monkeypatch, MoaInterpreter, "run")
    inner = Select("x", Cmp("<", Var("x"), Const(0.9)), Var("f"))
    compiler = MoaCompiler(MonetKernel(), check="warn")
    plan = compiler.compile(Select("x", Cmp(">", Var("x"), Const(0.5)), inner))
    # FLOW005, PERF001/PERF002 and the estimate all come from the one walk
    assert len(walks) == 1
    assert [d.code for d in compiler.diagnostics if d.code.startswith("PERF")] == [
        "PERF002"
    ]
    assert plan.estimated_cost is not None


# ---------------------------------------------------------------------------
# (d) the one BAT-method table against the runtime
# ---------------------------------------------------------------------------

#: Public BAT API the static analysis deliberately does not model: storage,
#: versioning and accelerator internals no MIL plan calls. A new BAT method
#: must land here or in ``BAT_METHODS``.
NOT_MODELLED = {
    "append_columns",
    "appended_since",
    "begin_lineage",
    "columns",
    "equals",
    "from_columns",
    "head_positions",
    "head_positions_many",
    "heads_at",
    "holds_mutable_values",
    "restore",
    "tail_exists",
    "tail_positions",
    "tails_at",
    "version",
}


def test_every_public_bat_method_is_modelled_or_listed():
    public = {n for n in dir(BAT("void", "int")) if not n.startswith("_")}
    assert public == set(BAT_METHODS) | NOT_MODELLED
    assert not set(BAT_METHODS) & NOT_MODELLED


@pytest.mark.parametrize("method", sorted(BAT_METHODS))
def test_bat_method_rows_resolve_with_their_arity(method):
    row = BAT_METHODS[method]
    dispatch = MonetKernel().interpreter._dispatch_method
    bat = BAT("void", "int")
    if not callable(getattr(bat, method)):
        # an attribute or property: read with no arguments, never called
        assert (row.min_args, row.max_args) == (0, 0)
        dispatch(bat, method, [])
        with pytest.raises(MilTypeError):
            dispatch(bat, method, [1])
        return
    with mock.patch.object(BAT, method, autospec=True) as stub:
        for n in range(row.min_args, row.max_args + 1):
            dispatch(bat, method, [object()] * n)  # autospec binds the signature
        assert stub.call_count == row.max_args - row.min_args + 1


def test_cli_parses_each_file_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "once.mil"
    path.write_text("PROC once(BAT[void,dbl] x) : dbl := { RETURN x.max; }\n")
    tokenized = []
    original = mil.tokenize

    def recording(source):
        tokenized.append(source)
        return original(source)

    monkeypatch.setattr(mil, "tokenize", recording)
    assert main([str(path)]) == 0
    capsys.readouterr()
    assert tokenized.count(path.read_text()) == 1


def test_all_four_choke_points_run_the_one_pass_list(tmp_path, monkeypatch, capsys):
    """Emptying the table disarms every choke point: there is no second list."""
    from repro.cobra.vdbms import CobraVDBMS
    from repro.service import QueryService
    from repro.sharding import ShardedKernel
    from repro.sharding.fleet import ShardConfig

    bad = "PROC spin() : int := { VAR go := 1; WHILE (go > 0) { ghost(); } RETURN 1; }"
    path = tmp_path / "bad.mil"
    path.write_text(bad)
    fleet = ShardedKernel(
        tmp_path / "fleet", shards=2, config=ShardConfig(fsync=False, check="error")
    )
    try:
        monkeypatch.setattr(pipeline, "PASSES", ())
        MonetKernel().run(bad)  # MIL004 + CALL001 otherwise
        assert main([str(path)]) == 0
        for topology in (CobraVDBMS(check="off"), fleet):
            service = QueryService(topology)
            assert service.register_proc(bad) == ["spin"]  # SVC001 otherwise
        fleet.run(bad)
        assert fleet.diagnostics == []
    finally:
        fleet.close()
        capsys.readouterr()
