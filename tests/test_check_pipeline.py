"""The shared machinery under the MIL passes: walker, effect stream, pipeline.

Three oracles guard the one-walker / one-effect-inference / one-pipeline
structure of :mod:`repro.check`:

* ``tests/data/check_snapshot.json`` — every finding the CLI printed at
  the commit *before* the passes were rebuilt on shared code; the current
  tree must reproduce it exactly (corpus files added since may add
  findings, nothing else may change);
* a reflection walk over the node dataclasses, which :func:`repro.monet.mil.walk`
  must match node for node;
* call counters on the three analyses other passes reuse, pinning "once per
  definition".
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.check import pipeline
from repro.check.__main__ import main
from repro.check.costcheck import CostChecker
from repro.check.effects import events, shared_events
from repro.check.flowcheck import FlowChecker
from repro.check.fusecheck import FuseChecker
from repro.monet import mil
from repro.monet.kernel import MonetKernel
from repro.monet.mil import Call, ProcDef, parse, walk

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = json.loads((REPO_ROOT / "tests" / "data" / "check_snapshot.json").read_text())

#: Corpus files added after the snapshot was taken: their findings are the
#: only permitted additions.
ADDED_SINCE_SNAPSHOT = {
    "tests/data/badplans/program/call004_callee_write_in_expression.mil",
    "tests/data/badplans/program/clean_callee_read_in_expression.mil",
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
    flow = _count_calls(monkeypatch, FlowChecker, "_check_body")
    cost = _count_calls(monkeypatch, CostChecker, "_cost_body")
    fuse = _count_calls(monkeypatch, FuseChecker, "_partition_body")
    kernel.run(
        "PROC outer(BAT[void,dbl] x) : dbl := {"
        "  VAR a := x.select(0.1, 0.9);"
        "  VAR top := inner(a);"
        "  RETURN top;"
        "}"
    )
    assert len(flow) == 1
    assert len(cost) == 1
    # the intraprocedural partition every pass shares, plus programcheck's
    # summary-aware one (a different question, so a different answer)
    assert sorted(fuse) == ["FuseChecker", "_ProgramFuseChecker"]
    assert kernel.interpreter.procedures["outer"].fusion_plan is not None


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
    from repro.service import QueryService
    from repro.sharding import ShardedKernel
    from repro.sharding.fleet import ShardConfig

    class Vdbms:
        def __init__(self):
            self.kernel = MonetKernel()

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
        assert QueryService(Vdbms()).register_proc(bad) == ["spin"]  # SVC001 otherwise
        fleet.run(bad)
        assert fleet.diagnostics == []
    finally:
        fleet.close()
        capsys.readouterr()
