"""Cost analysis: the PERF lint family, cost estimates, and plan choice.

The perf mutation corpus under ``tests/data/badplans/perf/`` mirrors the
flow/race corpus: every ``perfNNN_*.mil`` artifact seeds exactly one perf
defect and must yield exactly its expected code across *all five* static
passes (no false positives riding along); every ``cleanNNN_*.mil`` is the
minimal fixed plan and must stay silent.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.check.absint import MoaInterpreter, interpret
from repro.check.costcheck import (
    DEFAULT_CARD,
    CostChecker,
    check_moa_cost,
    estimate_extraction_cost,
)
from repro.check.diagnostics import Severity
from repro.check.flowcheck import FlowChecker
from repro.check.milcheck import MilChecker
from repro.check.racecheck import RaceChecker
from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
from repro.cobra.metadata import MetadataStore
from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument
from repro.cobra.preprocessor import QueryPreprocessor
from repro.cobra.query import parse_coql
from repro.moa.algebra import Cmp, Const, Join, Select, Var
from repro.monet.kernel import MonetKernel
from repro.monet.mil import parse
from repro.synth.annotations import Interval

PERF_CORPUS = Path(__file__).resolve().parent / "data" / "badplans" / "perf"
PERF_PLANS = sorted(PERF_CORPUS.glob("perf*.mil"))
CLEAN_PLANS = sorted(PERF_CORPUS.glob("clean*.mil"))

ALL_PASSES = (MilChecker, FlowChecker, RaceChecker, CostChecker)


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


def all_pass_codes(source: str, name: str, env: dict) -> list[str]:
    """Non-advisory-info codes from all five passes, in pass order."""
    codes = []
    for checker_cls in ALL_PASSES:
        for d in checker_cls(**env).check_source(source, name=name):
            if d.severity != Severity.INFO:
                codes.append(d.code)
    return codes


# ---------------------------------------------------------------------------
# corpus exactness
# ---------------------------------------------------------------------------


def test_perf_corpus_is_present():
    assert len(PERF_PLANS) >= 6
    assert len(CLEAN_PLANS) >= 6


def test_perf_corpus_covers_every_code():
    codes = {expected_code(p) for p in PERF_PLANS}
    assert {
        "PERF001",
        "PERF002",
        "PERF003",
        "PERF004",
        "PERF005",
        "PERF006",
    } <= codes


@pytest.mark.parametrize("path", PERF_PLANS, ids=lambda p: p.stem)
def test_perf_badplan_yields_exactly_its_code(path, env):
    assert all_pass_codes(path.read_text(), path.name, env) == [
        expected_code(path)
    ]


@pytest.mark.parametrize("path", CLEAN_PLANS, ids=lambda p: p.stem)
def test_clean_plan_stays_silent(path, env):
    assert all_pass_codes(path.read_text(), path.name, env) == []


@pytest.mark.parametrize("path", PERF_PLANS + CLEAN_PLANS, ids=lambda p: p.stem)
def test_corpus_diagnostics_deterministic(path, env):
    """Two independent runs produce identical ordered diagnostics."""

    def run():
        out = []
        for checker_cls in ALL_PASSES:
            for d in checker_cls(**env).check_source(
                path.read_text(), name=path.name
            ):
                out.append((d.code, d.severity.name, d.line, d.message))
        return out

    assert run() == run()


# ---------------------------------------------------------------------------
# CLI: advisory strict semantics + SARIF
# ---------------------------------------------------------------------------


def test_strict_does_not_fail_on_advisory_perf(capsys):
    """PERF findings are hints: --strict over the perf corpus still exits 0."""
    from repro.check.__main__ import main

    assert main(["--strict", str(PERF_CORPUS)]) == 0
    out = capsys.readouterr().out
    assert "PERF" in out  # the hints are still reported


def test_sarif_covers_perf_codes(capsys):
    from repro.check.__main__ import main

    assert main(["--format", "sarif", str(PERF_CORPUS)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {f"PERF00{i}" for i in range(1, 7)} <= rules
    for result in run["results"]:
        assert result["level"] in ("note", "warning", "error")
        assert result["locations"][0]["physicalLocation"]["artifactLocation"][
            "uri"
        ]


# ---------------------------------------------------------------------------
# cost estimation
# ---------------------------------------------------------------------------


def test_while_multiplies_and_parallel_takes_longest_branch(env):
    looped = parse(
        """
PROC looped(BAT[void,dbl] f) : any := {
  VAR i := 0;
  WHILE (i < 4) {
    VAR v := maggr(f, "sum");
    i := i + v;
  }
  RETURN i;
}
"""
    )[0]
    checker = CostChecker(**env)
    # one maggr scan (1 + rows) per assumed trip
    assert interpret(checker.env, looped).cost > 8 * DEFAULT_CARD


# ---------------------------------------------------------------------------
# Moa-level cost model
# ---------------------------------------------------------------------------


def _select(source):
    return Select("x", Cmp(">", Var("x"), Const(0.5)), source)


def _run(expr):
    return MoaInterpreter().run(expr)


def test_moa_nested_select_flags_perf002():
    report = check_moa_cost(_run(_select(_select(Var("f")))))
    assert [d.code for d in report] == ["PERF002"]
    assert [d.code for d in check_moa_cost(_run(_select(Var("f"))))] == []


def test_moa_join_flags_perf001():
    join = Join(
        "a",
        "b",
        Cmp("=", Var("a"), Var("b")),
        Var("f"),
        Var("g"),
        Var("a"),
    )
    assert [d.code for d in check_moa_cost(_run(join))] == ["PERF001"]
    # restricting one side first removes the quadratic blow-up
    restricted = Join(
        "a",
        "b",
        Cmp("=", Var("a"), Var("b")),
        _select(Var("f")),
        Var("g"),
        Var("a"),
    )
    assert [d.code for d in check_moa_cost(_run(restricted))] == []


def test_moa_cost_orders_plans():
    """The cheaper logical plan gets the lower estimate."""
    narrow_first = _select(_select(Var("f")))
    assert _run(_select(Var("f"))).cost < _run(narrow_first).cost


def test_compiled_plan_carries_cost():
    from repro.moa.rewrite import MoaCompiler

    compiler = MoaCompiler(MonetKernel())
    plan = compiler.compile(_select(Var("f")))
    assert plan.estimated_cost == pytest.approx(DEFAULT_CARD)

    unchecked = MoaCompiler(MonetKernel(check="off"), check="off")
    off_plan = unchecked.compile(_select(Var("f")))
    assert off_plan.estimated_cost is None


# ---------------------------------------------------------------------------
# preprocessor plan choice
# ---------------------------------------------------------------------------


def _doc_with_tracks() -> VideoDocument:
    doc = VideoDocument(
        raw=RawVideo("race1", "synthetic://x", 100.0, 10.0, 192, 144, 16000)
    )
    doc.add_feature(FeatureTrack("long_track", np.zeros(5000)))
    doc.add_feature(FeatureTrack("short_track", np.zeros(50)))
    return doc


def test_preprocessor_picks_cheaper_estimated_plan():
    """Cost-model choice beats the catalog's static (quality, cost) order.

    Both methods sit in the same quality band; the statically 'cheaper'
    one (declared unit cost 1.0) reads a 5000-sample track, the declared
    cost 2.0 one reads 50 samples — the estimated plan cost picks the
    latter.
    """
    calls = []

    def extract_named(name):
        def extract(document):
            calls.append(name)
            return [
                document.new_event("thing", Interval(5, 9), 0.7, source="dbn")
            ]

        return extract

    long_scan = ExtractionMethod(
        "long_scan",
        ("thing",),
        extract_named("long_scan"),
        requires_features=("long_track",),
        cost=1.0,
        quality=0.8,
    )
    short_scan = ExtractionMethod(
        "short_scan",
        ("thing",),
        extract_named("short_scan"),
        requires_features=("short_track",),
        cost=2.0,
        quality=0.8,
    )
    knowledge = DomainKnowledge("f1", methods=[long_scan, short_scan])
    # the static catalog order prefers the lower declared unit cost...
    assert knowledge.methods_for("thing")[0].name == "long_scan"
    doc = _doc_with_tracks()
    # ...but the document-aware estimate inverts it
    assert estimate_extraction_cost(short_scan, doc) < estimate_extraction_cost(
        long_scan, doc
    )
    store = MetadataStore(MonetKernel())
    store.register_document(doc)
    report = QueryPreprocessor(store, knowledge).prepare(
        parse_coql("RETRIEVE thing FROM race1"), ["race1"]
    )
    assert report.extracted == [("thing", "short_scan")]
    assert calls == ["short_scan"]


def test_preprocessor_quality_band_still_wins():
    """A clearly better method is never traded away for cheapness."""

    def extract(document):
        return [document.new_event("thing", Interval(5, 9), 0.7, source="dbn")]

    cheap_bad = ExtractionMethod(
        "cheap_bad",
        ("thing",),
        extract,
        requires_features=("short_track",),
        cost=0.1,
        quality=0.3,
    )
    slow_good = ExtractionMethod(
        "slow_good",
        ("thing",),
        extract,
        requires_features=("long_track",),
        cost=5.0,
        quality=0.9,
    )
    knowledge = DomainKnowledge("f1", methods=[cheap_bad, slow_good])
    store = MetadataStore(MonetKernel())
    store.register_document(_doc_with_tracks())
    report = QueryPreprocessor(store, knowledge).prepare(
        parse_coql("RETRIEVE thing FROM race1"), ["race1"]
    )
    assert report.extracted == [("thing", "slow_good")]


def test_extraction_cost_estimate_shape():
    doc = _doc_with_tracks()
    method = ExtractionMethod(
        "m", ("thing",), lambda d: [], requires_features=("short_track",), cost=3.0
    )
    assert estimate_extraction_cost(method, doc) == pytest.approx(1.0 + 3.0 * 50)
    # no prerequisites: a raw-media pass over every track
    raw = ExtractionMethod("raw", ("thing",), lambda d: [], cost=1.0)
    assert estimate_extraction_cost(raw, doc) == pytest.approx(1.0 + 5050)
