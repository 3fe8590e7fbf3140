"""Static checkers: every diagnostic code fires on bad input, none on seed artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.check import (
    MilChecker,
    Severity,
    check_cpd,
    check_moa_expr,
    check_template,
)
from repro.check.__main__ import main as check_main
from repro.dbn.template import DbnTemplate
from repro.errors import (
    GraphStructureError,
    MilCheckError,
    MilSyntaxError,
    MoaCheckError,
    MoaError,
    MoaNameError,
    ModelCheckError,
)
from repro.moa.algebra import (
    Aggregate,
    Apply,
    Cmp,
    Const,
    Field,
    MakeTuple,
    Select,
    Var,
)
from repro.moa.extension import ExtensionRegistry, MoaExtension
from repro.monet.kernel import MonetKernel
from repro.monet.module import CommandSignature

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# MIL checker
# ---------------------------------------------------------------------------

MIL_SIGNATURES = {
    "score": CommandSignature("score", ("int",), "flt"),
    "print": CommandSignature("print", ("any",), "any", varargs=True),
}


def mil_report(source):
    return MilChecker(
        commands=set(MIL_SIGNATURES), signatures=MIL_SIGNATURES
    ).check_source(source)


MIL_BAD_CASES = [
    ("MIL000", "PROC bad( := {}"),
    ("MIL001", "PROC p() := { RETURN missing; }"),
    ("MIL002", "PROC p() := { x := 1; }"),
    ("MIL003", "PROC p() := { VAR x := 1; VAR x := 2; print(x); }"),
    ("MIL004", "PROC p() := { scroe(1); }"),
    ("MIL005", "PROC p() := { score(1, 2); }"),
    ("MIL006", 'PROC p() := { score("a"); }'),
    ("MIL007", "PROC p() := { VAR b := new(void, int); print(b.revrese); }"),
    ("MIL008", "PROC p() := { VAR b := new(void, int); print(b.find(1, 2)); }"),
    ("MIL009", "PROC p() : int := { RETURN 1; score(2); }"),
    ("MIL010", "PROC p() : int := { score(1); }"),
    ("MIL011", "PROC p() := { VAR b := new(void, wrong); print(b); }"),
    ("MIL012", "PROC p(int x, int x) := { RETURN x; }"),
    ("MIL013", "PROC p() := { VAR unused := 1; }"),
    ("MIL014", 'PROC p() : int := { RETURN "hello"; }'),
]


class TestMilChecker:
    @pytest.mark.parametrize(
        "code,source", MIL_BAD_CASES, ids=[c for c, _ in MIL_BAD_CASES]
    )
    def test_code_fires_on_bad_input(self, code, source):
        assert code in mil_report(source).codes()

    def test_duplicate_procedure_is_mil012(self):
        source = "PROC p() := { print(1); }  PROC p() := { print(2); }"
        assert "MIL012" in mil_report(source).codes()

    def test_clean_procedure_has_no_findings(self):
        source = """
        PROC p(int x) : flt := {
          VAR s := score(x);
          RETURN s;
        }
        """
        assert len(mil_report(source)) == 0

    def test_forward_reference_between_procs_is_clean(self):
        source = """
        PROC caller(int x) : flt := { RETURN callee(x); }
        PROC callee(int x) : flt := { RETURN score(x); }
        """
        assert len(mil_report(source)) == 0

    def test_bat_type_propagates_through_method_chain(self):
        # find on a reversed [void,int] BAT takes an int key, not a str
        source = """
        PROC p() : oid := {
          VAR b := new(void, int);
          RETURN (b.reverse).find("nope");
        }
        """
        assert "MIL006" in mil_report(source).codes()

    def test_diagnostics_carry_source_and_line(self):
        report = mil_report("PROC p() := {\n  RETURN missing;\n}")
        (finding,) = report.errors
        assert finding.code == "MIL001"
        assert finding.line == 2
        assert str(finding).startswith("<mil>:2")

    def test_mil009_and_mil013_are_warnings(self):
        report = mil_report(
            "PROC p() : int := { VAR unused := 1; RETURN 1; score(2); }"
        )
        assert not report.has_errors()
        assert {d.code for d in report.warnings} == {"MIL009", "MIL013"}


class TestMilChokePoint:
    def test_kernel_rejects_bad_proc_by_default(self):
        kernel = MonetKernel()
        with pytest.raises(MilCheckError) as exc_info:
            kernel.run("PROC bad() := { RETURN nope; }")
        assert "MIL001" in str(exc_info.value)
        assert "bad" not in kernel.interpreter.procedures

    def test_warn_mode_collects_without_raising(self):
        kernel = MonetKernel(check="warn")
        kernel.run("PROC shaky() := { RETURN nope; }")
        assert "shaky" in kernel.interpreter.procedures
        assert "MIL001" in {d.code for d in kernel.diagnostics}

    def test_off_mode_skips_checking(self):
        kernel = MonetKernel(check="off")
        kernel.run("PROC shaky() := { RETURN nope; }")
        assert kernel.diagnostics == []

    def test_kernel_accepts_catalog_references(self):
        kernel = MonetKernel()
        kernel.run('persist("speeds", new(void, dbl));')
        kernel.run("PROC n() : int := { RETURN speeds.count; }")
        assert kernel.run("n();") == 0


MIL_SYNTAX_ERROR_SOURCES = [
    "x @ y",
    "PROC p( := {}",
    "VAR x := ;",
    "IF (1) {",
]


class TestMilSyntaxErrorLines:
    @pytest.mark.parametrize("source", MIL_SYNTAX_ERROR_SOURCES)
    def test_syntax_errors_carry_line(self, source):
        with pytest.raises(MilSyntaxError) as exc_info:
            MonetKernel(check="off").run(source)
        assert exc_info.value.line is not None
        assert "line" in str(exc_info.value)

    def test_parse_failure_reports_mil000_with_line(self):
        report = mil_report("PROC p() := {\nVAR x := ;\n}")
        (finding,) = report.errors
        assert finding.code == "MIL000"
        assert finding.line == 2


# ---------------------------------------------------------------------------
# Moa checker
# ---------------------------------------------------------------------------


class ToyExtension(MoaExtension):
    name = "toy"

    def operators(self):
        return {
            "double": lambda x: x * 2,
            "add": lambda a, b: a + b,
        }


@pytest.fixture()
def registry():
    reg = ExtensionRegistry()
    reg.register(ToyExtension())
    return reg


MOA_BAD_CASES = [
    ("MOA001", Var("nope")),
    ("MOA002", Apply("dnb", "infer", ())),
    ("MOA003", Apply("toy", "tripel", (Const(1),))),
    ("MOA004", Apply("toy", "add", (Const(1),))),
    ("MOA005", Field(Const(3), "speed")),
    ("MOA006", Cmp("~", Const(1), Const(2))),
    ("MOA007", MakeTuple((("a", Const(1)), ("a", Const(2))))),
    ("MOA008", Field(Const({"speed": 1.0}), "sped")),
    ("MOA009", Aggregate("sum", Const(3))),
]


class TestMoaChecker:
    @pytest.mark.parametrize(
        "code,expr", MOA_BAD_CASES, ids=[c for c, _ in MOA_BAD_CASES]
    )
    def test_code_fires_on_bad_expr(self, code, expr, registry):
        assert code in check_moa_expr(expr, extensions=registry).codes()

    def test_clean_expr_has_no_findings(self, registry):
        expr = Select(
            "t",
            Cmp(">", Field(Var("t"), "speed"), Const(100)),
            Var("laps"),
        )
        report = check_moa_expr(expr, extensions=registry, env=["laps"])
        assert len(report) == 0

    def test_free_vars_allowed_for_plan_inputs(self):
        report = check_moa_expr(Var("input_bat"), allow_free_vars=True)
        assert len(report) == 0

    def test_compiler_rejects_invalid_operator(self):
        compiler_kernel = MonetKernel()
        from repro.moa.rewrite import MoaCompiler

        compiler = MoaCompiler(compiler_kernel)
        bad = Select("x", Cmp("~", Var("x"), Const(1)), Var("src"))
        with pytest.raises(MoaCheckError) as exc_info:
            compiler.compile(bad)
        assert "MOA006" in str(exc_info.value)
        # MoaCheckError is still a MoaError, so existing callers catch it
        assert isinstance(exc_info.value, MoaError)


class TestExtensionRegistryNames:
    def test_unknown_extension_suggests(self, registry):
        with pytest.raises(MoaNameError) as exc_info:
            registry.get("ty")
        assert "toy" in exc_info.value.suggestions

    def test_unknown_operator_suggests(self, registry):
        with pytest.raises(MoaNameError) as exc_info:
            registry.invoke("toy", "addd", (1, 2))
        assert "add" in exc_info.value.suggestions
        assert "did you mean" in str(exc_info.value)


# ---------------------------------------------------------------------------
# Model checker
# ---------------------------------------------------------------------------


def _observed_pair_template():
    """H (hidden, binary) -> O (observed, binary), self-loop on H."""
    template = DbnTemplate()
    template.add_node("H", 2)
    template.add_node("O", 2, observed=True)
    template.add_intra_edge("H", "O")
    template.add_inter_edge("H", "H")
    return template


class TestModelChecker:
    def test_model001_non_stochastic_column(self):
        report = check_cpd("X", [0.5, 0.4])
        assert "MODEL001" in report.codes()

    def test_model001_negative_entry(self):
        report = check_cpd("X", [[1.2, 0.5], [-0.2, 0.5]])
        assert "MODEL001" in report.codes()

    def test_model002_zero_probability_state_is_warning(self):
        report = check_cpd("X", [1.0, 0.0])
        assert "MODEL002" in {d.code for d in report.warnings}
        assert not report.has_errors()

    def test_model004_cardinality_mismatch(self):
        report = check_cpd("X", [0.5, 0.5], cardinality=3)
        assert "MODEL004" in report.codes()

    def test_model003_network_node_without_cpd(self):
        template = _observed_pair_template()
        template.randomize(np.random.default_rng(0))
        template.add_node("X", 2)
        template.set_initial_cpd("X", [0.5, 0.5])
        report = check_template(template)
        assert "MODEL003" in report.codes()
        assert any("'X' has no transition CPD" in d.message for d in report)

    def test_model004_network_parent_drift(self):
        template = _observed_pair_template()
        template.add_node("X", 3)
        template.randomize(np.random.default_rng(0))
        template.add_intra_edge("X", "O")  # after O's CPDs were drawn
        assert "MODEL004" in check_template(template).codes()

    def test_valid_network_is_clean(self):
        template = _observed_pair_template()
        template.set_initial_cpd("H", [0.8, 0.2])
        template.set_transition_cpd("H", [[0.9, 0.2], [0.1, 0.8]])
        template.set_initial_cpd("O", [[0.9, 0.1], [0.1, 0.9]])
        template.set_transition_cpd("O", [[0.9, 0.1], [0.1, 0.9]])
        assert len(check_template(template)) == 0

    def test_model007_cyclic_structure(self):
        # add_intra_edge rejects a cycle, so only a template whose graph
        # changed behind the API can reach the check
        class _CyclicTemplate(DbnTemplate):
            def validate(self):
                raise GraphStructureError("graph contains a cycle")

        assert "MODEL007" in check_template(_CyclicTemplate()).codes()

    def test_model003_template_missing_cpds(self):
        template = _observed_pair_template()
        assert "MODEL003" in check_template(template).codes()

    def test_model005_inter_edge_onto_evidence_node(self):
        template = _observed_pair_template()
        template.add_inter_edge("H", "O")
        template.randomize(np.random.default_rng(0))
        report = check_template(template)
        assert "MODEL005" in {d.code for d in report.warnings}

    def test_model006_unmapped_observed_node(self):
        template = _observed_pair_template()
        template.randomize(np.random.default_rng(0))
        report = check_template(template, node_to_feature={})
        assert "MODEL006" in {d.code for d in report.errors}

    def test_model006_unknown_feature_is_warning(self):
        template = _observed_pair_template()
        template.randomize(np.random.default_rng(0))
        report = check_template(template, node_to_feature={"O": "nosuch"})
        assert "MODEL006" in {d.code for d in report.warnings}
        assert not report.has_errors()

    def test_model006_mapping_hidden_node_is_warning(self):
        template = _observed_pair_template()
        template.randomize(np.random.default_rng(0))
        report = check_template(
            template, node_to_feature={"O": "f1", "H": "f2"}
        )
        assert "MODEL006" in {d.code for d in report.warnings}

    def test_parameterized_template_is_clean(self):
        template = _observed_pair_template()
        template.randomize(np.random.default_rng(0))
        report = check_template(template, node_to_feature={"O": "f1"})
        assert len(report) == 0


class TestModelChokePoint:
    def test_register_rejects_unparameterized_template(self):
        from repro.cobra.extensions import DbnExtension

        dbn = DbnExtension(MonetKernel())
        with pytest.raises(ModelCheckError) as exc_info:
            dbn.register("broken", _observed_pair_template())
        assert "MODEL003" in str(exc_info.value)

    def test_register_accepts_parameterized_template(self):
        from repro.cobra.extensions import DbnExtension

        dbn = DbnExtension(MonetKernel())
        template = _observed_pair_template()
        template.randomize(np.random.default_rng(0))
        dbn.register("ok", template)
        assert dbn.template("ok") is template


# ---------------------------------------------------------------------------
# Silence on seed artifacts
# ---------------------------------------------------------------------------


class TestSeedArtifactsAreClean:
    def test_vdbms_constructs_without_error_diagnostics(self):
        from repro.cobra.vdbms import CobraVDBMS

        vdbms = CobraVDBMS()
        errors = [
            d for d in vdbms.diagnostics if d.severity is Severity.ERROR
        ]
        assert errors == []

    def test_cli_clean_on_builtins(self, capsys):
        assert check_main([]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_cli_clean_on_example_procedures(self, capsys):
        examples = REPO_ROOT / "examples" / "procedures"
        assert check_main([str(examples)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_cli_missing_path_is_usage_error(self, capsys):
        assert check_main(["no/such/file.mil"]) == 2

    def test_fully_parameterized_dbn_is_clean(self):
        from repro.fusion.audio_networks import (
            AUDIO_NODE_TO_FEATURE,
            fully_parameterized_dbn,
        )

        report = check_template(
            fully_parameterized_dbn(seed=0),
            node_to_feature=AUDIO_NODE_TO_FEATURE,
        )
        assert not report.has_errors()


# ---------------------------------------------------------------------------
# --baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    SOURCE = REPO_ROOT / "tests" / "data" / "badplans" / "flow002_dead_store.mil"

    def run(self, tmp_path, capsys, counts):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"counts": counts}))
        status = check_main([str(self.SOURCE), "--baseline", str(baseline)])
        return status, capsys.readouterr().err

    def test_matching_baseline_passes(self, tmp_path, capsys):
        key = f"FLOW002@{self.SOURCE}"
        assert self.run(tmp_path, capsys, {key: 1}) == (0, "")

    def test_new_finding_is_a_regression(self, tmp_path, capsys):
        status, err = self.run(tmp_path, capsys, {})
        assert status == 1
        assert "baseline regression: FLOW002@" in err

    @pytest.mark.parametrize("stale", [{"FLOW002": 2}, {"FLOW002": 1, "FLOW003": 1}])
    def test_stale_row_fails(self, tmp_path, capsys, stale):
        counts = {f"{code}@{self.SOURCE}": n for code, n in stale.items()}
        status, err = self.run(tmp_path, capsys, counts)
        assert status == 1
        assert "stale baseline: " in err

    def test_committed_baseline_matches_the_builtins(self, capsys):
        baseline = REPO_ROOT / "tests" / "data" / "check_baseline.json"
        assert check_main(["--strict", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
