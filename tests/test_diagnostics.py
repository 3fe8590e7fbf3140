"""Diagnostic model edge cases: modes, locations, ordering, suggestions."""

import random

import pytest

from repro.check.diagnostics import (
    CheckMode,
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.errors import DiagnosticError, MoaNameError
from repro.moa.extension import ExtensionRegistry, MoaExtension


# ---------------------------------------------------------------------------
# CheckMode
# ---------------------------------------------------------------------------


class TestCheckMode:
    def test_of_accepts_strings_and_instances(self):
        assert CheckMode.of("error") is CheckMode.ERROR
        assert CheckMode.of("sanitize") is CheckMode.SANITIZE
        assert CheckMode.of(CheckMode.WARN) is CheckMode.WARN

    def test_of_bad_input_lists_valid_modes(self):
        with pytest.raises(ValueError) as err:
            CheckMode.of("strcit")
        message = str(err.value)
        assert "strcit" in message
        for mode in ("error", "warn", "off", "sanitize"):
            assert mode in message

    def test_raises_and_checks_properties(self):
        assert CheckMode.ERROR.raises and CheckMode.SANITIZE.raises
        assert not CheckMode.WARN.raises and not CheckMode.OFF.raises
        assert CheckMode.WARN.checks and not CheckMode.OFF.checks


def _interpreter(check):
    from repro.monet.mil import MilInterpreter

    return MilInterpreter({}, {}, run_parallel=lambda *a: [], check=check)


def _kernel(check):
    from repro.monet.kernel import MonetKernel

    return MonetKernel(check=check)


def _vdbms(check):
    from repro.cobra.vdbms import CobraVDBMS

    return CobraVDBMS(check=check)


def _compiler(check):
    from repro.moa.rewrite import MoaCompiler
    from repro.monet.kernel import MonetKernel

    return MoaCompiler(MonetKernel(check="off"), check=check)


def _dbn(check):
    from repro.cobra.extensions import DbnExtension
    from repro.monet.kernel import MonetKernel

    return DbnExtension(MonetKernel(check="off"), check=check)


def _audio_experiment(check):
    from repro.fusion.pipeline import AudioExperiment

    return AudioExperiment(None, check=check)  # rejected before training


def _av_experiment(check):
    from repro.fusion.pipeline import AvExperiment

    return AvExperiment(None, check=check)


@pytest.mark.parametrize(
    "build",
    [
        _interpreter,
        _kernel,
        _vdbms,
        _compiler,
        _dbn,
        _audio_experiment,
        _av_experiment,
    ],
)
@pytest.mark.parametrize("mode", ["eror", "Error", ""])
def test_every_check_entry_point_rejects_an_unknown_mode(build, mode):
    """A misspelled mode must not silently act as ``warn``."""
    with pytest.raises(ValueError, match="unknown check mode"):
        build(mode)


# ---------------------------------------------------------------------------
# locations
# ---------------------------------------------------------------------------


class TestLocation:
    def test_line_and_column(self):
        d = Diagnostic("X001", "m", source="plan.mil", line=5, col=3)
        assert d.location() == "plan.mil:5:3"
        assert str(d).startswith("plan.mil:5:3: error X001 ")

    def test_multi_line_span(self):
        d = Diagnostic("X001", "m", source="plan.mil", line=5, end_line=7)
        assert d.location() == "plan.mil:5-7"

    def test_column_takes_precedence_over_span(self):
        d = Diagnostic("X001", "m", source="s", line=5, col=2, end_line=7)
        assert d.location() == "s:5:2"

    def test_degenerate_span_collapses(self):
        d = Diagnostic("X001", "m", source="s", line=5, end_line=5)
        assert d.location() == "s:5"

    def test_missing_source_renders_placeholder(self):
        assert Diagnostic("X001", "m").location() == "<input>"

    def test_to_dict_omits_none_fields(self):
        d = Diagnostic("X001", "m", Severity.WARNING, source="s", line=2)
        assert d.to_dict() == {
            "code": "X001",
            "severity": "warning",
            "message": "m",
            "source": "s",
            "line": 2,
        }


# ---------------------------------------------------------------------------
# report ordering and truthiness
# ---------------------------------------------------------------------------


def _scrambled_report():
    diagnostics = [
        Diagnostic("B002", "later code", source="a.mil", line=3),
        Diagnostic("A001", "earlier code", source="a.mil", line=3),
        Diagnostic("A001", "later column", source="a.mil", line=3, col=9),
        Diagnostic("A001", "later line", source="a.mil", line=8),
        Diagnostic("A001", "later file", source="b.mil", line=1),
    ]
    shuffled = list(diagnostics)
    random.Random(7).shuffle(shuffled)
    return DiagnosticReport(shuffled)


class TestReport:
    def test_empty_report_is_falsy(self):
        report = DiagnosticReport()
        assert not report
        assert len(report) == 0
        assert report.format() == ""
        report.raise_if_errors("context")  # no-op without errors

    def test_sorted_is_deterministic_file_line_col_code(self):
        messages = [d.message for d in _scrambled_report().sorted()]
        assert messages == [
            "earlier code",
            "later code",
            "later column",
            "later line",
            "later file",
        ]

    def test_format_renders_one_sorted_line_each(self):
        lines = _scrambled_report().format().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("a.mil:3: error A001 ")
        assert lines[-1].startswith("b.mil:1: error A001 ")

    def test_raise_if_errors_carries_sorted_diagnostics(self):
        with pytest.raises(DiagnosticError) as err:
            _scrambled_report().raise_if_errors("ctx")
        messages = [d.message for d in err.value.diagnostics]
        assert messages == [
            "earlier code",
            "later code",
            "later column",
            "later line",
            "later file",
        ]
        assert "ctx: 5 static errors" in str(err.value)

    def test_warnings_do_not_raise(self):
        report = DiagnosticReport(
            [Diagnostic("W001", "just a warning", Severity.WARNING)]
        )
        report.raise_if_errors("ctx")
        assert report and not report.has_errors()


# ---------------------------------------------------------------------------
# MoaNameError suggestions
# ---------------------------------------------------------------------------


class _StubExtension(MoaExtension):
    def __init__(self, name, operators=()):
        self.name = name
        self._operators = {op: (lambda *a: None) for op in operators}

    def operators(self):
        return dict(self._operators)


class TestSuggestions:
    def registry(self):
        registry = ExtensionRegistry()
        registry.register(_StubExtension("video", ("features", "shots")))
        registry.register(_StubExtension("rules"))
        return registry

    def test_closest_extension_ranks_first(self):
        with pytest.raises(MoaNameError) as err:
            self.registry().get("vidoe")
        assert err.value.suggestions[0] == "video"
        assert "did you mean" in str(err.value)

    def test_closest_operator_ranks_first(self):
        with pytest.raises(MoaNameError) as err:
            self.registry().invoke("video", "shotz", [])
        assert err.value.suggestions[0] == "shots"

    def test_no_near_miss_means_no_hint(self):
        with pytest.raises(MoaNameError) as err:
            self.registry().get("zzzzzz")
        assert err.value.suggestions == []
        assert "did you mean" not in str(err.value)
