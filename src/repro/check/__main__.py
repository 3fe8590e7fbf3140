"""Command-line linter: ``python -m repro.check [options] [path ...]``.

Without paths, lints the repo's built-in artifacts: the shipped MIL
procedures (the Fig. 4 parallel-HMM procedure and the Fig. 5b DBN inference
procedure) and the built-in fusion networks (audio structures a/b/c with
temporal variants v1/v2/v3, and the audio-visual DBN).

With paths, each is a ``.mil`` file (directories are searched recursively)
linted against the standard Cobra kernel command set.  Every MIL artifact
is parsed once and run through the ``lint`` stage of the pass pipeline
(:mod:`repro.check.pipeline`; the ordered pass table is in the
:mod:`repro.check` docstring).  Lint runs over the built-ins add the
translation-validation pass: every built-in Moa plan is compiled and its
emitted MIL validated equivalent (:mod:`repro.check.equivcheck`).

Options:

* ``--format text|json|sarif`` — ``text`` (default) prints one gcc-style
  line per diagnostic plus a summary; ``json`` and ``sarif`` print a single
  machine-readable document (SARIF 2.1.0 suits CI annotation uploads).
* ``--strict`` — warnings also fail the build (exit 1).  Advisory findings
  (``PERF`` performance hints, and ``EQ003``, which reports that a plan
  fell back to the interpreter, not that it is wrong) are exempt: they
  never change the exit status, so ``--strict`` still fails only on
  error-severity findings plus genuine correctness warnings, and seed
  plans with perf hints keep CI green.
* ``--baseline PATH`` — compare the run's diagnostics against a committed
  baseline (JSON mapping ``"CODE@source"`` to counts).  Any (code,
  source) pair whose count differs from the baseline fails the build,
  advisory or not: more is a *new* finding on a built-in artifact, a
  regression even when the family is informational; fewer is a stale
  baseline row, which would otherwise mask a future regression up to its
  slack.

Exit status: 0 when no failing diagnostics were found, 1 when some were,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.check.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.check.environment import Environment
from repro.check.modelcheck import check_template
from repro.check.pipeline import check_source

#: Diagnostic-code prefixes that are advisory: they inform (and land in
#: reports/SARIF) but never fail the build, not even under ``--strict``.
#: Only warning-severity findings consult this list.  EQ003 is the
#: exact-code entry: "unsupported construct, interpreter fallback" is a
#: capability note, while EQ002 (error severity) stays fatal.
ADVISORY_PREFIXES = ("PERF", "EQ003")

_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _build_kernel():
    """The standard kernel with all four extensions loaded, checks off."""
    from repro.cobra.vdbms import CobraVDBMS

    return CobraVDBMS(check="off").kernel


def _check_builtin_mil(kernel) -> DiagnosticReport:
    from repro.cobra.extensions import DBN_INFER_PROC
    from repro.hmm.parallel import build_parallel_eval_proc

    # the kernel itself defined dbnInferP at construction time; exclude it
    # so re-linting the shipped source is not a duplicate definition
    full = kernel.interpreter.check_environment()
    shipped = {n: p for n, p in full.procedures.items() if n != "dbnInferP"}
    env = Environment(full.commands, full.signatures, full.globals_names, shipped)
    report = DiagnosticReport()
    report.extend(check_source(env, DBN_INFER_PROC, "<dbnInferP>"))
    parallel_source = build_parallel_eval_proc(
        "hmmP", [f"model{i}" for i in range(6)], n_servers=6
    )
    report.extend(check_source(env, parallel_source, "<hmmP>"))
    return report


def _check_builtin_moa(kernel) -> DiagnosticReport:
    """Compile every built-in Moa plan and validate the translation.

    Each plan must come back EQ001; anything else surfaces as EQ002
    (mis-translation, error) or EQ003 (unsupported construct, advisory)
    from the compiler's validator.
    """
    from repro.moa.rewrite import MoaCompiler, builtin_moa_plans

    report = DiagnosticReport()
    compiler = MoaCompiler(kernel, check="warn")
    for plan_name, expr in builtin_moa_plans().items():
        before = len(compiler.diagnostics)
        compiler.compile(expr)
        for diagnostic in compiler.diagnostics[before:]:
            if diagnostic.code.startswith("EQ"):
                report.add(
                    diagnostic.code,
                    f"[{plan_name}] {diagnostic.message}",
                    diagnostic.severity,
                    source=f"<moa:{plan_name}>",
                )
    return report


def _check_builtin_models() -> DiagnosticReport:
    from repro.fusion.audio_networks import (
        AUDIO_NODE_TO_FEATURE,
        add_temporal_edges,
        audio_structure,
        fully_parameterized_dbn,
    )
    from repro.fusion.av_network import av_dbn, av_node_to_feature

    report = DiagnosticReport()
    rng_seed = 0
    for kind in ("a", "b", "c"):
        for variant in ("v1", "v2", "v3"):
            template = audio_structure(kind)
            add_temporal_edges(template, variant)
            template.randomize(np.random.default_rng(rng_seed))
            report.extend(
                check_template(
                    template,
                    node_to_feature=AUDIO_NODE_TO_FEATURE,
                    source=f"audio[{kind}/{variant}]",
                )
            )
    report.extend(
        check_template(
            fully_parameterized_dbn(seed=rng_seed),
            node_to_feature=AUDIO_NODE_TO_FEATURE,
            source="audio[fully-parameterized]",
        )
    )
    for include_passing in (True, False):
        report.extend(
            check_template(
                av_dbn(include_passing=include_passing, seed=rng_seed),
                node_to_feature=av_node_to_feature(include_passing),
                source=f"av[passing={include_passing}]",
            )
        )
    return report


def _collect_mil_files(paths: list[str]) -> list[Path] | None:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.mil")))
        elif path.is_file():
            files.append(path)
        else:
            print(f"repro.check: no such file or directory: {raw}", file=sys.stderr)
            return None
    return files


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def _sarif_location(diagnostic: Diagnostic) -> dict:
    physical: dict = {
        "artifactLocation": {"uri": diagnostic.source or "<input>"}
    }
    if diagnostic.line is not None:
        region: dict = {"startLine": diagnostic.line}
        if diagnostic.col is not None:
            region["startColumn"] = diagnostic.col
        if diagnostic.end_line is not None:
            region["endLine"] = diagnostic.end_line
        physical["region"] = region
    return {"physicalLocation": physical}


def _sarif_document(report: DiagnosticReport) -> dict:
    ordered = report.sorted()
    rules = sorted({d.code for d in ordered})
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.check",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [{"id": code} for code in rules],
                    }
                },
                "results": [
                    {
                        "ruleId": d.code,
                        "level": _SARIF_LEVELS[d.severity],
                        "message": {"text": d.message},
                        "locations": [_sarif_location(d)],
                    }
                    for d in ordered
                ],
            }
        ],
    }


def _json_document(report: DiagnosticReport, checked: str) -> dict:
    return {
        "tool": "repro.check",
        "checked": checked,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "diagnostics": report.to_dicts(),
    }


# ---------------------------------------------------------------------------
# baseline diffing
# ---------------------------------------------------------------------------


def baseline_counts(report: DiagnosticReport) -> dict[str, int]:
    """Histogram of ``"CODE@source"`` keys — the committed-baseline format."""
    counts: dict[str, int] = {}
    for diagnostic in report.sorted():
        key = f"{diagnostic.code}@{diagnostic.source or '<input>'}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _diff_baseline(report: DiagnosticReport, path: str) -> list[str]:
    """Keys whose count differs from the committed baseline, either way:
    above it is a new finding (regression), below it a stale row."""
    try:
        recorded = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable baseline {path}: {exc}"]
    counts = recorded.get("counts", recorded) if isinstance(recorded, dict) else {}
    observed = baseline_counts(report)
    problems: list[str] = []
    for key in sorted(set(counts) | set(observed)):
        count, allowed = observed.get(key, 0), int(counts.get(key, 0))
        if count > allowed:
            problems.append(f"baseline regression: {key} ({count} > baseline {allowed})")
        elif count < allowed:
            problems.append(f"stale baseline: {key} (baseline {allowed} > {count})")
    return problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_args(argv: list[str]) -> argparse.Namespace | int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static analysis of MIL/Moa plans and fusion models.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=".mil files or directories (default: lint the built-ins)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (exit 1)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="fail on diagnostics not accounted for in this JSON baseline",
    )
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    if isinstance(args, int):
        return args
    report = DiagnosticReport()
    if args.paths:
        files = _collect_mil_files(args.paths)
        if files is None:
            return 2
        env = _build_kernel().interpreter.check_environment()
        for path in files:
            report.extend(check_source(env, path.read_text(), str(path)))
        checked = f"{len(files)} MIL file(s)"
    else:
        kernel = _build_kernel()
        report.extend(_check_builtin_mil(kernel))
        report.extend(_check_builtin_models())
        report.extend(_check_builtin_moa(kernel))
        checked = "built-in MIL procedures, fusion networks, and Moa plans"
    errors, warnings = len(report.errors), len(report.warnings)
    if args.output_format == "json":
        print(json.dumps(_json_document(report, checked), indent=2))
    elif args.output_format == "sarif":
        print(json.dumps(_sarif_document(report), indent=2))
    else:
        formatted = report.format()
        if formatted:
            print(formatted)
        print(
            f"repro.check: {checked}: {errors} error(s), {warnings} warning(s)"
        )
    failing_warnings = [
        d
        for d in report.warnings
        if not d.code.startswith(ADVISORY_PREFIXES)
    ]
    if args.baseline:
        problems = _diff_baseline(report, args.baseline)
        if problems:
            for item in problems:
                print(f"repro.check: {item}", file=sys.stderr)
            return 1
    if errors or (args.strict and failing_warnings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
