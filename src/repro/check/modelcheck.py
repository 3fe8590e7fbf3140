"""Static linting of CPDs and DBN templates.

Goes beyond the structural checks of
:meth:`repro.dbn.template.DbnTemplate.validate`: probability tables are
checked for column stochasticity within a tolerance and for unreachable
(zero-probability) child states, inter-slice edges are sanity-checked
against the observed/hidden split, and evidence-node mappings are verified
against the discretization bins of :mod:`repro.fusion.discretize`.

Diagnostic codes:

=========  ========  ====================================================
code       severity  meaning
=========  ========  ====================================================
MODEL001   error     CPD column not stochastic (negative or sum != 1)
MODEL002   warning   child state with zero probability everywhere
MODEL003   error     node lacks its initial or transition CPD
MODEL004   error     CPD parents/cardinalities drifted from the structure
MODEL005   warning   inter-slice edge originates or lands on an evidence
                     node (legal, but usually a modelling mistake)
MODEL006   error     observed node unmapped to a feature, or mapped with a
                     non-binary cardinality; warning for mappings to
                     feature names without discretization bins
MODEL007   error     the (intra-slice) graph has a cycle
=========  ========  ====================================================
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.check.diagnostics import DiagnosticReport, Severity
from repro.errors import CpdError, GraphStructureError
from repro.fusion.discretize import KNOWN_FEATURES

__all__ = ["check_cpd", "check_template"]

#: Column sums farther than this from 1.0 are MODEL001 errors.
STOCHASTIC_TOLERANCE = 1e-6


def check_cpd(
    variable: Any,
    table: np.ndarray | Sequence,
    cardinality: int | None = None,
    tolerance: float = STOCHASTIC_TOLERANCE,
    source: str | None = None,
    report: DiagnosticReport | None = None,
) -> DiagnosticReport:
    """Lint one raw CPD table (child states along axis 0).

    Operates on raw arrays rather than :class:`repro.bayes.cpd.TabularCpd`
    (which refuses to construct from a bad table), so MODEL001 findings can
    be produced for tables that never made it into a network.
    """
    report = report if report is not None else DiagnosticReport()
    values = np.asarray(table, dtype=np.float64)
    if values.ndim == 0 or values.shape[0] < 1:
        report.add(
            "MODEL001",
            f"CPD of {variable!r} is not a table",
            Severity.ERROR,
            source=source,
        )
        return report
    if cardinality is not None and values.shape[0] != cardinality:
        report.add(
            "MODEL004",
            f"CPD of {variable!r} has {values.shape[0]} child states, "
            f"declared cardinality is {cardinality}",
            Severity.ERROR,
            source=source,
        )
    columns = values.reshape(values.shape[0], -1)
    if np.any(columns < 0):
        report.add(
            "MODEL001",
            f"CPD of {variable!r} contains negative probabilities",
            Severity.ERROR,
            source=source,
        )
    sums = columns.sum(axis=0)
    if not np.allclose(sums, 1.0, atol=tolerance):
        report.add(
            "MODEL001",
            f"CPD of {variable!r} has non-stochastic columns "
            f"(sums range {sums.min():.6f}..{sums.max():.6f}, "
            f"tolerance {tolerance})",
            Severity.ERROR,
            source=source,
        )
    else:
        for state in range(columns.shape[0]):
            if float(columns[state].max()) == 0.0:
                report.add(
                    "MODEL002",
                    f"{variable!r} state {state} has zero probability under "
                    f"every parent configuration (unreachable state)",
                    Severity.WARNING,
                    source=source,
                )
    return report


def check_template(
    template: Any,
    node_to_feature: Mapping[str, str] | None = None,
    known_features: Iterable[str] | None = None,
    source: str | None = None,
) -> DiagnosticReport:
    """Lint a :class:`repro.dbn.template.DbnTemplate`.

    Args:
        template: the 2-TBN specification.
        node_to_feature: observed-node -> feature-stream mapping as passed
            to :func:`repro.fusion.discretize.hard_evidence`. When given,
            MODEL006 checks that every observed node is mapped, binary, and
            mapped to a feature with discretization bins.
        known_features: feature names with defined bins; defaults to
            :data:`repro.fusion.discretize.KNOWN_FEATURES`.
        source: label used in diagnostics (e.g. the network name).
    """
    report = DiagnosticReport()
    features = (
        frozenset(known_features) if known_features is not None else KNOWN_FEATURES
    )
    observed = set(template.observed_nodes())
    for name in template.nodes():
        for kind, getter, parents in (
            ("initial", template.initial_cpd, template.initial_parents),
            ("transition", template.transition_cpd, template.transition_parents),
        ):
            try:
                cpd = getter(name)
            except CpdError:
                report.add(
                    "MODEL003",
                    f"node {name!r} has no {kind} CPD",
                    Severity.ERROR,
                    source=source,
                )
                continue
            expected = parents(name)
            if list(cpd.parents) != list(expected):
                report.add(
                    "MODEL004",
                    f"node {name!r}: {kind} CPD parents {cpd.parents} "
                    f"drifted from structure {expected}",
                    Severity.ERROR,
                    source=source,
                )
            else:
                expected_cards = [
                    template.cardinality(p.removesuffix("[t-1]"))
                    for p in expected
                ]
                if list(cpd.parent_cards) != expected_cards:
                    report.add(
                        "MODEL004",
                        f"node {name!r}: {kind} CPD parent cardinalities "
                        f"{cpd.parent_cards} drifted from structure "
                        f"{expected_cards}",
                        Severity.ERROR,
                        source=source,
                    )
            check_cpd(
                f"{name} ({kind})",
                cpd.table,
                template.cardinality(name),
                source=source,
                report=report,
            )
    for parent, child in template.inter_edges():
        if child in observed:
            report.add(
                "MODEL005",
                f"inter-slice edge {parent!r} -> {child!r} lands on an "
                f"evidence node; evidence usually has no temporal parents",
                Severity.WARNING,
                source=source,
            )
        elif parent in observed:
            report.add(
                "MODEL005",
                f"inter-slice edge {parent!r} -> {child!r} originates at an "
                f"evidence node; state should usually flow hidden -> hidden",
                Severity.WARNING,
                source=source,
            )
    if node_to_feature is not None:
        for node in template.observed_nodes():
            if node not in node_to_feature:
                report.add(
                    "MODEL006",
                    f"observed node {node!r} has no feature mapping; "
                    f"evidence construction will fail",
                    Severity.ERROR,
                    source=source,
                )
                continue
            if template.cardinality(node) != 2:
                report.add(
                    "MODEL006",
                    f"observed node {node!r} has cardinality "
                    f"{template.cardinality(node)}; discretized feature "
                    f"evidence is binary",
                    Severity.ERROR,
                    source=source,
                )
            feature = node_to_feature[node]
            if feature not in features:
                report.add(
                    "MODEL006",
                    f"observed node {node!r} maps to feature {feature!r} "
                    f"which has no discretization bins (falls back to a "
                    f"0.5 threshold)",
                    Severity.WARNING,
                    source=source,
                )
        for node in node_to_feature:
            if node in template.nodes() and node not in observed:
                report.add(
                    "MODEL006",
                    f"feature mapping names hidden node {node!r}; only "
                    f"observed nodes receive evidence",
                    Severity.WARNING,
                    source=source,
                )
    try:
        template.validate()
    except CpdError:
        pass  # missing CPDs already reported as MODEL003
    except GraphStructureError as exc:
        message = str(exc)
        code = "MODEL007" if "cycle" in message.lower() else "MODEL004"
        report.add(code, message, Severity.ERROR, source=source)
    return report
