"""Dynamic Bayesian networks: 2-TBN templates, compiled inference
(interface filtering/smoothing with optional Boyen-Koller clustering) and
EM learning. Unrolling and sampling are the tests' oracle
(``tests/reference_bn.py``)."""

from repro.dbn.compiled import (
    CompiledDbn,
    FilterResult,
    SmoothResult,
    project_onto_clusters,
)
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.learn import DbnEmResult, dbn_em
from repro.dbn.template import DbnTemplate, prev

__all__ = [
    "CompiledDbn",
    "FilterResult",
    "SmoothResult",
    "project_onto_clusters",
    "EvidenceSequence",
    "DbnEmResult",
    "dbn_em",
    "DbnTemplate",
    "prev",
]
