"""Discrete Bayesian-network building blocks: factors, CPDs and the DAG.

The DBN engines in :mod:`repro.dbn` are built from these; exact inference
by variable elimination and MLE/EM learning on static networks are the
tests' oracle (``tests/reference_bn.py``), not part of the system.
"""

from repro.bayes.cpd import TabularCpd
from repro.bayes.factor import Factor
from repro.bayes.graph import Dag

__all__ = ["TabularCpd", "Factor", "Dag"]
