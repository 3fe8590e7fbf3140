"""Cobra VDBMS reproduction.

A from-scratch Python implementation of "Extending a DBMS to Support
Content-Based Video Retrieval: A Formula 1 Case Study" (EDBT workshops,
2002): a Monet-style binary-relational kernel, the Moa object algebra, the
Cobra video data model with dynamic feature/semantic extraction, the
discrete DBN and HMM engines (on the factors and CPDs of ``repro.bayes``),
the paper's audio/visual/text feature extractors, a synthetic Formula 1
substrate standing in for the digitized races, the DBN fusion experiments,
and the retrieval front-end.

Quick start::

    from repro.synth import GERMAN_GP
    from repro.fusion import prepare_race, AvExperiment

    data = prepare_race(GERMAN_GP)
    experiment = AvExperiment(data)
    print(experiment.evaluate(data).highlight_scores)
"""

from repro import (
    audio,
    bayes,
    cobra,
    dbn,
    fusion,
    hmm,
    moa,
    monet,
    retrieval,
    rules,
    synth,
    text,
    video,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "audio", "bayes", "cobra", "dbn", "fusion", "hmm", "moa", "monet",
    "retrieval", "rules", "synth", "text", "video", "ReproError",
    "__version__",
]
