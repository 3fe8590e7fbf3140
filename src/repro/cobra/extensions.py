"""The four Cobra extensions as Moa extensions (§3).

"In the current implementation we have four extensions: Video-processing /
feature-extraction, HMM, DBN, and rule-based extension." The HMM extension
lives in :mod:`repro.hmm.parallel`; this module provides the other three
plus the physical-level DBN module that mirrors Fig. 5 (a Moa operation
backed by a MIL procedure backed by an engine call).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.dbn.compiled import CompiledDbn
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.learn import dbn_em
from repro.dbn.template import DbnTemplate
from repro.errors import CobraError
from repro.moa.extension import MoaExtension
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.module import MonetModule, command
from repro.rules.engine import Fact, Rule, RuleEngine
from repro.video.frames import FrameStream
from repro.video.shots import ShotDetector

__all__ = [
    "VideoProcessingExtension",
    "DbnExtension",
    "DbnModule",
    "RuleExtension",
    "DBN_INFER_PROC",
]

#: The Fig. 5b MIL procedure: the logical-level DBN operation is rewritten
#: into this PROC, which calls the engine through the ``dbnInfer`` module
#: command (standing in for Monet's TCP/IP call to the Matlab server).
DBN_INFER_PROC = """
PROC dbnInferP(str model, str node, BAT[void,int] obs) : any := {
  VAR ret := dbnInfer(model, node, obs);
  RETURN ret;
}
"""


class DbnModule(MonetModule):
    """Physical-level DBN commands (the paper's Matlab-server stand-in)."""

    name = "dbn"

    def __init__(self) -> None:
        self._models: dict[str, CompiledDbn] = {}

    def register_model(self, name: str, template: DbnTemplate) -> None:
        self._models[name] = CompiledDbn(template)

    def model(self, name: str) -> CompiledDbn:
        try:
            return self._models[name]
        except KeyError:
            raise CobraError(f"no DBN model named {name!r}") from None

    @command(
        args=("str", "str", "BAT[void,int]"),
        returns="BAT[void,dbl]",
        returns_range=(0.0, 1.0),
    )
    def dbnInfer(self, model_name: str, node: str, obs: BAT) -> BAT:
        """Filter a single-evidence-node model over a symbol BAT.

        The general multi-node path goes through the Python extension API;
        this MIL command covers the Fig. 5 demonstration where one fused
        observation stream is shipped to the engine.
        """
        engine = self.model(model_name)
        observed = engine.template.observed_nodes()
        if len(observed) != 1:
            raise CobraError(
                f"dbnInfer needs a single-evidence model, {model_name!r} "
                f"has {len(observed)}"
            )
        values = np.asarray(obs.tails(), dtype=np.int64)
        evidence = EvidenceSequence(engine.template, hard={observed[0]: values})
        posterior = engine.posterior_series(evidence, node)[:, 1]
        out = BAT("void", "dbl")
        out.insert_bulk(None, posterior.tolist())
        return out


class DbnExtension(MoaExtension):
    """Logical-level DBN extension: train / infer / loglik operators."""

    name = "dbn"

    def __init__(self, kernel: MonetKernel, check: str = "error"):
        from repro.check.diagnostics import CheckMode

        self._check = CheckMode.of(check)
        self._module = DbnModule()
        kernel.load_module(self._module)
        kernel.run(DBN_INFER_PROC)
        self._kernel = kernel
        self._templates: dict[str, DbnTemplate] = {}
        #: Model-lint diagnostics collected across registrations.
        self.diagnostics: list[Any] = []
        #: Per-model inference cost estimates recorded at registration.
        self._model_costs: dict[str, float] = {}

    def monet_module(self) -> MonetModule:
        return self._module

    def operators(self) -> dict[str, Any]:
        return {
            "register": self.register,
            "train": self.train,
            "infer": self.infer,
            "log_likelihood": self.log_likelihood,
        }

    # ------------------------------------------------------------------
    def register(self, name: str, template: DbnTemplate) -> None:
        if self._check.checks:
            from repro.check.modelcheck import check_template
            from repro.errors import ModelCheckError

            report = check_template(template, source=name)
            self.diagnostics.extend(report)
            if self._check.raises:
                report.raise_if_errors(f"DBN model {name!r}", ModelCheckError)
        template.validate()
        self._templates[name] = template
        self._module.register_model(name, template)
        # record the static cost estimate so plan choice can weigh models
        from repro.check.costcheck import estimate_model_cost

        self._model_costs[name] = estimate_model_cost(template)

    def model_cost(self, name: str) -> float:
        """Per-step inference cost estimate recorded at registration."""
        try:
            return self._model_costs[name]
        except KeyError:
            raise CobraError(f"no DBN template named {name!r}") from None

    def template(self, name: str) -> DbnTemplate:
        try:
            return self._templates[name]
        except KeyError:
            raise CobraError(f"no DBN template named {name!r}") from None

    def train(
        self,
        name: str,
        sequences: Sequence[EvidenceSequence],
        max_iterations: int = 10,
        prior_strength: float = 2.0,
    ) -> DbnTemplate:
        """EM-train a registered template in place (re-registers it)."""
        result = dbn_em(
            self.template(name),
            sequences,
            max_iterations=max_iterations,
            prior_strength=prior_strength,
        )
        self.register(name, result.template)
        return result.template

    def infer(
        self, name: str, evidence: EvidenceSequence, node: str | Sequence[str]
    ) -> np.ndarray | list[np.ndarray]:
        """P(node = 1 | evidence) per step (filtered).

        ``node`` is one hidden node or a sequence of them; a sequence gets
        a list of series in the same order, all marginals of a single
        forward pass.
        """
        engine = self._module.model(name)
        gamma = engine.filter(evidence).gamma
        if isinstance(node, str):
            return engine.marginal(gamma, node)[:, 1]
        return [engine.marginal(gamma, each)[:, 1] for each in node]

    def log_likelihood(self, name: str, evidence: EvidenceSequence) -> float:
        return self._module.model(name).log_likelihood(evidence)


class VideoProcessingExtension(MoaExtension):
    """Video-processing / feature-extraction extension.

    Wraps the substrate extractors so the executor and the preprocessor
    invoke them uniformly.
    """

    name = "videoproc"

    def operators(self) -> dict[str, Any]:
        from repro.audio.excitement import extract_excitement_features
        from repro.fusion.features import extract_feature_set
        from repro.video.features import extract_visual_features

        return {
            "features": extract_feature_set,
            "visual_features": extract_visual_features,
            "audio_features": extract_excitement_features,
            "shots": self.shots,
        }

    def shots(self, stream: FrameStream) -> list:
        return ShotDetector().shots(stream)


class RuleExtension(MoaExtension):
    """Rule-based extension: named rule sets run over fact collections."""

    name = "rules"

    def __init__(self) -> None:
        self._rules: list[Rule] = []

    def operators(self) -> dict[str, Any]:
        return {"add_rule": self.add_rule, "run": self.run}

    def add_rule(self, rule: Rule) -> None:
        self._rules.append(rule)

    def run(self, facts: Sequence[Fact]) -> list[Fact]:
        """Run all registered rules to fixpoint over the given facts."""
        engine = RuleEngine()
        for fact in facts:
            engine.add_fact(fact)
        for rule in self._rules:
            engine.add_rule(rule)
        engine.run()
        return engine.facts()
