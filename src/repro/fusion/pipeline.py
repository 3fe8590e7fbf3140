"""End-to-end fusion experiments: the §5.5 pipelines as callable objects.

These helpers tie together synthesis, extraction, training, inference and
scoring; the benchmark suite calls them once per table/figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.check.diagnostics import CheckMode
from repro.check.flowcheck import check_feature_set
from repro.check.modelcheck import check_template
from repro.dbn.compiled import CompiledDbn
from repro.dbn.template import DbnTemplate
from repro.errors import DiagnosticError, ModelCheckError
from repro.fusion.audio_networks import AUDIO_NODE_TO_FEATURE
from repro.fusion.av_network import av_node_to_feature
from repro.fusion.discretize import DiscretizationConfig, hard_evidence
from repro.fusion.evaluate import (
    PrecisionRecall,
    accumulate,
    classify_segments,
    extract_segments,
    segment_precision_recall,
)
from repro.fusion.features import FeatureSet, extract_feature_set
from repro.fusion.train import train_audio_network, train_av_network
from repro.synth.annotations import Interval
from repro.synth.grandprix import SyntheticRace, synthesize_race
from repro.synth.race import RaceSpec

__all__ = [
    "RaceData",
    "prepare_race",
    "AudioExperiment",
    "AvExperiment",
    "AudioEvaluation",
    "AvEvaluation",
]


@dataclass
class RaceData:
    """A synthesized race with its extracted features (cached together)."""

    race: SyntheticRace
    features: FeatureSet

    @property
    def name(self) -> str:
        return self.race.name

    @property
    def truth(self):
        return self.race.truth


def prepare_race(
    spec: RaceSpec, faults=None, on_error: str = "raise", **synth_kwargs
) -> RaceData:
    """Synthesize one race and run the full extraction chain.

    ``faults``/``on_error`` flow to both stages: synthesis corrupts the
    material, extraction degrades (instead of raising) when a modality
    chain fails under ``on_error="degrade"``.
    """
    race = synthesize_race(spec, faults=faults, **synth_kwargs)
    return RaceData(race, extract_feature_set(race, faults=faults, on_error=on_error))


def _lint_model(
    template: DbnTemplate,
    node_to_feature: dict[str, str],
    name: str,
    check: CheckMode,
) -> list:
    """Run the model linter on a freshly trained template.

    Returns the diagnostics; with ``check="error"`` error-severity findings
    raise :class:`repro.errors.ModelCheckError` before the model is used.
    """
    if not check.checks:
        return []
    report = check_template(template, node_to_feature=node_to_feature, source=name)
    if check.raises:
        report.raise_if_errors(f"fusion model {name}", ModelCheckError)
    return list(report)


def _lint_features(
    features: FeatureSet, duration: float, name: str, check: CheckMode
) -> list:
    """Flow-check training streams against the [0,1] × 10 Hz contract.

    Degraded inputs (dropped streams, recorded failures) are legitimately
    short or partial, so only pristine extractions are held to the FLOW005/
    FLOW006 invariants.
    """
    if not check.checks or features.dropped or features.failures:
        return []
    report = check_feature_set(features.streams, duration=duration, source=name)
    if check.raises:
        report.raise_if_errors(f"feature set of {name}", DiagnosticError)
    return list(report)


@dataclass
class AudioEvaluation:
    """Excited-speech detection quality on one race."""

    race_name: str
    scores: PrecisionRecall
    posterior: np.ndarray
    segments: list[Interval]
    #: Observed nodes answered without evidence (their modality was lost).
    masked_nodes: list[str] = field(default_factory=list)
    #: Feature streams missing from the input, with reasons.
    dropped_features: dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.masked_nodes)


class AudioExperiment:
    """Train-once / evaluate-many audio network experiment (Tables 1-2)."""

    def __init__(
        self,
        train_data: RaceData,
        structure: str = "a",
        temporal: str | None = "v1",
        seed: int = 0,
        config: DiscretizationConfig | None = None,
        max_iterations: int = 12,
        check: str = "error",
        allow_missing: bool = False,
    ):
        check = CheckMode.of(check)  # before training, not after
        self.structure = structure
        self.temporal = temporal
        self.config = config
        self.allow_missing = allow_missing
        self.template, self.em_result = train_audio_network(
            train_data.features,
            train_data.truth,
            structure=structure,
            temporal=temporal,
            seed=seed,
            config=config,
            max_iterations=max_iterations,
        )
        self.diagnostics = _lint_model(
            self.template,
            AUDIO_NODE_TO_FEATURE,
            f"audio[{structure}/{temporal}]",
            check=check,
        )
        self.diagnostics.extend(
            _lint_features(
                train_data.features,
                train_data.race.duration,
                f"audio[{structure}/{temporal}] train features",
                check,
            )
        )
        self._engine = CompiledDbn(self.template)

    def _evidence(self, data: RaceData):
        return hard_evidence(
            self.template,
            data.features,
            AUDIO_NODE_TO_FEATURE,
            config=self.config,
            allow_missing=self.allow_missing,
        )

    def posterior(self, data: RaceData, clusters=None) -> np.ndarray:
        """P(EA active) per 0.1 s step over a whole race."""
        evidence = self._evidence(data)
        if self.temporal is None:
            # Plain BN: per-step inference, then temporal accumulation
            # (Fig. 9a post-processing).
            series = self._engine.static_posterior_series(evidence, "EA")[:, 1]
            return accumulate(series, window_seconds=1.5)
        return self._engine.posterior_series(evidence, "EA", clusters=clusters)[:, 1]

    def evaluate(self, data: RaceData, clusters=None) -> AudioEvaluation:
        evidence = self._evidence(data)
        if self.temporal is None:
            series = self._engine.static_posterior_series(evidence, "EA")[:, 1]
            posterior = accumulate(series, window_seconds=1.5)
        else:
            posterior = self._engine.posterior_series(
                evidence, "EA", clusters=clusters
            )[:, 1]
        segments = extract_segments(posterior, min_duration=2.6, merge_gap=0.5)
        truth = data.truth.excited_speech
        scores = segment_precision_recall(segments, truth)
        return AudioEvaluation(
            data.name,
            scores,
            posterior,
            segments,
            masked_nodes=list(evidence.masked),
            dropped_features=dict(data.features.dropped),
        )


@dataclass
class AvEvaluation:
    """Highlight + sub-event detection quality on one race."""

    race_name: str
    highlight_scores: PrecisionRecall
    event_scores: dict[str, PrecisionRecall]
    highlight_segments: list[Interval]
    posteriors: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    #: Observed nodes answered without evidence (their modality was lost).
    masked_nodes: list[str] = field(default_factory=list)
    #: Feature streams missing from the input, with reasons.
    dropped_features: dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.masked_nodes)

    def degradations(self) -> list[str]:
        """Human-readable account of everything the answer went without."""
        notes = [
            f"dropped feature {name!r}: {reason}"
            for name, reason in sorted(self.dropped_features.items())
        ]
        notes.extend(
            f"masked evidence node {node!r} (no surviving feature)"
            for node in self.masked_nodes
        )
        return notes


class AvExperiment:
    """Train-once / evaluate-many audio-visual experiment (Tables 3-4)."""

    #: Sub-event node -> ground-truth track.
    EVENT_TRUTH = {"Start": "start", "FlyOut": "fly_out", "Passing": "passing"}

    def __init__(
        self,
        train_data: RaceData,
        include_passing: bool = True,
        seed: int = 0,
        config: DiscretizationConfig | None = None,
        max_iterations: int = 8,
        check: str = "error",
        allow_missing: bool = False,
    ):
        check = CheckMode.of(check)  # before training, not after
        self.include_passing = include_passing
        self.config = config
        self.allow_missing = allow_missing
        self.template, self.em_result = train_av_network(
            train_data.features,
            train_data.truth,
            include_passing=include_passing,
            seed=seed,
            config=config,
            max_iterations=max_iterations,
        )
        self.diagnostics = _lint_model(
            self.template,
            av_node_to_feature(include_passing),
            f"av[passing={include_passing}]",
            check=check,
        )
        self.diagnostics.extend(
            _lint_features(
                train_data.features,
                train_data.race.duration,
                f"av[passing={include_passing}] train features",
                check,
            )
        )
        self._engine = CompiledDbn(self.template)

    def _evidence(self, data: RaceData):
        return hard_evidence(
            self.template,
            data.features,
            av_node_to_feature(self.include_passing),
            config=self.config,
            allow_missing=self.allow_missing,
        )

    def _posteriors_from(self, evidence) -> dict[str, np.ndarray]:
        gamma = self._engine.filter(evidence).gamma
        nodes = ["Highlight", "EA", "Start", "FlyOut"] + (
            ["Passing"] if self.include_passing else []
        )
        return {
            node: self._engine.marginal(gamma, node)[:, 1] for node in nodes
        }

    def posteriors(self, data: RaceData) -> dict[str, np.ndarray]:
        return self._posteriors_from(self._evidence(data))

    def evaluate(self, data: RaceData) -> AvEvaluation:
        evidence = self._evidence(data)
        posteriors = self._posteriors_from(evidence)
        segments = extract_segments(posteriors["Highlight"])
        highlight_scores = segment_precision_recall(
            segments, data.truth.highlights
        )
        event_nodes = {
            name: posteriors[name]
            for name in self.EVENT_TRUTH
            if name in posteriors
        }
        labelled = classify_segments(segments, event_nodes)
        event_scores = {}
        for node, kind in self.EVENT_TRUTH.items():
            if node not in labelled:
                continue
            truth = data.truth.of_kind(kind)
            event_scores[node] = segment_precision_recall(labelled[node], truth)
        return AvEvaluation(
            data.name,
            highlight_scores,
            event_scores,
            segments,
            posteriors,
            masked_nodes=list(evidence.masked),
            dropped_features=dict(data.features.dropped),
        )
