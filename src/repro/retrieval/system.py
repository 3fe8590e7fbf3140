"""The assembled Formula 1 retrieval system (§5.6).

:class:`FormulaOneSystem` wires a :class:`~repro.cobra.vdbms.CobraVDBMS`
with the Formula 1 domain knowledge: trained audio and audio-visual DBNs
(registered as extraction methods so the query preprocessor can extract
highlights on demand), OCR-derived text metadata at ingest time, and the
English-query front-end.
"""

from __future__ import annotations

import numpy as np

from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument, VideoObject
from repro.cobra.vdbms import CobraVDBMS, QueryResult
from repro.fusion.audio_networks import AUDIO_NODE_TO_FEATURE
from repro.fusion.av_network import av_node_to_feature
from repro.fusion.discretize import DiscretizationConfig, hard_evidence
from repro.fusion.evaluate import extract_segments
from repro.fusion.features import FeatureSet
from repro.fusion.pipeline import RaceData
from repro.fusion.train import train_audio_network, train_av_network
from repro.synth.annotations import Interval
from repro.text.pipeline import extract_overlays
from repro.text.recognition import DRIVER_NAMES

__all__ = ["FormulaOneSystem", "DOMAIN_NAME"]

DOMAIN_NAME = "formula1"


class FormulaOneSystem:
    """Train once on an annotated race, then ingest and query races.

    Args:
        train_data: the annotated race (the paper uses the German GP).
        include_passing: keep the passing sub-network in the AV DBN.
        seed: training initialization seed.
    """

    def __init__(
        self,
        train_data: RaceData,
        include_passing: bool = False,
        seed: int = 2,
        config: DiscretizationConfig | None = None,
    ):
        self.db = CobraVDBMS()
        self.include_passing = include_passing
        self._config = config
        self._feature_sets: dict[str, FeatureSet] = {}

        self.av_template, _ = train_av_network(
            train_data.features,
            train_data.truth,
            include_passing=include_passing,
            seed=seed,
            config=config,
        )
        self.audio_template, _ = train_audio_network(
            train_data.features, train_data.truth, seed=seed, config=config
        )
        self.db.dbn.register("av", self.av_template)
        self.db.dbn.register("audio", self.audio_template)
        self.db.register_domain(self._build_domain())
        self.ingest(train_data)

    # ------------------------------------------------------------------
    def _build_domain(self) -> DomainKnowledge:
        av_kinds = ("highlight", "start", "fly_out") + (
            ("passing",) if self.include_passing else ()
        )
        methods = [
            ExtractionMethod(
                name="av_dbn",
                produces=av_kinds,
                extract=self._extract_av_events,
                requires_features=tuple(
                    av_node_to_feature(self.include_passing).values()
                ),
                cost=5.0,
                quality=0.85,
            ),
            ExtractionMethod(
                name="audio_dbn",
                produces=("excited_speech",),
                extract=self._extract_excited_speech,
                requires_features=tuple(AUDIO_NODE_TO_FEATURE.values()),
                cost=2.0,
                quality=0.8,
            ),
        ]
        return DomainKnowledge(
            DOMAIN_NAME,
            models={"av": self.av_template, "audio": self.audio_template},
            methods=methods,
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, data: RaceData) -> VideoDocument:
        """Register a race: raw + feature layers, objects, text metadata.

        DBN-derived events are NOT extracted here — the query preprocessor
        pulls them in dynamically the first time a query needs them.
        """
        race = data.race
        document = VideoDocument(
            raw=RawVideo(
                video_id=data.name,
                locator=f"synthetic://{data.name}?seed={race.spec.seed}",
                duration=race.duration,
                fps=race.video.fps,
                width=race.video.width,
                height=race.video.height,
                audio_sample_rate=race.audio.sample_rate,
            )
        )
        for name, values in data.features.streams.items():
            document.add_feature(FeatureTrack(name, values))
        for index, driver in enumerate(DRIVER_NAMES):
            document.add_object(
                VideoObject(f"{data.name}/driver{index}", "driver", driver)
            )
        self._add_text_events(document, data)
        self.db.register_document(document, DOMAIN_NAME)
        self._feature_sets[data.name] = data.features
        return document

    def _add_text_events(self, document: VideoDocument, data: RaceData) -> None:
        """Store the semantic overlay events the OCR pipeline recognizes.

        Recognition reads the scan taken during feature extraction; only a
        feature set without one (visual chain dropped, hand-built data)
        costs a second pass over the frames.
        """
        scan = data.features.text_scan
        overlays = scan.overlays() if scan is not None else extract_overlays(data.race.video)
        for overlay in overlays:
            interval = Interval(
                overlay.start_time, max(overlay.end_time, overlay.start_time + 0.1)
            )
            event = overlay.event
            roles: dict[str, str] = {}
            if event.kind == "classification":
                for driver, position in event.positions.items():
                    roles[f"p{position}"] = document.object_by_label(driver).object_id
                if event.lap is not None:
                    roles["lap"] = str(event.lap)
            elif event.kind in ("pit_stop", "winner", "driver_info"):
                if event.drivers:
                    roles["driver"] = document.object_by_label(event.drivers[0]).object_id
            elif event.kind == "lap" and event.lap is not None:
                roles["lap"] = str(event.lap)
            document.new_event(event.kind, interval, 1.0, roles, source="text")
            # every driver on screen also yields a mention event
            for driver in event.drivers:
                document.new_event(
                    "driver_mention",
                    interval,
                    1.0,
                    {"driver": document.object_by_label(driver).object_id},
                    source="text",
                )

    # ------------------------------------------------------------------
    # dynamic extraction callbacks
    # ------------------------------------------------------------------
    def _features_of(self, document: VideoDocument) -> FeatureSet:
        name = document.raw.video_id
        if name in self._feature_sets:
            return self._feature_sets[name]
        streams = {n: t.values for n, t in document.features.items()}
        return FeatureSet(name, streams)

    def _extract_av_events(self, document: VideoDocument) -> list:
        features = self._features_of(document)
        evidence = hard_evidence(
            self.av_template,
            features,
            av_node_to_feature(self.include_passing),
            config=self._config,
        )
        node_kinds = [("Highlight", "highlight"), ("Start", "start"), ("FlyOut", "fly_out")]
        if self.include_passing:
            node_kinds.append(("Passing", "passing"))
        posteriors = self.db.dbn.infer("av", evidence, [node for node, _ in node_kinds])
        events = []
        for (_, kind), posterior in zip(node_kinds, posteriors):
            for segment in extract_segments(posterior):
                lo = int(segment.start * 10)
                hi = max(int(segment.end * 10), lo + 1)
                confidence = float(np.mean(posterior[lo:hi]))
                events.append(
                    document.new_event(kind, segment, confidence, source="dbn")
                )
        return events

    def _extract_excited_speech(self, document: VideoDocument) -> list:
        features = self._features_of(document)
        evidence = hard_evidence(
            self.audio_template, features, AUDIO_NODE_TO_FEATURE, config=self._config
        )
        posterior = self.db.dbn.infer("audio", evidence, "EA")
        events = []
        for segment in extract_segments(posterior, min_duration=2.6, merge_gap=0.5):
            lo = int(segment.start * 10)
            hi = max(int(segment.end * 10), lo + 1)
            events.append(
                document.new_event(
                    "excited_speech",
                    segment,
                    float(np.mean(posterior[lo:hi])),
                    source="dbn",
                )
            )
        return events

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, coql: str) -> QueryResult:
        """Run a COQL query (dynamic extraction happens automatically)."""
        return self.db.query(coql)

    def ask(self, english: str) -> QueryResult:
        """Run one of the paper's English example queries."""
        from repro.retrieval.parser import english_to_coql

        return self.db.query(english_to_coql(english))
