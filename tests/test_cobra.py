"""Cobra VDBMS: model layers, metadata store, COQL, preprocessor, compound
events."""

import numpy as np
import pytest

from repro.cobra.catalog import DomainKnowledge, ExtractionMethod, KnowledgeCatalog
from repro.cobra.compound import Component, CompoundEventDef, TemporalConstraint
from repro.cobra.metadata import MetadataStore
from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument, VideoObject
from repro.cobra.preprocessor import QueryPreprocessor
from repro.cobra.query import QueryExecutor, parse_coql
from repro.errors import (
    CobraError,
    QuerySyntaxError,
    UnknownConceptError,
)
from repro.monet.kernel import MonetKernel
from repro.synth.annotations import Interval


def make_document(video_id="race1") -> VideoDocument:
    doc = VideoDocument(
        raw=RawVideo(video_id, "synthetic://x", 100.0, 10.0, 192, 144, 16000)
    )
    doc.add_object(VideoObject(f"{video_id}/d0", "driver", "SCHUMACHER"))
    doc.add_object(VideoObject(f"{video_id}/d1", "driver", "HAKKINEN"))
    doc.new_event("fly_out", Interval(10, 18), 0.9, {"driver": f"{video_id}/d1"}, "dbn")
    doc.new_event("pit_stop", Interval(40, 48), 1.0, {"driver": f"{video_id}/d0"}, "text")
    doc.new_event("highlight", Interval(9, 20), 0.8, source="dbn")
    doc.new_event(
        "classification",
        Interval(30, 34),
        1.0,
        {"p1": f"{video_id}/d0", "p2": f"{video_id}/d1", "lap": "7"},
        "text",
    )
    return doc


@pytest.fixture()
def store():
    store = MetadataStore(MonetKernel())
    store.register_document(make_document())
    return store


class TestModel:
    def test_event_ids_unique(self):
        doc = make_document()
        assert len(set(doc.events)) == len(doc.events)

    def test_duplicate_feature_rejected(self):
        doc = make_document()
        doc.add_feature(FeatureTrack("f1", np.zeros(5)))
        with pytest.raises(CobraError):
            doc.add_feature(FeatureTrack("f1", np.zeros(5)))

    def test_object_by_label(self):
        doc = make_document()
        assert doc.object_by_label("HAKKINEN").category == "driver"
        with pytest.raises(CobraError):
            doc.object_by_label("SENNA")


class TestMetadata:
    def test_events_filterable(self, store):
        assert len(store.events(kind="fly_out")) == 1
        assert len(store.events(video_id="race1")) == 4
        assert store.events(kind="fly_out")[0]["roles"] == {"driver": "race1/d1"}

    def test_min_confidence(self, store):
        assert len(store.events(kind="highlight", min_confidence=0.9)) == 0

    def test_objects_filterable(self, store):
        assert len(store.objects(category="driver")) == 2
        assert store.objects(label="SCHUMACHER")[0]["object_id"] == "race1/d0"

    def test_duplicate_video_rejected(self, store):
        with pytest.raises(CobraError):
            store.register_document(make_document())

    def test_store_event_unknown_video(self, store):
        doc = make_document("ghost")
        event = list(doc.events.values())[0]
        with pytest.raises(CobraError):
            store.store_event("ghost", event)

    def test_bat_backing(self, store):
        """Metadata really lives in kernel BATs."""
        kernel_bat = store._event_bats["kind"]
        assert "fly_out" in kernel_bat.tails()


class TestCoqlParsing:
    def test_basic(self):
        q = parse_coql("RETRIEVE fly_out")
        assert q.kind == "fly_out" and q.video is None and q.conditions == []

    def test_from_video(self):
        assert parse_coql("RETRIEVE x FROM race1").video == "race1"
        assert parse_coql("RETRIEVE x FROM ALL").video is None

    def test_role_condition(self):
        q = parse_coql("RETRIEVE pit_stop WHERE ROLE driver = BARRICHELLO")
        assert q.conditions[0].kind == "role"
        assert q.conditions[0].get("label") == "BARRICHELLO"

    def test_driver_sugar(self):
        q = parse_coql('RETRIEVE pit_stop WHERE DRIVER = "SCHUMACHER"')
        assert q.conditions[0].get("role") == "driver"

    def test_position_and_conjunction(self):
        q = parse_coql(
            "RETRIEVE classification WHERE POSITION SCHUMACHER = 1 "
            "AND POSITION HAKKINEN = 2"
        )
        assert len(q.conditions) == 2
        assert q.conditions[1].get("position") == 2

    def test_temporal_with_role(self):
        q = parse_coql(
            "RETRIEVE highlight WHERE INTERSECTS pit_stop WITH ROLE driver = RALF"
        )
        c = q.conditions[0]
        assert c.kind == "temporal"
        assert c.get("relation") == "intersects"
        assert c.get("label") == "RALF"

    def test_confidence(self):
        q = parse_coql("RETRIEVE highlight WHERE CONFIDENCE >= 0.75")
        assert q.conditions[0].get("minimum") == 0.75

    def test_syntax_errors(self):
        for bad in ("", "SELECT x", "RETRIEVE", "RETRIEVE x WHERE BOGUS = 1"):
            with pytest.raises(QuerySyntaxError):
                parse_coql(bad)


class TestExecution:
    def test_kind_filter(self, store):
        records = QueryExecutor(store).execute(parse_coql("RETRIEVE fly_out"))
        assert len(records) == 1

    def test_role_filter(self, store):
        records = QueryExecutor(store).execute(
            parse_coql("RETRIEVE fly_out WHERE ROLE driver = HAKKINEN")
        )
        assert len(records) == 1
        records = QueryExecutor(store).execute(
            parse_coql("RETRIEVE fly_out WHERE ROLE driver = SCHUMACHER")
        )
        assert records == []

    def test_position_query(self, store):
        records = QueryExecutor(store).execute(
            parse_coql("RETRIEVE classification WHERE POSITION SCHUMACHER = 1")
        )
        assert len(records) == 1

    def test_lap_query(self, store):
        records = QueryExecutor(store).execute(
            parse_coql("RETRIEVE classification WHERE LAP = 7")
        )
        assert len(records) == 1

    def test_temporal_join(self, store):
        records = QueryExecutor(store).execute(
            parse_coql("RETRIEVE highlight WHERE INTERSECTS fly_out")
        )
        assert len(records) == 1
        records = QueryExecutor(store).execute(
            parse_coql("RETRIEVE highlight WHERE INTERSECTS pit_stop")
        )
        assert records == []

    def test_unknown_concept(self, store):
        with pytest.raises(UnknownConceptError):
            QueryExecutor(store).execute(parse_coql("RETRIEVE unicorn"))


class TestPreprocessor:
    def _knowledge(self, calls):
        def extract(document):
            calls.append(document.raw.video_id)
            return [
                type(document).new_event(
                    document, "excited_speech", Interval(5, 9), 0.7, source="dbn"
                )
            ]

        return DomainKnowledge(
            "f1",
            methods=[
                ExtractionMethod(
                    "audio_dbn", ("excited_speech",), extract, quality=0.8
                )
            ],
        )

    def test_dynamic_extraction_invoked_once(self, store):
        calls = []
        pre = QueryPreprocessor(store, self._knowledge(calls))
        query = parse_coql("RETRIEVE excited_speech FROM race1")
        report = pre.prepare(query, ["race1"])
        assert report.ran_extraction
        assert calls == ["race1"]
        # metadata now present: second prepare does nothing
        report2 = pre.prepare(query, ["race1"])
        assert not report2.ran_extraction
        assert calls == ["race1"]

    def test_no_method_raises(self, store):
        pre = QueryPreprocessor(store, DomainKnowledge("empty"))
        with pytest.raises(UnknownConceptError):
            pre.prepare(parse_coql("RETRIEVE unicorn FROM race1"), ["race1"])

    def test_method_selection_by_quality(self, store):
        order = []

        def cheap(document):
            order.append("cheap")
            return []

        def good(document):
            order.append("good")
            return []

        knowledge = DomainKnowledge(
            "f1",
            methods=[
                ExtractionMethod("cheap", ("thing",), cheap, cost=1, quality=0.3),
                ExtractionMethod("good", ("thing",), good, cost=9, quality=0.9),
            ],
        )
        assert knowledge.methods_for("thing")[0].name == "good"

    def test_required_kinds_includes_temporal_joins(self, store):
        pre = QueryPreprocessor(store, DomainKnowledge("f1"))
        query = parse_coql("RETRIEVE highlight WHERE INTERSECTS fly_out")
        assert pre.required_kinds(query) == ["highlight", "fly_out"]


class TestCompound:
    def test_materialize_and_requery(self, store):
        definition = CompoundEventDef(
            "announced_flyout",
            [Component("f", "fly_out"), Component("h", "highlight")],
            [TemporalConstraint("f", "during", "h")],
        )
        events = definition.materialize(store, "race1")
        assert len(events) == 1
        records = QueryExecutor(store).execute(parse_coql("RETRIEVE announced_flyout"))
        assert len(records) == 1
        assert records[0]["interval"].start == pytest.approx(9.0)

    def test_role_constrained_component(self, store):
        definition = CompoundEventDef(
            "hakkinen_flyout",
            [Component("f", "fly_out", role="driver", role_label="HAKKINEN")],
        )
        assert len(definition.evaluate(store, "race1")) == 1
        other = CompoundEventDef(
            "schumi_flyout",
            [Component("f", "fly_out", role="driver", role_label="SCHUMACHER")],
        )
        assert other.evaluate(store, "race1") == []

    def test_duplicate_alias_rejected(self):
        with pytest.raises(CobraError):
            CompoundEventDef("x", [Component("a", "e"), Component("a", "e")])

    def test_unknown_alias_in_constraint(self):
        with pytest.raises(CobraError):
            CompoundEventDef(
                "x",
                [Component("a", "e")],
                [TemporalConstraint("a", "before", "ghost")],
            )


class TestCatalog:
    def test_domain_registry(self):
        catalog = KnowledgeCatalog()
        catalog.add_domain(DomainKnowledge("f1"))
        assert catalog.domains() == ["f1"]
        with pytest.raises(CobraError):
            catalog.add_domain(DomainKnowledge("f1"))
        with pytest.raises(CobraError):
            catalog.domain("tennis")
