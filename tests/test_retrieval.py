"""Retrieval front-end: English query templates + the assembled system
(session-scoped trained FormulaOneSystem)."""

import pytest

from repro.errors import QuerySyntaxError
from repro.retrieval.parser import english_to_coql


class TestEnglishQueries:
    def test_paper_examples_translate(self):
        cases = {
            "Retrieve the video sequences showing the car of Michael Schumacher":
                "driver_mention",
            "Retrieve the video sequences with Michael Schumacher leading the race":
                "classification",
            "Retrieve the video sequences showing Barrichello in the pit stop":
                "pit_stop",
            "Retrieve the sequences with the race leader crossing the finish line":
                "winner",
            "Retrieve all fly outs": "fly_out",
            "Retrieve all highlights showing the car of Michael Schumacher":
                "highlight",
            "Retrieve all fly outs of Mika Hakkinen in this season": "fly_out",
            "Retrieve all highlights at the pit line involving Juan Pablo Montoya":
                "highlight",
        }
        for english, kind in cases.items():
            coql = english_to_coql(english)
            assert coql.startswith(f"RETRIEVE {kind}"), (english, coql)

    def test_two_position_query(self):
        coql = english_to_coql(
            "Retrieve the video sequences where Michael Schumacher is first, "
            "and Mika Hakkinen is second"
        )
        assert "POSITION SCHUMACHER = 1" in coql
        assert "POSITION HAKKINEN = 2" in coql

    def test_unmappable_query(self):
        with pytest.raises(QuerySyntaxError):
            english_to_coql("What is the meaning of life")

    def test_driver_required_where_needed(self):
        with pytest.raises(QuerySyntaxError):
            english_to_coql("Retrieve sequences showing X in the pit stop")


class TestSystem:
    def test_text_metadata_queryable(self, f1_system):
        result = f1_system.query("RETRIEVE pit_stop")
        assert len(result) >= 1
        assert all(r["source"] == "text" for r in result.records)

    def test_classification_positions(self, f1_system, mini_race):
        # the race's own overlay schedule tells us the true leader
        overlays = mini_race.truth.overlays
        classification = next(w for _, w in overlays if w[0] == "1")
        leader = classification[1]
        result = f1_system.query(
            f"RETRIEVE classification WHERE POSITION {leader} = 1"
        )
        assert len(result) >= 1

    def test_dynamic_extraction_on_first_query(self, f1_system):
        result = f1_system.query("RETRIEVE excited_speech")
        # either just extracted now or already there from an earlier test
        assert len(result) >= 1

    def test_highlights_found_and_cached(self, f1_system):
        first = f1_system.query("RETRIEVE highlight")
        assert len(first) >= 1
        second = f1_system.query("RETRIEVE highlight")
        assert not second.report.ran_extraction
        assert len(second) == len(first)

    def test_av_extraction_is_one_inference_call(self, f1_system, mini_race, monkeypatch):
        """Highlight, Start and FlyOut are marginals of one forward pass."""
        from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument

        # an unregistered copy of the race: extraction must not touch the system
        document = VideoDocument(
            raw=RawVideo("copy", "synthetic://copy", 180.0, 10.0, 192, 144, 16000)
        )
        for name, values in mini_race.features.streams.items():
            document.add_feature(FeatureTrack(name, values))
        calls = []
        infer = f1_system.db.dbn.infer
        monkeypatch.setattr(
            f1_system.db.dbn,
            "infer",
            lambda *args: calls.append(args[2]) or infer(*args),
        )
        events = f1_system._extract_av_events(document)
        assert calls == [["Highlight", "Start", "FlyOut"]]
        stored = f1_system.query("RETRIEVE highlight")
        assert sorted(
            (e.interval.start, e.interval.end) for e in events if e.kind == "highlight"
        ) == sorted((r["start"], r["end"]) for r in stored.records)

    def test_highlight_recall_against_truth(self, f1_system, mini_race):
        from repro.fusion.evaluate import segment_precision_recall

        result = f1_system.query("RETRIEVE highlight")
        pr = segment_precision_recall(
            result.intervals(), mini_race.truth.highlights
        )
        assert pr.recall > 0.3

    def test_confidence_filter(self, f1_system):
        all_highlights = f1_system.query("RETRIEVE highlight")
        confident = f1_system.query("RETRIEVE highlight WHERE CONFIDENCE >= 0.99")
        assert len(confident) <= len(all_highlights)

    def test_english_front_end(self, f1_system):
        result = f1_system.ask("Retrieve all fly outs")
        assert result.query.kind == "fly_out"

    def test_combined_dbn_text_query(self, f1_system):
        """The paper's flagship: fuse DBN events with recognized text."""
        result = f1_system.query(
            "RETRIEVE highlight WHERE INTERSECTS driver_mention"
        )
        # may legitimately be empty if no overlay coincides with a highlight,
        # but the query must run both extraction paths without error
        assert result.report.required_kinds == ["highlight", "driver_mention"]

    def test_compound_event_definition(self, f1_system):
        from repro.cobra import Component, CompoundEventDef, TemporalConstraint

        f1_system.db.define_compound_event(
            CompoundEventDef(
                "test_compound",
                [Component("h", "highlight"), Component("e", "excited_speech")],
                [TemporalConstraint("h", "intersects", "e")],
            )
        )
        count = f1_system.db.materialize_compound_event(
            "test_compound", "testrace"
        )
        assert count >= 0  # materialization runs; count depends on the race
