"""Fusion layer: network structures, discretization, evaluation metrics,
and the integrated pipelines (session-scoped mini race)."""

import numpy as np
import pytest

from repro.dbn.compiled import CompiledDbn
from repro.errors import GraphStructureError
from repro.fusion.audio_networks import (
    AUDIO_EVIDENCE,
    add_temporal_edges,
    audio_structure,
    fully_parameterized_dbn,
)
from repro.fusion.av_network import av_dbn, av_node_to_feature
from repro.fusion.discretize import DiscretizationConfig, hard_evidence, soft_evidence
from repro.fusion.evaluate import (
    PrecisionRecall,
    accumulate,
    classify_segments,
    extract_segments,
    segment_precision_recall,
)
from repro.fusion.features import ALL_FEATURE_NAMES
from repro.fusion.pipeline import AudioExperiment, AvExperiment
from repro.fusion.train import annotation_tracks, positive_initialization, transfer_parameters
from repro.synth.annotations import Interval


class TestAudioStructures:
    def test_structure_a_hidden_nodes(self):
        t = audio_structure("a")
        assert set(t.hidden_nodes()) == {"EA", "KW", "EN", "PI", "MF"}
        assert set(t.observed_nodes()) == set(AUDIO_EVIDENCE)

    def test_structure_b_direct(self):
        t = audio_structure("b")
        assert t.hidden_nodes() == ["EA"]
        assert set(t.intra_parents("EA")) == set(AUDIO_EVIDENCE)

    def test_structure_c_input_output(self):
        t = audio_structure("c")
        assert "KW" in t.intra_parents("EA")
        assert "f1" in t.intra_parents("KW")

    def test_unknown_structure(self):
        with pytest.raises(GraphStructureError):
            audio_structure("z")

    def test_temporal_v1_edges(self):
        t = audio_structure("a")
        add_temporal_edges(t, "v1")
        assert ("EA", "EA") in t.inter_edges()
        assert ("EA", "EN") in t.inter_edges()
        assert ("EN", "EA") in t.inter_edges()
        assert ("EN", "EN") in t.inter_edges()

    def test_temporal_v2_only_into_query(self):
        t = audio_structure("a")
        add_temporal_edges(t, "v2")
        for parent, child in t.inter_edges():
            assert child == "EA"

    def test_temporal_v3_no_query_fanout(self):
        t = audio_structure("a")
        add_temporal_edges(t, "v3")
        assert ("EA", "EN") not in t.inter_edges()
        assert ("EN", "EN") in t.inter_edges()
        assert ("EN", "EA") in t.inter_edges()

    def test_fully_parameterized_validates_and_compiles(self):
        t = fully_parameterized_dbn(seed=0)
        engine = CompiledDbn(t)
        assert engine.n_states == 2**5


class TestAvNetwork:
    def test_with_passing(self):
        t = av_dbn(include_passing=True)
        assert "Passing" in t.hidden_nodes()
        assert "f13" in t.nodes()
        assert set(t.intra_parents("f17")) == {"Start", "Passing"}

    def test_without_passing(self):
        t = av_dbn(include_passing=False)
        assert "Passing" not in t.nodes()
        assert "f13" not in t.nodes()
        assert t.intra_parents("f17") == ["Start"]
        mapping = av_node_to_feature(False)
        assert "f13" not in mapping

    def test_highlight_is_root(self):
        t = av_dbn()
        assert t.intra_parents("Highlight") == []
        assert "Highlight" in t.intra_parents("Start")

    def test_replay_evidence_under_highlight(self):
        t = av_dbn()
        assert t.intra_parents("f12") == ["Highlight"]

    def test_observed_hidden_marks(self):
        t = av_dbn(observed_hidden=("Highlight",))
        assert "Highlight" in t.observed_nodes()
        assert "Start" not in t.observed_nodes()


class TestDiscretization:
    def test_adaptive_cut_follows_distribution(self):
        config = DiscretizationConfig()
        low = np.full(100, 0.1)
        assert config.cut("f6", low) > 0.05
        spread = np.concatenate([np.zeros(90), np.ones(10)])
        cut = config.cut("f6", spread)
        assert 0.1 < cut < 0.5

    def test_fixed_thresholds(self):
        config = DiscretizationConfig()
        assert config.threshold("f12") == 0.5
        assert config.threshold("f14") == pytest.approx(0.4)

    def test_threshold_raises_for_adaptive(self):
        from repro.errors import SignalError

        with pytest.raises(SignalError):
            DiscretizationConfig().threshold("f6")

    def test_override_wins(self):
        config = DiscretizationConfig(thresholds={"f6": 0.77})
        assert config.cut("f6", np.zeros(5)) == 0.77


class TestEvaluation:
    def test_extract_segments_threshold_and_duration(self):
        posterior = np.zeros(300)
        posterior[50:120] = 0.9   # 7 s -> kept
        posterior[200:220] = 0.9  # 2 s -> dropped at min 6 s
        segments = extract_segments(posterior)
        assert len(segments) == 1
        assert segments[0].start == pytest.approx(5.0)

    def test_extract_segments_merges_dips(self):
        posterior = np.zeros(300)
        posterior[50:90] = 0.9
        posterior[95:140] = 0.9  # 0.5 s dip -> merged
        segments = extract_segments(posterior, merge_gap=2.0)
        assert len(segments) == 1

    def test_accumulate_smooths(self):
        spiky = np.zeros(100)
        spiky[::10] = 1.0
        smooth = accumulate(spiky, window_seconds=1.0)
        assert smooth.max() < 0.5
        assert smooth.var() < spiky.var()

    def test_precision_recall_properties(self):
        pr = PrecisionRecall(3, 1, 2)
        assert pr.precision == 0.75
        assert pr.recall == 0.6
        assert pr.as_percents() == (75.0, 60.0)
        assert PrecisionRecall(0, 0, 0).precision == 0.0

    def test_segment_matching(self):
        truth = [Interval(10, 20), Interval(50, 60)]
        detected = [Interval(12, 18), Interval(30, 40)]
        pr = segment_precision_recall(detected, truth)
        assert pr.true_positives == 1
        assert pr.false_positives == 1
        assert pr.false_negatives == 1

    def test_tiny_overlap_does_not_match(self):
        truth = [Interval(10, 20)]
        detected = [Interval(19.9, 30)]
        pr = segment_precision_recall(detected, truth, min_overlap_seconds=1.0)
        assert pr.true_positives == 0

    def test_classify_segments_baseline_correction(self):
        # Start has a HIGH raw posterior everywhere (0.6 flat); FlyOut is
        # usually low but clearly elevated inside the segment. Baseline
        # correction must pick FlyOut, raw argmax would pick Start.
        n = 400
        start = np.full(n, 0.6)
        fly = np.full(n, 0.1)
        fly[100:160] = 0.55
        labels = classify_segments(
            [Interval(10.0, 16.0)], {"Start": start, "FlyOut": fly}
        )
        assert labels["FlyOut"] and not labels["Start"]

    def test_classify_long_segment_multi_label(self):
        n = 400
        start = np.zeros(n)
        start[100:150] = 1.0
        fly = np.zeros(n)
        fly[250:300] = 1.0
        segments = [Interval(10.0, 30.0)]  # 20 s covers both events
        labels = classify_segments(segments, {"Start": start, "FlyOut": fly})
        assert labels["Start"] and labels["FlyOut"]


class TestTrainHelpers:
    def test_positive_initialization_monotone(self):
        t = audio_structure("a")
        add_temporal_edges(t, "v1")
        positive_initialization(t, np.random.default_rng(0), jitter=0.0)
        table = t.transition_cpd("EN").table  # EN | EA, EN[t-1], EA[t-1]
        assert table[1, 1, 1, 1] > table[1, 0, 0, 0]

    def test_self_parent_weighted(self):
        t = audio_structure("a")
        add_temporal_edges(t, "v1")
        positive_initialization(t, np.random.default_rng(0), jitter=0.0)
        table = t.transition_cpd("EN").table
        # EN[t-1]=1 alone beats EA[t-1]=1 alone (3x weight)
        assert table[1, 0, 1, 0] > table[1, 0, 0, 1]

    def test_transfer_parameters_roundtrip(self):
        source = fully_parameterized_dbn(ea_observed=True, seed=5)
        target = audio_structure("a")
        add_temporal_edges(target, "v1")
        transfer_parameters(source, target)
        assert np.allclose(
            source.transition_cpd("EA").table, target.transition_cpd("EA").table
        )

    def test_transfer_mismatch_rejected(self):
        from repro.errors import LearningError

        source = audio_structure("a")
        target = audio_structure("b")
        with pytest.raises(LearningError):
            transfer_parameters(source, target)

    def test_annotation_tracks_shapes(self, mini_race):
        tracks = annotation_tracks(mini_race.truth, 100)
        assert set(tracks) == {"EA", "Highlight", "Start", "FlyOut", "Passing"}
        assert all(v.shape == (100,) for v in tracks.values())


class TestIntegratedPipelines:
    """Slow(ish) tests sharing the session mini race."""

    def test_feature_set_complete(self, mini_race):
        assert set(ALL_FEATURE_NAMES) <= set(mini_race.features.streams)
        n = mini_race.features.n_steps
        assert n == pytest.approx(1800, abs=5)
        for name in ALL_FEATURE_NAMES:
            values = mini_race.features.stream(name)
            assert values.min() >= 0.0 and values.max() <= 1.0, name

    def test_hard_and_soft_evidence_build(self, mini_race):
        t = fully_parameterized_dbn(seed=0)
        from repro.fusion.audio_networks import AUDIO_NODE_TO_FEATURE

        hard = hard_evidence(t, mini_race.features, AUDIO_NODE_TO_FEATURE)
        soft = soft_evidence(t, mini_race.features, AUDIO_NODE_TO_FEATURE)
        assert len(hard) == len(soft) == mini_race.features.n_steps

    def test_audio_dbn_beats_bn_recall(self, mini_race):
        bn = AudioExperiment(mini_race, structure="a", temporal=None, seed=1)
        dbn = AudioExperiment(mini_race, structure="a", temporal="v1", seed=1)
        bn_eval = bn.evaluate(mini_race)
        dbn_eval = dbn.evaluate(mini_race)
        assert dbn_eval.scores.recall >= bn_eval.scores.recall
        assert dbn_eval.scores.f1 >= bn_eval.scores.f1

    def test_dbn_posterior_smoother_than_bn(self, mini_race):
        """The Fig. 9 contrast: DBN output is smoother."""
        bn = AudioExperiment(mini_race, structure="a", temporal=None, seed=1)
        dbn = AudioExperiment(mini_race, structure="a", temporal="v1", seed=1)
        bn_raw = bn._engine.static_posterior_series(
            hard_evidence(
                bn.template,
                mini_race.features,
                {f: f for f in AUDIO_EVIDENCE},
            ),
            "EA",
        )[:, 1]
        dbn_post = dbn.posterior(mini_race)
        assert np.abs(np.diff(dbn_post)).mean() < np.abs(np.diff(bn_raw)).mean()

    def test_av_dbn_finds_highlights(self, mini_race):
        experiment = AvExperiment(mini_race, include_passing=True, seed=2)
        evaluation = experiment.evaluate(mini_race)
        assert evaluation.highlight_scores.recall > 0.4
        assert evaluation.highlight_scores.precision > 0.5

    def test_av_beats_audio_on_highlight_recall(self, mini_race):
        audio = AudioExperiment(mini_race, structure="a", temporal="v1", seed=1)
        av = AvExperiment(mini_race, include_passing=True, seed=2)
        audio_segments = extract_segments(
            audio.posterior(mini_race), min_duration=2.6, merge_gap=0.5
        )
        audio_pr = segment_precision_recall(
            audio_segments, mini_race.truth.highlights
        )
        av_pr = av.evaluate(mini_race).highlight_scores
        assert av_pr.recall > audio_pr.recall
