"""CobraVDBMS facade: extensions wiring, domains, DBN extension + module."""

import gc
import weakref

import numpy as np
import pytest

from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
from repro.cobra.extensions import DbnExtension, DbnModule, RuleExtension
from repro.cobra.model import RawVideo, VideoDocument, VideoEvent
from repro.cobra.vdbms import CobraVDBMS
from repro.dbn.evidence import EvidenceSequence
from repro.dbn.template import DbnTemplate
from repro.errors import CobraError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.rules.engine import Fact, Pattern, Rule
from repro.synth.annotations import Interval
from tests.reference_bn import sample_sequence


def single_evidence_template(seed=0) -> DbnTemplate:
    t = DbnTemplate()
    t.add_node("H", 2)
    t.add_node("F", 2, observed=True)
    t.add_intra_edge("H", "F")
    t.add_inter_edge("H", "H")
    t.randomize(np.random.default_rng(seed))
    return t


class TestFacade:
    def test_four_extensions_registered(self):
        db = CobraVDBMS()
        assert set(db.extensions.names()) == {"videoproc", "hmm", "dbn", "rules"}

    def test_kernel_has_extension_modules(self):
        db = CobraVDBMS()
        assert db.kernel.has_command("hmmOneCall")
        assert db.kernel.has_command("dbnInfer")
        assert "dbnInferP" in db.kernel.procedures()

    def test_register_document_needs_domain(self):
        db = CobraVDBMS()
        doc = VideoDocument(
            raw=RawVideo("v1", "synthetic://x", 10.0, 10.0, 192, 144, 16000)
        )
        with pytest.raises(CobraError):
            db.register_document(doc, "nonexistent")

    def test_query_without_videos(self):
        db = CobraVDBMS()
        with pytest.raises(CobraError):
            db.query("RETRIEVE highlight")

    def test_a_closed_vdbms_is_freed_by_reference_counting(self):
        db = CobraVDBMS()
        db.register_domain(DomainKnowledge("bare"))
        document = VideoDocument(
            raw=RawVideo("v1", "synthetic://x", 10.0, 10.0, 192, 144, 16000)
        )
        document.events["e0"] = VideoEvent(
            "e0", "highlight", Interval(1.0, 2.0), 0.9, {"driver": "HAKKINEN"}, "dbn"
        )
        db.register_document(document, "bare")
        assert len(db.query("RETRIEVE highlight WHERE DRIVER = HAKKINEN")) == 1
        db.close()
        gc.collect()
        gc.disable()  # from here on only reference counting frees objects
        try:
            refs = [weakref.ref(db), weakref.ref(db.kernel)]
            refs.append(weakref.ref(db.kernel.bat("meta_role_name")))
            del db
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestDomains:
    """Each domain's knowledge runs on its own videos (§2: domain
    independence by separating domain knowledge and techniques)."""

    @staticmethod
    def two_domain_vdbms():
        db = CobraVDBMS(check="off")
        ran = []
        for domain, video_id in (("f1", "race1"), ("news", "news1")):
            def extract(document, name=f"m_{domain}"):
                video = document.raw.video_id
                ran.append((name, video))
                return [
                    VideoEvent(f"{video}-h", "highlight", Interval(1.0, 2.0), 0.9, {}, name)
                ]

            db.register_domain(
                DomainKnowledge(
                    domain,
                    methods=[ExtractionMethod(f"m_{domain}", ("highlight",), extract)],
                )
            )
            document = VideoDocument(
                raw=RawVideo(video_id, "synthetic://x", 10.0, 10.0, 192, 144, 16000)
            )
            db.register_document(document, domain)
        return db, ran

    def test_each_domain_extracts_only_its_own_videos(self):
        db, ran = self.two_domain_vdbms()
        result = db.query("RETRIEVE highlight")
        assert sorted(ran) == [("m_f1", "race1"), ("m_news", "news1")]
        assert result.report.extracted == [("highlight", "m_f1"), ("highlight", "m_news")]
        assert sorted(r["video_id"] for r in result.records) == ["news1", "race1"]
        ran.clear()
        again = db.query("RETRIEVE highlight")
        assert ran == [] and again.report.available == ["highlight"]

    def test_a_video_query_runs_its_own_domain_only(self):
        db, ran = self.two_domain_vdbms()
        result = db.query("RETRIEVE highlight FROM news1")
        assert ran == [("m_news", "news1")]
        assert result.report.extracted == [("highlight", "m_news")]


class TestDbnExtension:
    def test_register_and_infer(self, rng):
        kernel = MonetKernel()
        ext = DbnExtension(kernel)
        template = single_evidence_template()
        ext.register("demo", template)
        _, evidence = sample_sequence(template, 30, rng)
        posterior = ext.infer("demo", evidence, "H")
        assert posterior.shape == (30,)
        assert np.all((posterior >= 0) & (posterior <= 1))

    def test_infer_several_nodes_is_one_forward_pass(self, rng, monkeypatch):
        from repro.dbn import scan

        t = DbnTemplate()
        t.add_node("H", 2)
        t.add_node("K", 2)
        t.add_node("F", 2, observed=True)
        t.add_intra_edge("H", "K")
        t.add_intra_edge("K", "F")
        t.add_inter_edge("H", "H")
        t.add_inter_edge("K", "K")
        t.randomize(np.random.default_rng(4))
        ext = DbnExtension(MonetKernel())
        ext.register("demo", t)
        _, evidence = sample_sequence(t, 40, rng)
        one_by_one = [ext.infer("demo", evidence, node) for node in ("K", "H")]

        passes = []
        forward = scan.forward
        monkeypatch.setattr(
            scan, "forward", lambda *a, **kw: passes.append(1) or forward(*a, **kw)
        )
        together = ext.infer("demo", evidence, ["K", "H"])
        assert len(passes) == 1
        assert len(together) == 2
        for series, alone in zip(together, one_by_one):
            np.testing.assert_array_equal(series, alone)

    def test_loglik_operator(self, rng):
        kernel = MonetKernel()
        ext = DbnExtension(kernel)
        template = single_evidence_template()
        ext.register("demo", template)
        _, evidence = sample_sequence(template, 20, rng)
        assert ext.log_likelihood("demo", evidence) < 0

    def test_train_reregisters(self, rng):
        kernel = MonetKernel()
        ext = DbnExtension(kernel)
        ext.register("demo", single_evidence_template())
        segments = [
            sample_sequence(single_evidence_template(seed=9), 20, rng)[1]
            for _ in range(3)
        ]
        learned = ext.train("demo", segments, max_iterations=3)
        assert ext.template("demo") is learned

    def test_unknown_model(self):
        ext = DbnExtension(MonetKernel())
        with pytest.raises(CobraError):
            ext.template("ghost")

    def test_mil_level_inference_matches_python(self, rng):
        """The Fig. 5 path: MIL PROC -> module command -> engine."""
        kernel = MonetKernel()
        ext = DbnExtension(kernel)
        template = single_evidence_template()
        ext.register("demo", template)
        _, evidence = sample_sequence(template, 15, rng)
        values = evidence.hard_values("F")

        obs = BAT("void", "int")
        obs.insert_bulk(None, [int(v) for v in values])
        result = kernel.call("dbnInferP", ["demo", "H", obs])
        python_posterior = ext.infer(
            "demo", EvidenceSequence(template, hard={"F": values}), "H"
        )
        assert np.allclose(result.tail_array(), python_posterior, atol=1e-12)

    def test_dbn_infer_rejects_multi_evidence(self):
        module = DbnModule()
        t = DbnTemplate()
        t.add_node("H", 2)
        t.add_node("F", 2, observed=True)
        t.add_node("G", 2, observed=True)
        t.add_intra_edge("H", "F")
        t.add_intra_edge("H", "G")
        t.add_inter_edge("H", "H")
        t.randomize(np.random.default_rng(0))
        module.register_model("multi", t)
        obs = BAT("void", "int")
        obs.insert(0)
        with pytest.raises(CobraError):
            module.dbnInfer("multi", "H", obs)


class TestRuleExtension:
    def test_run_applies_registered_rules(self):
        ext = RuleExtension()
        ext.add_rule(
            Rule(
                "mark",
                [Pattern.of("raw", v=1)],
                action=lambda b: [Fact.of("marked")],
            )
        )
        facts = ext.run([Fact.of("raw", v=1), Fact.of("raw", v=2)])
        assert Fact.of("marked") in facts

    def test_run_isolated_between_calls(self):
        ext = RuleExtension()
        ext.add_rule(
            Rule(
                "mark",
                [Pattern.of("raw", v=1)],
                action=lambda b: [Fact.of("marked")],
            )
        )
        first = ext.run([Fact.of("raw", v=1)])
        second = ext.run([Fact.of("raw", v=2)])
        assert Fact.of("marked") in first
        assert Fact.of("marked") not in second
