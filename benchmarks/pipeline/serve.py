"""query_serve — the interactive regime: COQL over stored metadata only.

An in-memory ``CobraVDBMS(check="error")`` with a method-less domain holds
the seeded corpus; every query is answered from ``cobra.query`` /
``cobra.metadata`` / ``monet.bat`` reads, with zero extraction. The program
keeps no cache, so there is no "fits / exceeds cache" pair; the temporal
template is the O(n²) probe and sets p95.
"""

from __future__ import annotations

from collections import Counter

from corpus import DOMAIN, Oracle, make_corpus, rng_for, template_stream, to_document
from harness import Run, issue_query, percentile
from layers import query_layers
from spans import Summary

NAME = "query_serve"


def setup(run: Run):
    from repro.cobra.catalog import DomainKnowledge
    from repro.cobra.vdbms import CobraVDBMS

    sizes = run.sizes
    documents = make_corpus(run.seed, sizes.corpus_documents, sizes.corpus_events)
    db = CobraVDBMS(check="error")
    db.register_domain(DomainKnowledge(DOMAIN))
    for document in documents:
        db.register_document(to_document(document), DOMAIN)
    return db, Oracle(documents)


def measure(run: Run, state) -> None:
    db, oracle = state
    rng = rng_for(run.seed, "queries")
    turns: Counter = Counter()
    for template in template_stream(rng, run.sizes.queries_per_round):
        issue_query(run, db.query, oracle, rng, template, turns)


def teardown(run: Run, state) -> None:
    state[0].close()


def end_to_end(run: Run) -> dict[str, float]:
    latencies = run.pooled("q_")
    return {
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p95_ms": percentile(latencies, 95) * 1e3,
        "work_per_s": len(latencies) / sum(latencies),  # queries per second
    }


def per_layer(untraced: Run, traced: Run, trace: Summary) -> dict[str, float]:
    return query_layers(trace, traced.counts["records"] * traced.rounds)
