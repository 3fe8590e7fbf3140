"""fleet_mixed — reads beside writes through sharding + replication + WAL.

Three durable shards, one replica each, fsync on, primary reads, pre-loaded
with the ``query_serve`` corpus and asked the same six templates, so the
scatter/gather overhead (or benefit) is a direct subtraction against
``query_serve``. Every write is followed by ``pump()``; the oracle replays
the op stream sequentially, so expected answers are exact after each write.

Degradation is judged by ``coverage.lost``: a shard-local ``FROM v`` gather
measures its coverage against the whole corpus, so today it reports
``complete=False`` although nothing was lost, and trips the default 0.25
floor whenever the owning shard holds under a quarter of the documents
(README, findings). Queries therefore pass ``min_coverage=0.0``.
"""

from __future__ import annotations

import shutil
from collections import Counter

from corpus import (
    DOMAIN,
    KINDS,
    Oracle,
    make_corpus,
    make_document,
    interleave,
    make_event,
    rng_for,
    template_stream,
    to_document,
    to_event,
)
from harness import Run, issue_query, percentile
from layers import QUERY_KINDS, query_layers, write_layers
from spans import Summary, med

NAME = "fleet_mixed"
WRITE_KINDS = ("store_event", "register")


def setup(run: Run):
    from repro.sharding import ShardConfig, ShardedKernel

    sizes = run.sizes
    documents = make_corpus(run.seed, sizes.corpus_documents, sizes.corpus_events)
    base = run.workdir / f"fleet-{run.rounds}-{'t' if run.tracer else 'u'}"
    fleet = ShardedKernel(
        base,
        shards=3,
        config=ShardConfig(fsync=True, replication=1, read_policy="primary"),
    )
    for document in documents:
        fleet.register_document(to_document(document), DOMAIN)
    fleet.pump()
    return fleet, Oracle(documents), base


def _consumed(fleet) -> int:
    """WAL records the replicas have consumed so far (ReplicaPosition)."""
    total = 0
    for name in fleet.shard_names():
        group = fleet.shard(name).group
        for replica in group.replica_names():
            total += group.replica(replica).position.records_consumed
    return total


def measure(run: Run, state) -> None:
    fleet, oracle, _ = state
    sizes = run.sizes
    rng = rng_for(run.seed, "fleet")
    # writes at even intervals among the queries, registrations at even
    # intervals among the writes: every write makes later ops dearer, so
    # where they fall must not be left to the seed
    writes = interleave(
        ["store_event"] * sizes.fleet_store_events, ["register"] * sizes.fleet_registers
    )
    ops = interleave(template_stream(rng, sizes.fleet_queries), writes)
    turns: Counter = Counter()

    def write(kind: str, apply, *args) -> None:
        before = _consumed(fleet)
        run.timed(kind, lambda: (apply(*args), fleet.pump()))
        run.count("pumps")
        run.count("pump_records", _consumed(fleet) - before)

    def query(text: str):
        return fleet.query(text, min_coverage=0.0)

    for index, op in enumerate(ops):
        if op not in WRITE_KINDS:
            result = issue_query(run, query, oracle, rng, op, turns)
            if result is not None:
                coverage = result.coverage
                run.expect(not coverage.lost, f"lost shards {coverage.lost}")
                run.count("queries")
                run.count("shards_targeted", len(coverage.targeted))
                run.count("hedged", len(coverage.hedged))
        elif op == "store_event":
            video = oracle.videos[turns[op] % sizes.corpus_documents]
            turns[op] += 1
            event = make_event(rng, video, f"{video}/w{index}", rng.choice(KINDS))
            write("store_event", fleet.store_event, video, to_event(event))
            oracle.add_event(event)
        else:
            document = make_document(rng, f"n{turns[op]}", sizes.fleet_register_events)
            turns[op] += 1
            write("register", fleet.register_document, to_document(document), DOMAIN)
            oracle.add_document(document)
    run.count("fenced_retries", fleet.fenced_retries)


def teardown(run: Run, state) -> None:
    fleet, _, base = state
    fleet.close()
    shutil.rmtree(base)


def end_to_end(run: Run) -> dict[str, float]:
    queries, ops = run.pooled("q_"), run.pooled()
    return {
        "op_p50_ms": percentile(queries, 50) * 1e3,
        "op_p95_ms": percentile(queries, 95) * 1e3,
        "work_per_s": len(ops) / sum(ops),  # mixed ops per second
    }


def per_layer(untraced: Run, traced: Run, trace: Summary) -> dict[str, float]:
    counts = untraced.counts
    out = query_layers(trace, traced.counts["records"] * traced.rounds)
    out.update(write_layers(trace, ("register",), "sharding.register"))
    out.update(
        {
            "sharding.query_self_ms": med(trace.self_times("sharding.query", QUERY_KINDS), 1e3),
            "sharding.register_self_ms": med(trace.self_times("sharding.register"), 1e3),
            "sharding.store_event_self_ms": med(trace.self_times("sharding.store_event"), 1e3),
            "sharding.shards_per_query": counts["shards_targeted"] / counts["queries"],
            "sharding.hedged": counts["hedged"],
            "sharding.fenced_retries": counts["fenced_retries"],
            "sharding.write_ms": med(untraced.samples["store_event"], 1e3),
            "replication.pump_ms": med(trace.durations("replication.pump", WRITE_KINDS), 1e3),
            "replication.records_per_pump": counts["pump_records"] / counts["pumps"],
        }
    )
    return out
