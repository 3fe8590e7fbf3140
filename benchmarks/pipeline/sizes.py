"""Every size the benchmark chooses, in one place.

The full sizes are trimmed from ISSUE 11's starting points so that one run
(set-up + ``run_seconds`` of measuring + checks) fits the harness budget of
roughly half a minute per run on a 2-core sandbox; README.md records the
trims. ``SMOKE`` is every workload at about a twentieth of the work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Queries come in shuffled blocks of this many, so template shares are
#: exact for every whole block.
BLOCK = 20
#: Query templates per block: by-video point 25 %, confidence 20 %, role
#: 20 %, position 15 %, lap 10 %, temporal 10 %.
TEMPLATE_BLOCK = (
    ("point",) * 5
    + ("conf",) * 4
    + ("role",) * 4
    + ("position",) * 3
    + ("lap",) * 2
    + ("temporal",) * 2
)


#: Busy seconds of one full-size round on the sandbox the sizes were chosen
#: on: ``--seconds`` buys ``round(seconds / this)`` rounds, at least one.
ROUND_SECONDS = {
    "ingest_cold": 30.0,
    "query_serve": 4.0,
    "register_durable": 3.0,
    "fleet_mixed": 3.5,
}


@dataclass(frozen=True)
class Sizes:
    # ingest_cold
    #: Shortest race on which one passing, one fly-out and one pit stop
    #: always fit (generate_timeline needs 54 s of slots after the start).
    race_seconds: float = 125.0
    #: The training race is domain knowledge, fixed like the paper's German
    #: GP; only the ingested races vary with --seed.
    train_seed: int = 200107
    #: Ingests of the same broadcast per round; the fastest is reported.
    races_per_round: int = 2
    #: Documents carrying the training race's feature tracks under new ids,
    #: each two more cold queries: this many per pass, one pass before,
    #: between and after the ingests; a position's fastest issue is reported.
    clone_positions: int = 70
    # query_serve corpus (shared with fleet_mixed)
    corpus_documents: int = 10
    corpus_events: int = 300
    #: 100 queries = 10 temporal ones, one per document (videos are asked
    #: round-robin), so the slow tail is the same set of ops on every seed.
    queries_per_round: int = 5 * BLOCK
    # register_durable
    durable_documents: int = 120
    durable_events: int = 50
    #: 4 checkpoint cycles and a 12-document WAL tail for the restart check.
    durable_checkpoint_every: int = 27
    # fleet_mixed
    #: 70 % / 25 % / 5 % of 142 ops, the writes at even intervals.
    fleet_queries: int = 5 * BLOCK
    fleet_store_events: int = 35
    fleet_registers: int = 7
    fleet_register_events: int = 50
    #: Fresh interpreters timed for repro.import_s.
    import_repeats: int = 5


FULL = Sizes()
SMOKE = replace(
    FULL,
    clone_positions=4,
    corpus_events=15,
    queries_per_round=BLOCK,
    durable_documents=8,
    durable_checkpoint_every=3,
    fleet_queries=14,
    fleet_store_events=5,
    fleet_registers=1,
    fleet_register_events=12,
    import_repeats=1,
)
