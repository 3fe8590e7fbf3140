"""Serving concurrent queries with admission control and graceful drain.

The paper's prototype answers one query at a time; `repro.service` puts an
overload-safe front door on it: a bounded priority queue, rate limiting,
cancellation tokens that reach down to MIL statement dispatch, and a drain
that flushes the WAL. This walkthrough drives each piece.

Run:  python examples/serve_queries.py        (a few seconds)
"""

import tempfile

from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
from repro.cobra.model import RawVideo, VideoDocument
from repro.cobra.vdbms import CobraVDBMS
from repro.errors import MilCheckError, OverloadError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, get_plan
from repro.service import Priority, QueryService, ServiceConfig
from repro.sharding import ShardConfig, ShardedKernel
from repro.synth.annotations import Interval

# 1. A tiny VDBMS with one synthetic extraction method.


def make_document(video_id: str) -> VideoDocument:
    document = VideoDocument(
        raw=RawVideo(video_id, f"synthetic://{video_id}", 120.0, 10.0, 192, 144, 16000)
    )
    document.new_event("highlight", Interval(9, 20), 0.8, source="dbn")
    return document


def extract(document):
    return [document.new_event("excited_speech", Interval(5, 9), 0.7, source="dbn")]


db = CobraVDBMS()
db.register_domain(
    DomainKnowledge(
        "f1",
        methods=[ExtractionMethod("demo_dbn", ("excited_speech",), extract, quality=0.8)],
    )
)

# 2. A service with a deliberately small front door: 4 queued requests,
#    shed-oldest under saturation.
service = QueryService(db, ServiceConfig(queue_capacity=4, shed_policy="oldest"))

print("Registering broadcasts on the batch lane ...")
for index in range(3):
    service.submit_register(make_document(f"race{index}"), "f1")
service.run_until_idle()

# 3. Saturate the queue. Batch queries fill it; the interactive query
#    displaces the oldest batch request (shed-oldest never works the
#    other way around). Every refusal is a typed OverloadError.
print("Submitting a burst of queries ...")
tickets = [
    service.submit_query(f"RETRIEVE excited_speech FROM race{i % 3}", Priority.BATCH)
    for i in range(4)
]
urgent = service.submit_query("RETRIEVE highlight FROM race0", Priority.INTERACTIVE)
service.run_until_idle()

print(f"  urgent query: {urgent.status} -> {len(urgent.result())} segment(s)")
for ticket in tickets:
    try:
        ticket.result()
        print(f"  batch #{ticket.seq}: {ticket.status}")
    except OverloadError as error:
        print(f"  batch #{ticket.seq}: {ticket.status} ({error.reason})")

# 4. MIL PROCs join the service only through the SVC001 gate: an
#    unbounded WHILE must carry a cancelpoint() so a drain can stop it.
print("Registering MIL PROCs for service execution ...")
try:
    service.register_proc(
        "PROC spin() : int := { VAR go := 1; VAR x := 0;"
        " WHILE (go > 0) { x := x + 1; } RETURN x; }"
    )
except MilCheckError as error:
    print(f"  spin() rejected: {error.diagnostics[0].code}")

service.register_proc(
    "PROC hop(int n) : int := { VAR i := 0; VAR c := 0;"
    " WHILE (i < n) { c := cancelpoint(); i := i + 1; } RETURN i; }"
)
hop = service.submit_proc_call("hop", (10,))
service.run_until_idle()
print(f"  hop(10) -> {hop.result()}")

# 5. Graceful drain: admissions stop, the rest finishes within the
#    budget, and the report is the deterministic ledger of everything.
report = service.shutdown(deadline=2.0)
print(report.describe())
try:
    service.submit_query("RETRIEVE highlight FROM race0")
except OverloadError as error:
    print(f"late submission refused: {error.reason}")

# 6. Degraded answers. The service fronts a sharded fleet through the same
#    door as one kernel (QueryService(fleet)) and keeps answering when
#    shards die:
#    the gather returns a partial result instead of raising, and the
#    coverage report says exactly how partial. Check result.degraded /
#    result.degradations() before trusting a fleet answer — a completed
#    ticket may carry 4/6 of the corpus, which is an answer *and* a
#    warning. Below the fleet's min_coverage floor the query fails
#    loudly with InsufficientCoverageError instead.
print("Scatter-gather under a dying shard ...")
with tempfile.TemporaryDirectory() as scratch:
    fleet = ShardedKernel(
        scratch,
        shards=3,
        config=ShardConfig(min_coverage=0.25, fsync=False),
        faults=FaultInjector(get_plan("shard-death")),
    )
    fleet_service = QueryService(fleet)
    for index in range(6):
        fleet_service.submit_register(make_document(f"race{index}"), "f1")
    fleet_service.run_until_idle()
    partial = fleet_service.submit_query("RETRIEVE highlight")
    fleet_service.run_until_idle()
    result = partial.result()
    print(f"  degraded: {result.degraded}")
    for note in result.degradations():
        print(f"  {note}")
    fleet_service.shutdown()
    fleet.close()

# 7. Dual reads during an online split. While a document is migrating
#    to a newly added shard (fleet.split / fleet.migrations), its rows
#    exist on both the source and the half-built destination; if a
#    gather loses the current owner it answers through the *other* side
#    instead of dropping the document, and the coverage report says so:
#    `migrating` counts in-flight documents, `dual_read` counts answers
#    served off-owner. A mid-split answer is still one row per document
#    — the ownership merge never duplicates — but check those counters
#    (they ride the ServiceReport record's coverage payload too) before
#    treating a mid-split gather as a steady-state one.
print("Online split with a dual read ...")
with tempfile.TemporaryDirectory() as scratch:
    fleet = ShardedKernel(
        scratch, shards=2, config=ShardConfig(min_coverage=0.25, fsync=False),
        faults=FaultInjector(
            FaultPlan(
                seed=7,
                name="cut-the-source",
                specs=(
                    FaultSpec(
                        site="sharding.transport:shard-1",
                        kind="partition",
                        max_triggers=1,
                    ),
                ),
            )
        ),
    )
    docs = {}
    for index in range(6):
        docs[f"race{index}"] = make_document(f"race{index}")
        fleet.register_document(docs[f"race{index}"], "f1")
    remapped = fleet.add_shard("shard-2")   # ring extends; minimal remap
    pilot = remapped[0]
    fleet.migrations.plan(pilot)
    fleet.migrations.copy(pilot)            # rows now on both sides
    mid = fleet.query("RETRIEVE highlight") # source partitioned: dual read
    print(f"  {mid.coverage.describe()}")
    fleet.split("shard-2")                  # idempotent: finishes the moves
    done = fleet.query("RETRIEVE highlight")
    print(f"  after the split: {done.coverage.describe()}")
    fleet.close()
