"""register_durable — the BAT/metadata layer used for writes, on a WAL.

``CobraVDBMS(check="error", store=DurableStore(dir, fsync=True))``: one WAL
commit per registered document, ``checkpoint()`` every
``durable_checkpoint_every`` documents. The flush policy is fsync **on**,
the same on every commit measured.

Each round runs in two child processes of this file. The *writer*
registers the documents and then leaves through ``os._exit`` without
``close()``; the *verifier*, a fresh interpreter, recovers the store and
re-reads every document. A document the writer acknowledged that does not
read back exactly is a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from corpus import DOMAIN, make_document, rng_for, stored_form, to_document, user_bytes
from harness import Run, percentile
from layers import write_layers
from sizes import Sizes
from spans import Summary, Tracer, med

NAME = "register_durable"


def _documents(seed: int, sizes: Sizes) -> list[dict]:
    rng = rng_for(seed, "durable")
    return [
        make_document(rng, f"d{index}", sizes.durable_events)
        for index in range(sizes.durable_documents)
    ]


# ----------------------------------------------------------------------
# parent side: one round = writer child, then verifier child
# ----------------------------------------------------------------------
def _child(role: str, request: dict) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, role, json.dumps(request)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def setup(run: Run) -> Path:
    return run.workdir / f"store-{run.rounds}-{'t' if run.tracer else 'u'}"


def measure(run: Run, store: Path) -> None:
    request = {
        "dir": str(store),
        "seed": run.seed,
        "sizes": dataclasses.asdict(run.sizes),
        "trace": run.tracer is not None,
    }
    written = _child("write", request)
    # the store's real set-up (documents, open, domain) happened in the writer
    run.setup_seconds[-1] += written["setup_s"]
    for kind in ("register", "checkpoint"):
        run.record(kind, written[kind])
    run.attempted += written["attempted"]
    run.failures.extend(written["failures"])
    for name in ("wal_bytes", "checkpoint_bytes", "user_bytes", "rows"):
        run.count(name, written[name])
    if run.tracer is not None:
        run.tracer.absorb(written["trace"])

    if run.sabotage == "wal":
        (store / "wal.log").unlink()
    verdict = _child("verify", request)
    readable = set(verdict["readable"])
    for video in written["acknowledged"]:
        run.attempted += 1
        run.expect(video in readable, f"{video} acknowledged but unreadable after restart")
    run.record("recover", [verdict["recover_s"]])


def teardown(run: Run, store: Path) -> None:
    shutil.rmtree(store, ignore_errors=True)


def end_to_end(run: Run) -> dict[str, float]:
    writes = run.samples["register"]
    return {
        "op_p50_ms": percentile(writes, 50) * 1e3,
        "op_p95_ms": percentile(writes, 95) * 1e3,
        # event rows per second, checkpoints included
        "work_per_s": run.counts["rows"] / (sum(writes) + sum(run.samples["checkpoint"])),
    }


def per_layer(untraced: Run, traced: Run, trace: Summary) -> dict[str, float]:
    counts = untraced.counts
    writes = untraced.samples["register"]
    tenth = max(len(writes) // 10, 1)
    (recover_s,) = untraced.samples["recover"]
    out = write_layers(trace, ("register",), "cobra.register")
    out.update(
        {
            "durability.checkpoint_s": med(trace.durations("durability.checkpoint")),
            "monet.commit_growth": sum(writes[-tenth:]) / sum(writes[:tenth]),
            "durability.recover_s": recover_s,
            "durability.recover_rows_per_s": counts["rows"] / recover_s,
            "durability.wal_bytes_per_row": counts["wal_bytes"] / counts["rows"],
            "durability.checkpoint_bytes": counts["checkpoint_bytes"],
            "durability.write_amp": (counts["wal_bytes"] + counts["checkpoint_bytes"])
            / counts["user_bytes"],
        }
    )
    return out


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _open(store_dir: str):
    from repro.cobra.vdbms import CobraVDBMS
    from repro.durability.store import DurableStore

    store = DurableStore(store_dir, fsync=True)
    return store, CobraVDBMS(check="error", store=store)


def _write(request: dict) -> None:
    from repro.cobra.catalog import DomainKnowledge

    sizes = Sizes(**request["sizes"])
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    run = Run(request["seed"], sizes, Path(request["dir"]), tracer)

    start = time.perf_counter()
    specs = _documents(run.seed, sizes)
    documents = [to_document(spec) for spec in specs]
    store, db = _open(request["dir"])
    db.register_domain(DomainKnowledge(DOMAIN))
    setup_s = time.perf_counter() - start

    acknowledged: list[str] = []
    wal_bytes = store.wal_size()
    checkpoint_bytes = 0
    for index, (spec, document) in enumerate(zip(specs, documents), 1):
        before, failed = store.wal_size(), run.failed
        run.timed("register", db.register_document, document, DOMAIN)
        if run.failed == failed:
            acknowledged.append(spec["video"])
        wal_bytes += store.wal_size() - before
        if index % sizes.durable_checkpoint_every == 0:
            run.timed("checkpoint", db.checkpoint)
            checkpoint_bytes += (store.path / "checkpoint").stat().st_size
    run.end_round()
    reply = {
        "setup_s": setup_s,
        "register": run.samples.get("register", []),
        "checkpoint": run.samples.get("checkpoint", []),
        "attempted": run.attempted,
        "failures": run.failures,
        "acknowledged": acknowledged,
        "wal_bytes": wal_bytes,
        "checkpoint_bytes": checkpoint_bytes,
        "user_bytes": sum(user_bytes(spec) for spec in specs),
        "rows": sum(len(spec["events"]) for spec in specs),
        "trace": tracer.export() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    # the crash: no close(), no atexit, nothing flushed that a commit did
    # not already flush
    os._exit(0)


def _verify(request: dict) -> None:
    specs = _documents(request["seed"], Sizes(**request["sizes"]))
    start = time.perf_counter()
    _, db = _open(request["dir"])
    recover_s = time.perf_counter() - start

    events = defaultdict(list)
    for record in db.metadata.events():
        events[record["video_id"]].append(stored_form(record))
    objects = defaultdict(list)
    for record in db.metadata.objects():
        objects[record["video_id"]].append(
            (record["object_id"], record["category"], record["label"])
        )
    readable = [
        spec["video"]
        for spec in specs
        if sorted(events[spec["video"]])
        == sorted(stored_form(event) for event in spec["events"])
        and sorted(objects[spec["video"]]) == sorted(spec["objects"])
    ]
    db.close()
    print(json.dumps({"recover_s": recover_s, "readable": readable}))


if __name__ == "__main__":
    from steady import steady_process

    steady_process()
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    {"write": _write, "verify": _verify}[sys.argv[1]](json.loads(sys.argv[2]))
