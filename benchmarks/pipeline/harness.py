"""The closed loop: one single-threaded client that waits for each reply.

A workload is three callables — ``setup(run) -> state``, ``measure(run,
state)``, ``teardown(run, state)``. :func:`run_pass` repeats whole rounds
(fresh set-up, the seeded op stream, tear-down): as many as ``seconds`` buys
at the sandbox's usual speed, fewer only if the ops have by then been busy
half as long again. Every round issues the *same* ops against the same fresh
state, and an op's latency is the fastest of its issues: this sandbox's
CPU speed wanders by ±15 % over seconds (README, steadiness), which only
ever adds time, so the minimum over identical issues is the steady
estimate and percentiles are then taken across the ops of one round. Each
round also adds one ``setup_s`` sample and must repeat every exact count.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from corpus import Oracle, coql, draw_params
from sizes import ROUND_SECONDS, Sizes
from spans import Tracer


class Run:
    """Everything one pass records: latencies, failures, exact counts."""

    def __init__(
        self,
        seed: int,
        sizes: Sizes,
        workdir: Path,
        tracer: Tracer | None = None,
        sabotage: str | None = None,
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.sabotage = sabotage
        #: op kind -> seconds per op of one round, in issue order: each the
        #: fastest of that op's issues over the rounds so far
        self.samples: dict[str, list[float]] = {}
        self._round: dict[str, list[float]] = defaultdict(list)
        self.setup_seconds: list[float] = []
        #: Σ timed seconds over all rounds — the loop wall time minus the
        #: client's own generation and checking
        self.busy = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failures: list[str] = []
        self._failed_ops: set[int] = set()
        #: exact counters of one round (bytes, rows, records)
        self.counts: dict[str, float] = defaultdict(float)
        self._round_counts: dict[str, float] = defaultdict(float)
        #: printed but not compared (hashes)
        self.notes: dict[str, str] = {}
        #: what a workload saw of its inputs, for ``--regen-golden``
        self.observed: dict = {}

    def timed(self, kind: str, fn, *args):
        """Issue one op and wait for it; an exception is a failed op."""
        self.attempted += 1
        tracer = self.tracer
        try:
            if tracer is None:
                start = time.perf_counter()
                result = fn(*args)
                elapsed = time.perf_counter() - start
            else:
                with tracer.op(kind):
                    start = time.perf_counter()
                    result = fn(*args)
                    elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - the loop must outlive a failed op
            self.fail(f"{kind} raised: {traceback.format_exc(limit=3)}")
            return None
        self.record(kind, [elapsed])
        return result

    def record(self, kind: str, seconds: list[float]) -> None:
        """Latencies of ops timed elsewhere (the durable writer child)."""
        self._round[kind].extend(seconds)
        self.busy += sum(seconds)

    def count(self, name: str, amount: float = 1) -> None:
        self._round_counts[name] += amount

    def end_round(self) -> None:
        """Fold the round into the per-op minima; exact counts must repeat."""
        if not self.failures:
            for kind, values in self._round.items():
                best = self.samples.get(kind, values)
                self.samples[kind] = [min(pair) for pair in zip(best, values, strict=True)]
            if self.rounds and self._round_counts != self.counts:
                self.attempted += 1
                self.fail(f"round {self.rounds}: {dict(self._round_counts)} != {dict(self.counts)}")
            self.counts = self._round_counts
        self._round = defaultdict(list)
        self._round_counts = defaultdict(float)
        self.rounds += 1

    def fail(self, message: str) -> None:
        """Count the op issued last as failed (once, however many checks)."""
        if self.attempted not in self._failed_ops:
            self._failed_ops.add(self.attempted)
            self.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def pooled(self, prefix: str = "") -> list[float]:
        """One round's latencies of every op kind starting with ``prefix``."""
        return [
            seconds
            for kind, values in self.samples.items()
            if kind.startswith(prefix)
            for seconds in values
        ]


def run_pass(workload, run: Run, seconds: float) -> None:
    # a fixed number of rounds, not "until the time is up": a slow minute
    # must not also cost the op its repeats, which are what filter it out
    rounds = max(1, round(seconds / ROUND_SECONDS[workload.NAME]))
    while True:
        start = time.perf_counter()
        if run.tracer is None:
            state = workload.setup(run)
        else:
            with run.tracer.op("setup"):
                state = workload.setup(run)
        run.setup_seconds.append(time.perf_counter() - start)
        try:
            workload.measure(run, state)
        finally:
            workload.teardown(run, state)
        run.end_round()
        if run.rounds == rounds or run.busy >= 1.5 * seconds or run.failures:
            return


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def issue_query(run: Run, query_fn, oracle: Oracle, rng, template: str, turns: Counter):
    """One seeded query of ``template``, checked against the oracle.
    ``turns`` counts the queries of each template issued this round."""
    corpus = oracle.videos[: run.sizes.corpus_documents]
    params = draw_params(rng, template, corpus[turns[template] % len(corpus)])
    turns[template] += 1
    expected = oracle.answer(template, params)
    if run.sabotage == "oracle":
        run.sabotage = None
        expected = expected + ["sabotaged/e0"]
    text = coql(template, params)
    result = run.timed(f"q_{template}", query_fn, text)
    if result is None:
        return None
    got = sorted(record["event_id"] for record in result.records)
    run.expect(got == expected, f"{text!r}: {len(got)} ids, expected {len(expected)}")
    run.count("records", len(got))
    return result
