"""Span recorder for the traced pass, kept entirely in the benchmark.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the span that was open when this one started (-1 for an op's root) and
``op`` identifies the ingest/query/write the span belongs to. Spans stay
in memory; ``run.py --out`` writes them to ``trace.json`` at exit. A
span's self time is its duration minus the time its direct children cover.

Two leaf calls run thousands of times per op (``BAT.insert``,
``BAT.tails``), so they are *tallied* — a count and a total per op kind —
instead of recorded as spans; their time stays inside the self time of the
span that called them.

Nothing under ``src/`` is edited: :data:`PATCHES` names each public
callable at the place the program looks it up, and :meth:`Tracer.install`
swaps a recording wrapper in for the duration of the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from statistics import median

NAME, START, END, PARENT, OP = range(5)

#: ``(owner, attribute, span name)`` — owner is ``module`` or ``module:Class``.
PATCHES = (
    # offline regime: synthesis, extraction, ingest
    ("repro.synth.grandprix", "synthesize_audio", "synth.audio"),
    ("repro.synth.video_synth:RaceVideoRenderer", "frame", "synth.frame"),
    ("repro.fusion.features", "extract_excitement_features", "audio.excitement"),
    ("repro.audio.excitement", "pitch_track", "audio.pitch"),
    ("repro.audio.keywords:AcousticModel", "decode", "audio.keywords"),
    ("repro.audio.keywords:KeywordSpotter", "spot", "audio.keywords"),
    ("repro.fusion.features", "extract_visual_features", "video.visual"),
    ("repro.fusion.features", "extract_feature_set", "fusion.extract"),
    ("repro.retrieval.system", "extract_overlays", "text.ocr"),
    ("repro.retrieval.system", "train_av_network", "fusion.train"),
    ("repro.retrieval.system", "train_audio_network", "fusion.train"),
    ("repro.check.modelcheck", "check_template", "check.model"),
    # query-time dynamic extraction
    ("repro.retrieval.system", "hard_evidence", "fusion.evidence"),
    ("repro.cobra.extensions:DbnExtension", "infer", "dbn.infer"),
    ("repro.retrieval.system", "extract_segments", "fusion.segments"),
    ("repro.cobra.metadata:MetadataStore", "store_event", "cobra.store_event"),
    # interactive regime
    ("repro.cobra.vdbms", "parse_coql", "cobra.parse"),
    ("repro.sharding.fleet", "parse_coql", "cobra.parse"),
    ("repro.cobra.preprocessor:QueryPreprocessor", "prepare", "cobra.preprocess"),
    ("repro.cobra.query:QueryExecutor", "execute", "cobra.execute"),
    # write path
    ("repro.cobra.vdbms:CobraVDBMS", "register_document", "cobra.register"),
    ("repro.durability.store:DurableStore", "commit", "durability.commit"),
    ("repro.durability.store:DurableStore", "checkpoint", "durability.checkpoint"),
    # fleet
    ("repro.sharding.fleet:ShardedKernel", "query", "sharding.query"),
    ("repro.sharding.fleet:ShardedKernel", "register_document", "sharding.register"),
    ("repro.sharding.fleet:ShardedKernel", "store_event", "sharding.store_event"),
    ("repro.sharding.fleet:ShardedKernel", "pump", "replication.pump"),
)

#: ``(owner, attribute, tally name)`` — counted and summed, never recorded.
TALLIES = (
    ("repro.monet.bat:BAT", "insert", "monet.insert"),
    ("repro.monet.bat:BAT", "tails", "monet.tails"),
    ("repro.monet.bat:BAT", "tail_array", "monet.tails"),
    ("os", "fsync", "durability.fsync"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Records spans and tallies on the thread that created it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_kinds: list[str] = []
        #: (op kind, enclosing span name, tally name) -> [count, seconds, amount]
        self.tallies: dict[tuple[str, str, str], list] = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def op(self, kind: str):
        """Root span of one ingest/query/write; its spans share an op id."""
        self.op_kinds.append(kind)
        with self.span(f"op.{kind}"):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, len(self.op_kinds) - 1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def _recording(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    def tally(self, name: str, seconds: float, amount: float = 0.0) -> None:
        under = self.spans[self._stack[-1]][NAME]
        cell = self.tallies.setdefault((self.op_kinds[-1], under, name), [0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += seconds
        cell[2] += amount

    def _span_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _tally_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tally(name, time.perf_counter() - start)

        return wrapper

    def _events_wrapper(self, fn):
        """``MetadataStore.events`` as a span plus the rows it hands back."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            with self.span("cobra.events"):
                rows = fn(*args, **kwargs)
            self.tally("cobra.event_rows", 0.0, len(rows))
            return rows

        return wrapper

    def _transaction_wrapper(self, fn):
        """``MonetKernel.transaction`` with the commit at scope exit (the
        catalog delta and the WAL group commit) recorded as its own span."""

        @contextmanager
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scope = fn(*args, **kwargs)
            value = scope.__enter__()
            try:
                yield value
            except BaseException as exc:
                if not scope.__exit__(type(exc), exc, exc.__traceback__):
                    raise
                return
            if not self._recording():
                scope.__exit__(None, None, None)
                return
            with self.span("monet.txn_commit"):
                scope.__exit__(None, None, None)

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _swap(self, owner: str, attribute: str, make) -> None:
        target = _resolve(owner)
        original = getattr(target, attribute)
        self._undo.append((target, attribute, original))
        setattr(target, attribute, make(original))

    def install(self) -> None:
        for owner, attribute, name in PATCHES:
            self._swap(owner, attribute, lambda fn, n=name: self._span_wrapper(fn, n))
        for owner, attribute, name in TALLIES:
            self._swap(owner, attribute, lambda fn, n=name: self._tally_wrapper(fn, n))
        self._swap("repro.cobra.metadata:MetadataStore", "events", self._events_wrapper)
        self._swap(
            "repro.monet.kernel:MonetKernel", "transaction", self._transaction_wrapper
        )

    def uninstall(self) -> None:
        while self._undo:
            target, attribute, original = self._undo.pop()
            setattr(target, attribute, original)

    # ------------------------------------------------------------------
    # moving a child process's trace into this one
    # ------------------------------------------------------------------
    def export(self) -> dict:
        return {
            "spans": self.spans,
            "op_kinds": self.op_kinds,
            "tallies": [[*key, *cell] for key, cell in self.tallies.items()],
        }

    def absorb(self, exported: dict) -> None:
        span_base, op_base = len(self.spans), len(self.op_kinds)
        for name, start, end, parent, op in exported["spans"]:
            self.spans.append(
                [name, start, end, parent + span_base if parent >= 0 else -1, op + op_base]
            )
        self.op_kinds.extend(exported["op_kinds"])
        for kind, under, name, count, seconds, amount in exported["tallies"]:
            cell = self.tallies.setdefault((kind, under, name), [0, 0.0, 0.0])
            cell[0] += count
            cell[1] += seconds
            cell[2] += amount


class Summary:
    """Read-only view of a finished trace: durations, self times, tallies."""

    def __init__(self, tracer: Tracer) -> None:
        self._spans = tracer.spans
        self._kinds = tracer.op_kinds
        self._tallies = tracer.tallies
        covered = [0.0] * len(self._spans)
        for span in self._spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        self._self = [
            span[END] - span[START] - inside for span, inside in zip(self._spans, covered)
        ]

    def _select(self, name: str, kinds, under):
        for index, span in enumerate(self._spans):
            if span[NAME] != name:
                continue
            if kinds is not None and self._kinds[span[OP]] not in kinds:
                continue
            if under is not None and (
                span[PARENT] < 0 or self._spans[span[PARENT]][NAME] != under
            ):
                continue
            yield index, span

    def durations(self, name: str, kinds=None, under=None) -> list[float]:
        """Seconds of every span called ``name`` (optionally only inside ops
        of the given kinds, or directly under a span called ``under``)."""
        return [s[END] - s[START] for _, s in self._select(name, kinds, under)]

    def self_times(self, name: str, kinds=None) -> list[float]:
        return [self._self[i] for i, _ in self._select(name, kinds, None)]

    def ops(self, kinds) -> int:
        return sum(1 for kind in self._kinds if kind in kinds)

    def tally(self, name: str, kinds=None, under=None) -> tuple[int, float, float]:
        """(count, seconds, amount) of a tally over ops of the given kinds,
        optionally only where the innermost open span was ``under``."""
        count, seconds, amount = 0, 0.0, 0.0
        for (kind, inside, tally_name), cell in self._tallies.items():
            if (
                tally_name == name
                and (kinds is None or kind in kinds)
                and (under is None or inside == under)
            ):
                count += cell[0]
                seconds += cell[1]
                amount += cell[2]
        return count, seconds, amount

    def self_time_coverage(self) -> tuple[float, float]:
        """(min, max) over ops of Σ self times ÷ the op's root span — 1.0
        when every span nests properly inside its parent."""
        total: dict[int, float] = {}
        root: dict[int, float] = {}
        for index, span in enumerate(self._spans):
            total[span[OP]] = total.get(span[OP], 0.0) + self._self[index]
            if span[PARENT] < 0:
                root[span[OP]] = span[END] - span[START]
        shares = [total[op] / root[op] for op in root if root[op] > 0]
        return (min(shares), max(shares)) if shares else (1.0, 1.0)


def med(values, scale: float = 1.0) -> float:
    """Median scaled to the reporting unit; 0.0 when the layer never ran."""
    return median(values) * scale if values else 0.0
