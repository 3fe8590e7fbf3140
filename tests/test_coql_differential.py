"""Differential COQL testing: the column-at-a-time executor against the
row-at-a-time reference oracle (``tests/reference_coql.py``).

Hypothesis generates small corpora built to hit the corner cases — object
ids shared between videos under different labels, role values that are
bare labels (and one id that is also somebody's label), duplicate starts,
endpoints on the temporal tolerance's quarter-second grid, kinds with no
events at all, a confidence below the listing floor — and queries over the
six benchmark templates, every Allen relation and ``WITH ROLE``. Answers
must be *identical*: same records, same order, same key order, same
``roles`` and ``interval``, and the same ``UnknownConceptError`` cases —
on a fresh kernel, inside and after a rolled-back transaction, after
``store_event``, through a replica and through a three-shard fleet.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cobra.query as query_module
from repro.cobra.catalog import DomainKnowledge
from repro.cobra.metadata import MetadataStore
from repro.cobra.model import RawVideo, VideoDocument, VideoEvent, VideoObject
from repro.cobra.query import QueryExecutor, parse_coql
from repro.cobra.vdbms import CobraVDBMS
from repro.durability.store import DurableStore
from repro.errors import UnknownConceptError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.replication.group import GroupConfig, KernelGroup
from repro.rules.temporal import ALLEN_RELATIONS
from repro.sharding import ShardConfig, ShardedKernel
from repro.synth.annotations import Interval

from tests.reference_coql import ReferenceExecutor, ReferenceStore

EXAMPLES = 200
SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

VIDEOS = ("v0", "v1", "v2")
KINDS = (
    "highlight",
    "excited_speech",
    "fly_out",
    "pit_stop",
    "driver_mention",
    "classification",
)
LABELS = ("SCHUMACHER", "HAKKINEN", "MONTOYA")
#: ``MONTOYA`` is an object id in some videos and a bare label in others.
OBJECT_IDS = ("d0", "d1", "MONTOYA")
RELATIONS = tuple(r.upper() for r in ALLEN_RELATIONS) + ("INTERSECTS", "WITHIN")

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
role_values = st.sampled_from(OBJECT_IDS + LABELS + ("d9",))
roles = st.fixed_dictionaries(
    {},
    optional={
        "driver": role_values,
        "p1": role_values,
        "p2": role_values,
        "lap": st.integers(1, 3).map(str),
    },
)
events = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 60).map(lambda k: k * 0.25),  # start
    st.integers(1, 16).map(lambda k: k * 0.25),  # duration
    st.sampled_from((-0.5, 0.0, 0.3, 0.5, 0.8, 1.0)),
    roles,
)
documents = st.tuples(
    st.dictionaries(st.sampled_from(OBJECT_IDS), st.sampled_from(LABELS)),
    st.lists(events, max_size=20),
)
corpora = st.lists(documents, min_size=1, max_size=len(VIDEOS))

role_clause = st.sampled_from(LABELS + ("D9",)).map(lambda label: f"ROLE driver = {label}")
conditions = st.one_of(
    role_clause,
    st.sampled_from(LABELS).map(lambda label: f"DRIVER = {label}"),
    st.tuples(st.sampled_from(LABELS), st.integers(1, 3)).map(
        lambda p: f"POSITION {p[0]} = {p[1]}"
    ),
    st.sampled_from(("0.0", "0.3", "0.55", "0.8", "1.0")).map(
        lambda minimum: f"CONFIDENCE >= {minimum}"
    ),
    st.integers(1, 3).map(lambda lap: f"LAP = {lap}"),
    st.tuples(
        st.sampled_from(RELATIONS),
        st.sampled_from(KINDS),
        st.one_of(st.just(""), role_clause.map(lambda clause: f" WITH {clause}")),
    ).map(lambda p: f"{p[0]} {p[1]}{p[2]}"),
)
queries = st.tuples(
    st.sampled_from(KINDS + ("overtake",)),  # no corpus has an overtake
    st.sampled_from(("",) + tuple(f" FROM {video}" for video in VIDEOS + ("ALL",))),
    st.lists(conditions, max_size=2),
).map(
    lambda q: f"RETRIEVE {q[0]}{q[1]}"
    + (" WHERE " + " AND ".join(q[2]) if q[2] else "")
)
query_lists = st.lists(queries, min_size=1, max_size=8)
extra_events = st.tuples(st.integers(0, len(VIDEOS) - 1), events)


# ----------------------------------------------------------------------
# building what the strategies describe
# ----------------------------------------------------------------------
def build_event(event_id: str, spec) -> VideoEvent:
    kind, start, duration, confidence, event_roles = spec
    return VideoEvent(
        event_id, kind, Interval(start, start + duration), confidence, dict(event_roles), "dbn"
    )


def build_documents(corpus) -> list[VideoDocument]:
    out = []
    for video_id, (objects, event_specs) in zip(VIDEOS, corpus):
        document = VideoDocument(
            raw=RawVideo(video_id, f"synthetic://{video_id}", 20.0, 10.0, 192, 144, 16000)
        )
        for object_id, label in objects.items():
            document.add_object(VideoObject(object_id, "driver", label))
        for index, spec in enumerate(event_specs):
            event = build_event(f"{video_id}/e{index}", spec)
            document.events[event.event_id] = event
        out.append(document)
    return out


def memory_store(corpus) -> tuple[MonetKernel, MetadataStore]:
    kernel = MonetKernel(threads=1, check="off")
    store = MetadataStore(kernel)
    for document in build_documents(corpus):
        store.register_document(document)
    return kernel, store


def answer(execute, text: str):
    """Records, or the error class: both sides must agree on either."""
    try:
        return execute(parse_coql(text))
    except UnknownConceptError:
        return UnknownConceptError


def assert_identical(got, want, text: str) -> None:
    assert got == want, text
    if want is UnknownConceptError:
        return
    assert [list(record) for record in got] == [list(record) for record in want], text
    assert [list(record["roles"].items()) for record in got] == [
        list(record["roles"].items()) for record in want
    ], text


def assert_matches_reference(kernel: MonetKernel, execute, texts) -> None:
    reference = ReferenceExecutor(ReferenceStore(kernel)).execute
    for text in texts:
        assert_identical(answer(execute, text), answer(reference, text), text)


class _Rollback(Exception):
    pass


# ----------------------------------------------------------------------
# single kernel: fresh, inside and after a rolled-back transaction, after
# store_event — each phase probes accelerators the previous one built
# ----------------------------------------------------------------------
@SETTINGS
@given(corpus=corpora, texts=query_lists, extra=extra_events, late=extra_events)
def test_single_kernel_rollback_and_store_event(corpus, texts, extra, late):
    kernel, store = memory_store(corpus)

    def check() -> None:
        assert_matches_reference(kernel, QueryExecutor(store).execute, texts)

    check()
    for round_, (turn, spec) in enumerate((extra, late)):
        video_id = VIDEOS[turn % len(corpus)]
        with pytest.raises(_Rollback):
            with kernel.transaction():
                store.store_event(video_id, build_event(f"{video_id}/x{round_}", spec))
                check()  # catches the accelerators up to the doomed rows
                raise _Rollback
        check()  # restore() must have dropped them
        store.store_event(video_id, build_event(f"{video_id}/w{round_}", spec))
        check()  # the watermark picks the appended rows up
    listing = ReferenceStore(kernel)
    assert store.events() == listing.events()
    assert store.objects() == listing.objects()
    for video_id in VIDEOS:
        assert store.objects(video_id=video_id) == listing.objects(video_id=video_id)
        for label in LABELS:
            assert store.objects(video_id, "driver", label) == listing.objects(
                video_id, "driver", label
            )


# ----------------------------------------------------------------------
# replica: WAL-shipped state, BAT objects replaced by every applied commit
# ----------------------------------------------------------------------
@SETTINGS
@given(corpus=corpora, texts=query_lists, late=extra_events)
def test_replica_answers_match_reference(corpus, texts, late):
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        primary = MonetKernel(
            threads=1, check="off", store=DurableStore(base / "primary", fsync=False)
        )
        store = MetadataStore(primary)
        for document in build_documents(corpus):
            with primary.transaction():
                store.register_document(document)
        group = KernelGroup(
            primary, base, replicas=("replica-0",), config=GroupConfig(fsync=False)
        )
        try:
            group.pump()
            replica = group.replica("replica-0")

            def execute(parsed):
                return QueryExecutor(MetadataStore(replica.kernel)).execute(parsed)

            assert_matches_reference(replica.kernel, execute, texts)
            turn, spec = late
            video_id = VIDEOS[turn % len(corpus)]
            with primary.transaction():
                store.store_event(video_id, build_event(f"{video_id}/w", spec))
            group.pump()
            assert_matches_reference(replica.kernel, execute, texts)
            assert_matches_reference(primary, QueryExecutor(store).execute, texts)
        finally:
            group.close()


# ----------------------------------------------------------------------
# three-shard fleet, default configuration (coverage floor 0.25 included)
# ----------------------------------------------------------------------
@SETTINGS
@given(corpus=corpora, texts=query_lists, late=extra_events)
def test_fleet_answers_match_reference(corpus, texts, late):
    reference_kernel, reference_store = memory_store(corpus)
    with tempfile.TemporaryDirectory() as scratch:
        fleet = ShardedKernel(scratch, shards=3, config=ShardConfig(fsync=False))
        try:
            for document in build_documents(corpus):
                fleet.register_document(document, "f1")

            def execute(parsed):
                result = fleet.query(parsed)
                assert result.coverage.complete and not result.degraded
                return result.records

            def check() -> None:
                reference = ReferenceExecutor(ReferenceStore(reference_kernel)).execute
                for text in texts:
                    if parse_coql(text).video not in (None, *VIDEOS[: len(corpus)]):
                        continue  # the fleet refuses a video it never placed
                    want = answer(reference, text)
                    # a shard that never saw the kind contributes nothing
                    want = [] if want is UnknownConceptError else want
                    assert_identical(execute(parse_coql(text)), want, text)

            check()
            turn, spec = late
            video_id = VIDEOS[turn % len(corpus)]
            event = build_event(f"{video_id}/w", spec)
            fleet.store_event(video_id, event)
            reference_store.store_event(video_id, event)
            check()
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# deterministic sweep: every template and every relation, with and
# without WITH ROLE, on one dense corpus
# ----------------------------------------------------------------------
def dense_store(events_per_video: int, videos: int = 2, span: float = 600.0):
    """``events_per_video`` events per video, kinds cycling, spread over a
    fixed ``span`` seconds so doubling the count doubles the density."""
    rng = random.Random(events_per_video)
    kernel = MonetKernel(threads=1, check="off")
    store = MetadataStore(kernel)
    for video_id in VIDEOS[:videos]:
        document = VideoDocument(
            raw=RawVideo(video_id, f"synthetic://{video_id}", span, 10.0, 192, 144, 16000)
        )
        for index, label in enumerate(LABELS):
            document.add_object(VideoObject(f"{video_id}/d{index}", "driver", label))
        for index in range(events_per_video):
            kind = KINDS[index % len(KINDS)]
            start = round(rng.uniform(0.0, span - 10.0) * 4) / 4
            event_roles = {}
            if kind in ("pit_stop", "driver_mention"):
                event_roles["driver"] = f"{video_id}/d{rng.randrange(3)}"
            elif kind == "classification":
                event_roles = {
                    "p1": f"{video_id}/d{rng.randrange(3)}",
                    "p2": rng.choice(LABELS),
                    "lap": str(rng.randrange(1, 4)),
                }
            event = VideoEvent(
                f"{video_id}/e{index}",
                kind,
                Interval(start, start + rng.randrange(1, 24) / 4),
                round(rng.uniform(0.3, 1.0), 2),
                event_roles,
                "dbn",
            )
            document.events[event.event_id] = event
        store.register_document(document)
    return kernel, store


def test_every_template_and_relation_on_a_dense_corpus():
    kernel, store = dense_store(480, span=120.0)
    texts = [
        "RETRIEVE highlight FROM v0",
        "RETRIEVE fly_out WHERE CONFIDENCE >= 0.8",
        "RETRIEVE pit_stop WHERE ROLE driver = HAKKINEN",
        "RETRIEVE classification FROM v1 WHERE POSITION MONTOYA = 2",
        "RETRIEVE classification WHERE LAP = 2",
        "RETRIEVE overtake",
        "RETRIEVE highlight WHERE CONFIDENCE >= 0.5 AND INTERSECTS excited_speech",
    ]
    for relation in RELATIONS:
        texts.append(f"RETRIEVE highlight FROM v0 WHERE {relation} excited_speech")
        texts.append(
            f"RETRIEVE highlight WHERE {relation} driver_mention WITH ROLE driver = HAKKINEN"
        )
    assert_matches_reference(kernel, QueryExecutor(store).execute, texts)
    empty = [text for text in texts[7:] if not QueryExecutor(store).execute(parse_coql(text))]
    assert not empty, "every relation needs a non-empty answer for the comparison to bite"


def test_temporal_join_is_subquadratic_in_events_per_video(monkeypatch):
    """Doubling the events per video (300 -> 600 -> 1,200 in the same time
    span, so twice the candidates *and* twice the partners) must grow the
    ``holds`` calls by less than 2.5x; the rescanning executor grew 4x.

    For ``intersects`` the endpoint ranges are sufficient as well as
    necessary but for a partner that merely touches (the ranges are
    closed), so the join calls ``holds`` about once per candidate with a
    partner. The span is short enough that most candidates have one: in a
    sparse video the *answers* — and with them that one call each — grow
    quadratically whatever the algorithm.
    """
    calls = []
    real_holds = query_module.holds

    def counting_holds(*args, **kwargs):
        calls.append(1)
        return real_holds(*args, **kwargs)

    monkeypatch.setattr(query_module, "holds", counting_holds)
    text = "RETRIEVE highlight FROM v0 WHERE INTERSECTS excited_speech"
    counts = []
    for events_per_video in (300, 600, 1200):
        kernel, store = dense_store(events_per_video, videos=1, span=150.0)
        calls.clear()
        got = QueryExecutor(store).execute(parse_coql(text))
        counts.append(len(calls))
        assert 0 < len(calls) <= 2 * len(store.events("v0", "highlight"))
        # the oracle calls its own import of holds, so it is not counted
        assert got == ReferenceExecutor(ReferenceStore(kernel)).execute(parse_coql(text))
    assert counts[1] < 2.5 * counts[0] and counts[2] < 2.5 * counts[1], counts


# ----------------------------------------------------------------------
# role conditions are set-at-a-time: the BAT probes of a query do not grow
# with its candidates
# ----------------------------------------------------------------------
ROLE_TEMPLATES = {
    "role": ("RETRIEVE pit_stop WHERE ROLE driver = HAKKINEN", "driver"),
    "position": ("RETRIEVE classification WHERE POSITION MONTOYA = 2", "p2"),
    "lap": ("RETRIEVE classification WHERE LAP = 2", "lap"),
    "temporal": (
        "RETRIEVE highlight WHERE INTERSECTS driver_mention WITH ROLE driver = HAKKINEN",
        "driver",
    ),
}
#: Probes a query makes whatever its size: the candidate list, one role map
#: per condition, the returned records' roles, and (temporal) the two-probe
#: partner list of each of the two videos.
FIXED_PROBES = 7


@pytest.mark.parametrize("template", sorted(ROLE_TEMPLATES))
def test_role_conditions_probe_per_condition_not_per_candidate(monkeypatch, template):
    """300 -> 600 -> 1,200 events per video doubles the candidates of a
    ``ROLE`` / ``POSITION`` / ``LAP`` / ``WITH ROLE`` condition and the
    records it returns; the BAT probes — single-value or batched, both go
    through ``BAT._probe`` — must stay the same number, bounded by the
    conditions plus the distinct ``(video, value)`` pairs of the role. The
    per-candidate executor probed the role BATs once or twice per candidate
    and once more per returned record."""
    text, role = ROLE_TEMPLATES[template]
    probes = []
    real_probe = BAT._probe

    def counting_probe(self, *args, **kwargs):
        probes.append(1)
        return real_probe(self, *args, **kwargs)

    monkeypatch.setattr(BAT, "_probe", counting_probe)
    counts = []
    for events_per_video in (300, 600, 1200):
        kernel, store = dense_store(events_per_video)
        probes.clear()
        got = QueryExecutor(store).execute(parse_coql(text))
        counts.append(len(probes))
        listing = ReferenceStore(kernel)
        assert got and got == ReferenceExecutor(listing).execute(parse_coql(text))
        pairs = {
            (record["video_id"], record["roles"][role])
            for record in listing.events()
            if role in record["roles"]
        }
        assert counts[-1] <= FIXED_PROBES + len(pairs), (counts, len(pairs))
    assert counts[0] == counts[1] == counts[2], counts


# ----------------------------------------------------------------------
# the existence probe keeps the listing floor: confidence >= 0, NaN listed
# ----------------------------------------------------------------------
floor_confidences = st.sampled_from((-0.5, -0.0, 0.0, 0.7, float("nan")))
floor_events = st.tuples(events, floor_confidences).map(
    lambda pair: (*pair[0][:3], pair[1], pair[0][4])
)
floor_corpora = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(OBJECT_IDS), st.sampled_from(LABELS)),
        st.lists(floor_events, max_size=20),
    ),
    min_size=1,
    max_size=len(VIDEOS),
)


@SETTINGS
@given(corpus=floor_corpora, late=st.tuples(st.integers(0, len(VIDEOS) - 1), floor_events))
def test_has_events_matches_the_reference_listing(corpus, late):
    kernel, store = memory_store(corpus)

    def check() -> None:
        listing = ReferenceStore(kernel)
        for video_id in (None, *VIDEOS):
            for kind in KINDS + ("overtake",):
                want = listing.has_events(video_id, kind)
                assert store.has_events(video_id, kind) == want, (video_id, kind)

    check()
    turn, spec = late
    video_id = VIDEOS[turn % len(corpus)]
    store.store_event(video_id, build_event(f"{video_id}/w", spec))
    check()  # the probes catch up to the appended row


@pytest.mark.parametrize(
    "confidence, listed", [(None, False), (-0.5, False), (float("nan"), True), (0.0, True)]
)
def test_preprocessor_refuses_a_video_without_a_listed_event_of_the_kind(confidence, listed):
    """A method-less domain cannot extract: a ``FROM ALL`` query over a
    video with no listed event of the kind stops in the preprocessor."""
    db = CobraVDBMS(threads=1, check="off")
    db.register_domain(DomainKnowledge("bare"))
    for video_id, kind, value in (("v0", "highlight", 0.8), ("v1", "fly_out", 0.8)):
        document = VideoDocument(
            raw=RawVideo(video_id, f"synthetic://{video_id}", 20.0, 10.0, 192, 144, 16000)
        )
        document.events["e0"] = VideoEvent("e0", kind, Interval(1.0, 2.0), value, {}, "dbn")
        if video_id == "v1" and confidence is not None:
            document.events["e1"] = VideoEvent(
                "e1", "highlight", Interval(3.0, 4.0), confidence, {}, "dbn"
            )
        db.register_document(document, "bare")
    assert len(db.query("RETRIEVE highlight FROM v0")) == 1
    if listed:
        records = db.query("RETRIEVE highlight").records
        assert [record["video_id"] for record in records] == ["v0", "v1"]
    else:
        with pytest.raises(UnknownConceptError, match="for video 'v1'"):
            db.query("RETRIEVE highlight")
