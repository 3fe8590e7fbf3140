"""Seeded inputs and the answer oracle.

The generator keeps its own plain-Python copy of everything it hands the
program (:class:`Oracle`), and answers each query template from that copy
— role → label resolution and the Allen ``intersects`` test included —
without calling into ``repro``. Only :func:`to_document` / :func:`to_event`
touch ``repro`` types, at the boundary where inputs are handed over.
"""

from __future__ import annotations

import random

from sizes import TEMPLATE_BLOCK

KINDS = (
    "highlight",
    "excited_speech",
    "fly_out",
    "pit_stop",
    "driver_mention",
    "classification",
)
DRIVERS = ("SCHUMACHER", "BARRICHELLO", "HAKKINEN", "COULTHARD", "MONTOYA", "RALF")
DOMAIN = "bench"
VIDEO_SECONDS = 3000.0
LAPS = 20


def rng_for(seed: int, *purpose) -> random.Random:
    """An independent stream per purpose; str seeds hash reproducibly."""
    return random.Random(":".join(str(part) for part in (seed, *purpose)))


def make_event(rng: random.Random, video: str, event_id: str, kind: str) -> dict:
    start = round(rng.uniform(0.0, VIDEO_SECONDS - 10.0), 3)
    roles: dict[str, str] = {}
    if kind in ("pit_stop", "driver_mention"):
        roles["driver"] = f"{video}/driver{rng.randrange(len(DRIVERS))}"
    elif kind == "classification":
        podium = rng.sample(range(len(DRIVERS)), 3)
        for place, driver in enumerate(podium, 1):
            roles[f"p{place}"] = f"{video}/driver{driver}"
        roles["lap"] = str(rng.randrange(1, LAPS + 1))
    return {
        "event_id": event_id,
        "video": video,
        "kind": kind,
        "start": start,
        "end": round(start + rng.uniform(1.0, 9.0), 3),
        "confidence": round(rng.uniform(0.3, 1.0), 3),
        "roles": roles,
        "source": "dbn",
    }


def make_document(rng: random.Random, video: str, n_events: int) -> dict:
    """One document: six driver objects, every kind present (kinds cycle)."""
    return {
        "video": video,
        "objects": [
            (f"{video}/driver{index}", "driver", label)
            for index, label in enumerate(DRIVERS)
        ],
        "events": [
            make_event(rng, video, f"{video}/e{index}", KINDS[index % len(KINDS)])
            for index in range(n_events)
        ],
    }


def make_corpus(seed: int, documents: int, events: int) -> list[dict]:
    rng = rng_for(seed, "corpus")
    return [make_document(rng, f"v{index}", events) for index in range(documents)]


def user_bytes(document: dict) -> int:
    """Bytes the user handed over: UTF-8 of every field plus 8 per float."""
    video = len(document["video"].encode())
    total = 0
    for object_id, category, label in document["objects"]:
        total += len(object_id.encode()) + video + len(category.encode()) + len(label.encode())
    for event in document["events"]:
        total += len(event["event_id"].encode()) + video
        total += len(event["kind"].encode()) + len(event["source"].encode()) + 3 * 8
        for role, value in event["roles"].items():
            total += len(role.encode()) + len(value.encode())
    return total


# ----------------------------------------------------------------------
# hand-over to the program
# ----------------------------------------------------------------------
def to_event(event: dict):
    from repro.cobra.model import VideoEvent
    from repro.synth.annotations import Interval

    return VideoEvent(
        event["event_id"],
        event["kind"],
        Interval(event["start"], event["end"]),
        event["confidence"],
        dict(event["roles"]),
        event["source"],
    )


def to_document(document: dict):
    from repro.cobra.model import RawVideo, VideoDocument, VideoObject

    video = document["video"]
    out = VideoDocument(
        raw=RawVideo(video, f"synthetic://{video}", VIDEO_SECONDS, 10.0, 192, 144, 16000)
    )
    for object_id, category, label in document["objects"]:
        out.add_object(VideoObject(object_id, category, label))
    for event in document["events"]:
        out.events[event["event_id"]] = to_event(event)
    return out


def stored_form(record: dict) -> tuple:
    """An event — the generator's, or a metadata record read back — in the
    form the restart check compares."""
    return (
        record["event_id"],
        record["kind"],
        record["start"],
        record["end"],
        record["confidence"],
        record["source"],
        tuple(sorted(record["roles"].items())),
    )


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
class Oracle:
    """Expected answers, from the generator's own event list."""

    def __init__(self, documents: list[dict]) -> None:
        self.videos: list[str] = []
        self.events: list[dict] = []
        self.labels: dict[str, str] = {}
        for document in documents:
            self.add_document(document)

    def add_document(self, document: dict) -> None:
        self.videos.append(document["video"])
        for object_id, _, label in document["objects"]:
            self.labels[object_id] = label
        self.events.extend(document["events"])

    def add_event(self, event: dict) -> None:
        self.events.append(event)

    def _of(self, kind: str, video: str | None = None) -> list[dict]:
        return [
            e
            for e in self.events
            if e["kind"] == kind and (video is None or e["video"] == video)
        ]

    def _label(self, event: dict, role: str) -> str | None:
        value = event["roles"].get(role)
        return self.labels.get(value, value)

    def answer(self, template: str, p: dict) -> list[str]:
        """Sorted event ids the query built from ``(template, p)`` returns."""
        if template == "point":
            hits = self._of(p["kind"], p["video"])
        elif template == "conf":
            hits = [e for e in self._of(p["kind"]) if e["confidence"] >= p["minimum"]]
        elif template == "role":
            hits = [e for e in self._of(p["kind"]) if self._label(e, "driver") == p["label"]]
        elif template == "position":
            role = f"p{p['position']}"
            hits = [
                e
                for e in self._of("classification", p["video"])
                if self._label(e, role) == p["label"]
            ]
        elif template == "lap":
            hits = [
                e
                for e in self._of("classification")
                if e["roles"].get("lap") == str(p["lap"])
            ]
        elif template == "temporal":
            others = self._of("excited_speech", p["video"])
            hits = [
                e
                for e in self._of("highlight", p["video"])
                if any(e["start"] < o["end"] and o["start"] < e["end"] for o in others)
            ]
        else:
            raise ValueError(f"unknown template {template!r}")
        return sorted(e["event_id"] for e in hits)


def coql(template: str, p: dict) -> str:
    if template == "point":
        return f"RETRIEVE {p['kind']} FROM {p['video']}"
    if template == "conf":
        return f"RETRIEVE {p['kind']} WHERE CONFIDENCE >= {p['minimum']:.2f}"
    if template == "role":
        return f"RETRIEVE {p['kind']} WHERE ROLE driver = {p['label']}"
    if template == "position":
        return (
            f"RETRIEVE classification FROM {p['video']} "
            f"WHERE POSITION {p['label']} = {p['position']}"
        )
    if template == "lap":
        return f"RETRIEVE classification WHERE LAP = {p['lap']}"
    if template == "temporal":
        return f"RETRIEVE highlight FROM {p['video']} WHERE INTERSECTS excited_speech"
    raise ValueError(f"unknown template {template!r}")


def draw_params(rng: random.Random, template: str, video: str) -> dict:
    """Parameters varied per query. ``video`` is the caller's round-robin
    turn for this template: which document a query names decides what it
    costs (its shard, its size), so every document is asked equally often
    instead of by lot."""
    if template == "point":
        return {"kind": rng.choice(KINDS), "video": video}
    if template == "conf":
        return {
            "kind": rng.choice(("highlight", "excited_speech", "fly_out")),
            "minimum": rng.randrange(50, 100, 5) / 100,
        }
    if template == "role":
        return {
            "kind": rng.choice(("pit_stop", "driver_mention")),
            "label": rng.choice(DRIVERS),
        }
    if template == "position":
        return {"video": video, "label": rng.choice(DRIVERS), "position": rng.randrange(1, 4)}
    if template == "lap":
        return {"lap": rng.randrange(1, LAPS + 1)}
    return {"video": video}


def template_stream(rng: random.Random, count: int) -> list[str]:
    """``count`` templates drawn as shuffled copies of the block: shares are
    exact whenever ``count`` is a whole number of blocks."""
    out: list[str] = []
    while len(out) < count:
        out.extend(rng.sample(TEMPLATE_BLOCK, len(TEMPLATE_BLOCK)))
    return out[:count]


def interleave(many: list, few: list) -> list:
    """``few`` spread evenly through ``many``, order kept on both sides, so
    that what a stream costs does not depend on where a shuffle happened to
    put its expensive ops."""
    out, placed = [], 0
    for index, item in enumerate(many, 1):
        out.append(item)
        due = index * len(few) // len(many)
        out.extend(few[placed:due])
        placed = due
    return out
