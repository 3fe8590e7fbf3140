"""The Cobra video data model (§2).

"The model is in line with the latest development in MPEG-7, distinguishing
four distinct layers within video content: the raw data, the feature, the
object and the event layer. The object and event layers are concept layers
consisting of entities characterized by prominent spatial and temporal
dimensions respectively."

A :class:`VideoDocument` binds the four layers for one video. The layers
are storage-agnostic descriptions; :mod:`repro.cobra.metadata` persists
them into kernel BATs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import CobraError
from repro.synth.annotations import Interval

__all__ = [
    "RawVideo",
    "FeatureTrack",
    "VideoObject",
    "VideoEvent",
    "VideoDocument",
]


@dataclass(frozen=True)
class RawVideo:
    """Raw-data layer: a reference to the underlying media.

    The reproduction's media are synthetic, so the locator names the
    generator spec instead of a file path; everything else (frame rate,
    duration, resolution) is real metadata.
    """

    video_id: str
    locator: str
    duration: float
    fps: float
    width: int
    height: int
    audio_sample_rate: int

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.fps <= 0:
            raise CobraError("raw video needs positive duration and fps")


@dataclass
class FeatureTrack:
    """Feature layer: one named per-step stream (10 Hz, values in [0, 1])."""

    name: str
    values: np.ndarray
    step_seconds: float = 0.1

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise CobraError(f"feature track {self.name!r} must be 1-D")


@dataclass
class VideoObject:
    """Object layer: an entity with prominent *spatial* dimension.

    Attributes:
        object_id: unique within the document.
        category: "driver", "car", "semaphore", ...
        label: display name ("SCHUMACHER").
        appearances: intervals in which the object is on screen / active.
        properties: free-form attributes (team, car color, ...).
    """

    object_id: str
    category: str
    label: str
    appearances: list[Interval] = field(default_factory=list)
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class VideoEvent:
    """Event layer: an entity with prominent *temporal* dimension.

    Attributes:
        event_id: unique within the document.
        kind: "highlight", "start", "fly_out", "passing", "pit_stop",
            "excited_speech", "replay", "overlay", or user-defined.
        interval: when the event happens.
        confidence: posterior from the extraction method (1.0 = certain /
            manually annotated).
        roles: role name -> object_id ("driver" -> "obj3").
        source: which extractor produced it ("dbn", "text", "rule", ...).
    """

    event_id: str
    kind: str
    interval: Interval
    confidence: float = 1.0
    roles: dict[str, str] = field(default_factory=dict)
    source: str = "annotation"


@dataclass
class VideoDocument:
    """All four Cobra layers of one video."""

    raw: RawVideo
    features: dict[str, FeatureTrack] = field(default_factory=dict)
    objects: dict[str, VideoObject] = field(default_factory=dict)
    events: dict[str, VideoEvent] = field(default_factory=dict)
    _event_counter: int = 0

    # ------------------------------------------------------------------
    def add_feature(self, track: FeatureTrack) -> None:
        if track.name in self.features:
            raise CobraError(f"feature track {track.name!r} already present")
        self.features[track.name] = track

    def add_object(self, video_object: VideoObject) -> None:
        if video_object.object_id in self.objects:
            raise CobraError(f"object {video_object.object_id!r} already present")
        self.objects[video_object.object_id] = video_object

    def new_event(
        self,
        kind: str,
        interval: Interval,
        confidence: float = 1.0,
        roles: dict[str, str] | None = None,
        source: str = "annotation",
    ) -> VideoEvent:
        """Create, register and return a new event with a fresh id."""
        event_id = f"{self.raw.video_id}/e{self._event_counter}"
        self._event_counter += 1
        event = VideoEvent(
            event_id, kind, interval, confidence, dict(roles or {}), source
        )
        self.events[event_id] = event
        return event

    # ------------------------------------------------------------------
    def object_by_label(self, label: str) -> VideoObject:
        for video_object in self.objects.values():
            if video_object.label == label:
                return video_object
        raise CobraError(f"no object labelled {label!r}")

    def has_feature(self, name: str) -> bool:
        return name in self.features

    def has_events(self, kind: str) -> bool:
        return any(e.kind == kind for e in self.events.values())
