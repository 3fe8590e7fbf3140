"""Ground-truth annotations for synthetic races.

The paper evaluates against manual annotations of the three digitized
Grands Prix. The synthetic races carry their annotations by construction:
time intervals per concept, with helpers to rasterize them onto the 10 Hz
evidence grid and to match detected segments against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import SynthesisError

__all__ = ["Interval", "GroundTruth", "raster", "merge_intervals"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed-open time interval [start, end) in seconds, with a label."""

    start: float
    end: float
    label: str = ""

    def __init__(self, start: float, end: float, label: str = "") -> None:
        # written out rather than generated, through the slots' own setters
        # (the frozen __setattr__ refuses): a query builds one per record
        if end <= start:
            raise SynthesisError(f"empty interval [{start}, {end})")
        _set_start(self, start)
        _set_end(self, end)
        _set_label(self, label)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def overlap_seconds(self, other: "Interval") -> float:
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))


_set_start, _set_end, _set_label = (
    Interval.start.__set__,  # type: ignore[attr-defined]
    Interval.end.__set__,  # type: ignore[attr-defined]
    Interval.label.__set__,  # type: ignore[attr-defined]
)


def merge_intervals(intervals: Iterable[Interval], gap: float = 0.0) -> list[Interval]:
    """Union of intervals, merging any closer than ``gap`` seconds."""
    ordered = sorted(intervals, key=lambda i: i.start)
    out: list[Interval] = []
    for interval in ordered:
        if out and interval.start - out[-1].end <= gap:
            last = out.pop()
            out.append(
                Interval(last.start, max(last.end, interval.end), last.label)
            )
        else:
            out.append(interval)
    return out


def raster(
    intervals: Iterable[Interval], n_steps: int, step_seconds: float = 0.1
) -> np.ndarray:
    """Rasterize intervals onto a uniform grid: 1.0 inside, 0.0 outside."""
    out = np.zeros(n_steps)
    for interval in intervals:
        lo = max(int(interval.start / step_seconds), 0)
        hi = min(int(np.ceil(interval.end / step_seconds)), n_steps)
        if lo < hi:
            out[lo:hi] = 1.0
    return out


@dataclass
class GroundTruth:
    """All annotation tracks of one synthetic race.

    Attributes:
        duration: race length in seconds.
        excited_speech: intervals where the announcer is genuinely excited.
        highlights: the "interesting segments" (start, passings, fly-outs,
            and their replays).
        starts / fly_outs / passings / pit_stops / replays: per-concept
            intervals (labels carry driver names where applicable).
        overlays: (interval, words) pairs of superimposed text.
        shot_cuts: frame times (seconds) of hard cuts.
    """

    duration: float
    excited_speech: list[Interval] = field(default_factory=list)
    highlights: list[Interval] = field(default_factory=list)
    starts: list[Interval] = field(default_factory=list)
    fly_outs: list[Interval] = field(default_factory=list)
    passings: list[Interval] = field(default_factory=list)
    pit_stops: list[Interval] = field(default_factory=list)
    replays: list[Interval] = field(default_factory=list)
    overlays: list[tuple[Interval, list[str]]] = field(default_factory=list)
    shot_cuts: list[float] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[Interval]:
        table = {
            "excited_speech": self.excited_speech,
            "highlight": self.highlights,
            "start": self.starts,
            "fly_out": self.fly_outs,
            "passing": self.passings,
            "pit_stop": self.pit_stops,
            "replay": self.replays,
        }
        if kind not in table:
            raise SynthesisError(f"unknown annotation kind {kind!r}")
        return table[kind]
