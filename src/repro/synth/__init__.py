"""Synthetic Formula 1 substrate: seeded race timelines, broadcast audio,
rendered video with overlays, and full ground-truth annotations — the
documented stand-in for the paper's three digitized 2001 Grands Prix."""

from repro.synth.annotations import GroundTruth, Interval, merge_intervals, raster
from repro.synth.audio_synth import RaceAudio, SoundtrackPlan, plan_soundtrack, synthesize_audio
from repro.synth.grandprix import (
    BELGIAN_GP,
    GERMAN_GP,
    USA_GP,
    SyntheticRace,
    synthesize_race,
)
from repro.synth.race import RaceEvent, RaceSpec, RaceTimeline, generate_timeline
from repro.synth.text_synth import draw_overlay
from repro.synth.video_synth import RaceVideoRenderer

__all__ = [
    "GroundTruth", "Interval", "merge_intervals", "raster",
    "RaceAudio", "SoundtrackPlan", "plan_soundtrack", "synthesize_audio",
    "BELGIAN_GP", "GERMAN_GP", "USA_GP", "SyntheticRace", "synthesize_race",
    "RaceEvent", "RaceSpec", "RaceTimeline", "generate_timeline",
    "draw_overlay",
    "RaceVideoRenderer",
]
