"""Grand Prix presets and the full synthetic-race bundle.

The paper digitized "three Formula 1 races of the 2001 season, namely, the
German, Belgian, and USA Grand Prix". The presets encode their
experimentally relevant differences:

* **German GP** — "a different camera work" makes passing manoeuvres
  visually trackable (high ``passing_visibility``); the passing sub-network
  works here and only here.
* **Belgian GP** — ordinary camera work (low passing visibility), several
  fly-outs.
* **USA GP** — "there were no fly-outs in the USA Grand Prix"; low passing
  visibility.

Race durations default to 600 s rather than the 90-minute broadcasts so a
full evaluation runs on a laptop; every rate-dependent algorithm sees
exactly the same 10 Hz evidence cadence the paper uses.

A :class:`SyntheticRace` holds the broadcast as recipes, not buffers: the
frames are rendered from the timeline as the stream is read, and the
soundtrack from its plan when ``race.signal`` is read (only audio the
fault injector corrupted is held, since it cannot be rendered again).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.audio.signal import AudioSignal
from repro.faults import resolve_injector
from repro.synth.annotations import GroundTruth
from repro.synth.audio_synth import SoundtrackPlan, plan_soundtrack, synthesize_audio
from repro.synth.race import RaceSpec, RaceTimeline, generate_timeline
from repro.synth.video_synth import RaceVideoRenderer
from repro.video.frames import FrameStream

__all__ = [
    "GERMAN_GP",
    "BELGIAN_GP",
    "USA_GP",
    "SyntheticRace",
    "synthesize_race",
]

GERMAN_GP = RaceSpec(
    name="german",
    duration=600.0,
    n_passings=7,
    n_fly_outs=3,
    n_pit_stops=4,
    passing_visibility=0.9,
    excitement_reaction=0.6,
    spurious_excitement=4.0,
    seed=2001_07,
)

BELGIAN_GP = RaceSpec(
    name="belgian",
    duration=600.0,
    n_passings=6,
    n_fly_outs=4,
    n_pit_stops=4,
    passing_visibility=0.3,
    excitement_reaction=0.55,
    spurious_excitement=3.0,
    seed=2001_09,
)

USA_GP = RaceSpec(
    name="usa",
    duration=600.0,
    n_passings=6,
    n_fly_outs=0,
    n_pit_stops=4,
    passing_visibility=0.3,
    excitement_reaction=0.55,
    spurious_excitement=3.0,
    seed=2001_10,
)


@dataclass
class SyntheticRace:
    """Everything one digitized race provides to the pipeline.

    Neither the picture nor the soundtrack is held: ``video`` renders
    frames from the timeline as they are read, and :attr:`signal` renders
    the samples from ``audio``, the soundtrack's plan, when asked.
    """

    spec: RaceSpec
    timeline: RaceTimeline
    audio: SoundtrackPlan
    video: FrameStream
    truth: GroundTruth
    #: Samples the fault injector corrupted: they cannot be rendered again,
    #: so they are held.
    corrupted_signal: AudioSignal | None = None
    _rendered: weakref.ref | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def duration(self) -> float:
        return self.spec.duration

    @property
    def signal(self) -> AudioSignal:
        """The soundtrack: the same object while anyone holds it, rendered
        again (the same samples) once nobody does."""
        if self.corrupted_signal is not None:
            return self.corrupted_signal
        signal = self._rendered() if self._rendered is not None else None
        if signal is None:
            signal = synthesize_audio(self.audio).signal
            self._rendered = weakref.ref(signal)
        return signal


def synthesize_race(
    spec: RaceSpec,
    sample_rate: int = 16000,
    frame_height: int = 144,
    frame_width: int = 192,
    fps: float = 10.0,
    faults=None,
) -> SyntheticRace:
    """Generate one complete synthetic Grand Prix (seeded by the spec).

    ``faults`` (an injector, a plan, or None for the global injector)
    degrades the *broadcast material* while leaving the ground truth
    clean: audio dropouts (site ``synth.audio``), lost/frozen frames
    (``synth.video``), and garbled overlay text (``synth.text``) — the
    messy inputs a robust extraction chain has to survive.
    """
    injector = resolve_injector(faults)
    timeline = generate_timeline(spec)
    # Truth reflects what happened on track, not what survived broadcast —
    # capture it before any corruption touches the timeline.
    truth = timeline.ground_truth()
    if injector.enabled:
        timeline.overlays = [
            (interval, [injector.corrupt_text("synth.text", word) for word in words])
            for interval, words in timeline.overlays
        ]
    audio = plan_soundtrack(timeline, sample_rate=sample_rate)
    corrupted = None
    if injector.targets("synth.audio"):
        # rendering the whole soundtrack only pays when a spec may corrupt it
        signal = synthesize_audio(audio).signal
        samples = injector.corrupt_array("synth.audio", signal.samples)
        if samples is not signal.samples:
            corrupted = AudioSignal(np.clip(samples, -1.0, 1.0), signal.sample_rate)
    renderer = RaceVideoRenderer(
        timeline, height=frame_height, width=frame_width, fps=fps
    )
    video = renderer.stream()
    if injector.enabled:
        mask = injector.frame_loss_mask("synth.video", video.n_frames)
        if mask is not None:
            video = _with_frame_loss(video, mask)
    return SyntheticRace(
        spec=spec,
        timeline=timeline,
        audio=audio,
        video=video,
        truth=truth,
        corrupted_signal=corrupted,
    )


def _with_frame_loss(stream: FrameStream, mask: np.ndarray) -> FrameStream:
    """Freeze lost frames to their predecessor (broadcast-style glitching)."""

    def source():
        last = None
        for index, frame in enumerate(stream):
            if mask[index] and last is not None:
                yield last
            else:
                last = frame
                yield frame

    return FrameStream(source, stream.fps, stream.n_frames, stream.height, stream.width)
