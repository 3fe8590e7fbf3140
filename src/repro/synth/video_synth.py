"""Video synthesis for a race timeline.

Renders the broadcast picture the paper's §5.3/§5.4 detectors consume:

* per-shot scene tones with hard cuts (shot-detection ground truth),
* moving track texture and car rectangles (motion / color difference),
* the start semaphore — a red rectangle widening in regular steps,
* passing manoeuvres — a car sweeping across the frame, with the sweep's
  visual strength controlled by the event's ``visibility`` (the German GP
  camera work vs the rest),
* fly-outs — dust and sand colored regions,
* replays bracketed by DVE wipes,
* superimposed text overlays.

Frames are a pure function of (timeline, frame index), so the stream can be
re-iterated without buffering the race. The renderer reads the timeline
once, at construction: the event windows each drawing step tests are
resolved there, not per frame.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import SynthesisError
from repro.synth.race import RaceTimeline
from repro.synth.text_synth import draw_overlay
from repro.video.flyout import DUST_RGB, SAND_RGB
from repro.video.frames import FrameStream

__all__ = ["RaceVideoRenderer"]

#: Length of each DVE wipe bracketing a replay, seconds.
DVE_SECONDS = 0.8


class RaceVideoRenderer:
    """Deterministic frame renderer for one race timeline."""

    def __init__(
        self,
        timeline: RaceTimeline,
        height: int = 144,
        width: int = 192,
        fps: float = 10.0,
        noise: int = 12,
    ):
        self.timeline = timeline
        self.height = height
        self.width = width
        self.fps = fps
        self.noise = noise
        self.n_frames = int(timeline.duration * fps)
        self._cuts = sorted(timeline.shot_cuts)
        seed = timeline.spec.seed + 2
        shot_count = len(self._cuts) + 1
        shot_rng = np.random.default_rng(seed)
        self._shot_tones = shot_rng.integers(60, 150, size=(shot_count, 3))
        self._shot_speeds = shot_rng.uniform(25.0, 60.0, size=shot_count)
        # A fifth of all shots are steady-cam (helicopter / long lens):
        # low background motion without any passing going on — the decoy
        # that makes the German-trained passing sub-network misfire on the
        # other races (Table 4).
        steady = shot_rng.random(shot_count) < 0.2
        self._shot_speeds[steady] *= 0.08
        self._car_colors = shot_rng.integers(120, 255, size=(shot_count, 2, 3))
        # The windows the drawing steps test, resolved once.
        self._starts = [e for e in timeline.events if e.kind == "start"]
        self._passings = [e for e in timeline.events if e.kind == "passing"]
        self._fly_outs = [e for e in timeline.events if e.kind == "fly_out"]
        self._replays = [(i.start, i.end) for i, _ in timeline.replays]
        self._wipes = [
            (anchor - DVE_SECONDS, anchor, direction)
            for start, end in self._replays
            for anchor, direction in ((start, 1), (end, -1))
        ]
        self._overlays = list(timeline.overlays)
        # (shot, upper half, lower-half stripe strip) of the shot being
        # rendered: one shot at a time, never the whole race.
        self._shot_background: tuple[int, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def stream(self) -> FrameStream:
        return FrameStream(
            lambda: (self.frame(i) for i in range(self.n_frames)),
            self.fps,
            self.n_frames,
            self.height,
            self.width,
        )

    def frame(self, index: int) -> np.ndarray:
        """Render frame ``index`` (pure function of the timeline).

        The per-frame generator feeds the sensor jitter and nothing else:
        one ``integers`` draw of the frame's shape, which is what pins the
        pixels of a seeded race.
        """
        if not 0 <= index < self.n_frames:
            raise SynthesisError(
                f"frame {index} is outside the race's {self.n_frames} frames"
            )
        t = index / self.fps
        shot = bisect.bisect_right(self._cuts, t)
        shot_start = self._cuts[shot - 1] if shot > 0 else 0.0

        frame = self._background(t, shot, shot_start)
        self._draw_cars(frame, t, shot, shot_start)
        self._draw_passing(frame, t)
        self._draw_fly_out(frame, t)
        self._draw_semaphore(frame, t)
        self._apply_replay_tone(frame, t)
        self._apply_dve(frame, t)
        self._draw_overlays(frame, t)

        if self.noise:
            rng = np.random.default_rng(
                (self.timeline.spec.seed + 3) * 1_000_003 + index
            )
            jitter = rng.integers(-self.noise, self.noise + 1, frame.shape)
            frame += jitter.astype(np.int16)
            np.clip(frame, 0, 255, out=frame)
        return frame.astype(np.uint8)

    # ------------------------------------------------------------------
    def _background(self, t: float, shot: int, shot_start: float) -> np.ndarray:
        """A fresh int16 frame: the shot's tone, sky band and track stripes.

        Sky band (top fifth) and stripes (lower half) never overlap, so the
        clipped tones of both are fixed per shot. The stripes repeat every
        28 columns and only slide: the lower half of any frame of the shot
        is a window into one strip that is 28 columns wider than the frame.
        """
        half = self.height // 2
        cached = self._shot_background
        if cached is None or cached[0] != shot:
            tone = self._shot_tones[shot]
            top = np.empty((half, self.width, 3), dtype=np.int16)
            top[:] = tone
            top[: self.height // 5] += 35
            np.clip(top, 0, 255, out=top)
            strip = np.empty((self.height - half, self.width + 28, 3), dtype=np.int16)
            strip[:] = tone
            strip[:, np.arange(self.width + 28) // 14 % 2 == 0] -= 25
            np.clip(strip, 0, 255, out=strip)
            cached = self._shot_background = (shot, top, strip)
        _, top, strip = cached
        speed = self._shot_speeds[shot] * self._motion_boost(t)
        offset = int((t - shot_start) * speed) % 28
        frame = np.empty((self.height, self.width, 3), dtype=np.int16)
        frame[:half] = top
        frame[half:] = strip[:, offset : offset + self.width]
        return frame

    def _motion_boost(self, t: float) -> float:
        if any(_during(event, t) for event in self._starts):
            return 3.0
        # During a well-covered passing the camera tracks the duel, so the
        # background is nearly static and the overtaking car's sweep
        # dominates the motion histogram — the German GP camera work.
        for event in self._passings:
            if _during(event, t):
                return float(1.0 - 0.92 * event.visibility)
        return 1.0

    def _draw_cars(
        self, frame: np.ndarray, t: float, shot: int, shot_start: float
    ) -> None:
        # The broadcast camera pans WITH the cars: in-frame they only drift
        # and bob slightly while the background streams past. A genuine
        # sweep across the frame therefore only happens when one car
        # overtakes another (and the director holds the shot).
        h, w = self.height, self.width
        for lane in range(2):
            color = self._car_colors[shot, lane]
            base = int((shot * 53 + lane * 71) % (w - 40))
            drift = 9.0 * np.sin(2 * np.pi * 0.35 * (t - shot_start) + lane)
            x = int(base + drift)
            y = int(h * (0.55 + 0.18 * lane))
            self._rect(frame, y, y + 10, x, x + 22, color)

    def _draw_passing(self, frame: np.ndarray, t: float) -> None:
        for event in self._passings:
            if not _during(event, t):
                continue
            progress = (t - event.time) / event.duration
            visibility = event.visibility
            # weak camera work: the overtaking car is small and barely sweeps
            width = int(10 + 20 * visibility)
            height = int(8 + 8 * visibility)
            sweep = 0.15 + 0.85 * visibility
            x = int(self.width * (0.02 + sweep * progress * 0.95))
            y = int(self.height * 0.58)
            self._rect(
                frame, y, y + height, x, x + width, np.array([235, 220, 40])
            )

    def _draw_fly_out(self, frame: np.ndarray, t: float) -> None:
        for event in self._fly_outs:
            if not _during(event, t):
                continue
            progress = (t - event.time) / event.duration
            intensity = np.sin(np.pi * min(progress * 1.4, 1.0))
            h, w = self.height, self.width
            # sand: gravel trap filling the lower third
            sand_rows = slice(int(h * 0.65), h)
            sand_cols = slice(int(w * 0.1), int(w * (0.3 + 0.5 * intensity)))
            self._blend(frame, sand_rows, sand_cols, SAND_RGB, 0.9)
            # dust cloud: center-right haze
            dust_rows = slice(int(h * 0.25), int(h * 0.7))
            dust_cols = slice(int(w * 0.4), int(w * (0.55 + 0.4 * intensity)))
            self._blend(frame, dust_rows, dust_cols, DUST_RGB, 0.6 * intensity + 0.3)

    def _draw_semaphore(self, frame: np.ndarray, t: float) -> None:
        for event in self._starts:
            lead = event.time - t
            if not 0.0 < lead <= 6.0:
                continue
            # one more light column every second: widening red rectangle
            lights = int(np.ceil(6.0 - lead))
            width = 8 * max(lights, 1)
            x0 = self.width // 2 - width // 2
            self._rect(
                frame, 8, 18, x0, x0 + width, np.array([225, 25, 25])
            )

    def _apply_replay_tone(self, frame: np.ndarray, t: float) -> None:
        if any(start <= t < end for start, end in self._replays):
            frame += 30
            np.clip(frame, 0, 255, out=frame)

    def _apply_dve(self, frame: np.ndarray, t: float) -> None:
        for begin, anchor, direction in self._wipes:
            if begin <= t < anchor:
                progress = (t - begin) / DVE_SECONDS
                if direction < 0:
                    progress = 1.0 - progress
                edge = int(self.width * progress)
                frame[:, :edge] = np.clip(frame[:, :edge] + 90, 0, 255)
                return

    def _draw_overlays(self, frame: np.ndarray, t: float) -> None:
        for interval, words in self._overlays:
            if interval.start <= t < interval.end:
                draw_overlay(frame, words)
                return

    # ------------------------------------------------------------------
    @staticmethod
    def _rect(
        frame: np.ndarray, top: int, bottom: int, left: int, right: int, color
    ) -> None:
        h, w = frame.shape[:2]
        top, bottom = max(top, 0), min(bottom, h)
        left, right = max(left, 0), min(right, w)
        if top < bottom and left < right:
            frame[top:bottom, left:right] = color

    @staticmethod
    def _blend(frame: np.ndarray, rows: slice, cols: slice, color, alpha: float) -> None:
        region = frame[rows, cols].astype(np.float64)
        target = np.array(color, dtype=np.float64)
        frame[rows, cols] = (
            (1 - alpha) * region + alpha * target
        ).astype(np.int16)


def _during(event, t: float) -> bool:
    return event.time <= t < event.time + event.duration
