"""Assembly of the full f1..f17 evidence block (§5.5).

"The features we extracted from a Formula 1 video are: keywords (f1),
pause rate (f2), average values of short time energy (f3), dynamic range of
short time energy (f4), maximum values of short time energy (f5), average
values of pitch (f6), dynamic range of pitch (f7), maximum values of pitch
(f8), average values of MFCCs (f9), maximum values of MFCCs (f10), part of
the race (f11), replay (f12), color difference (f13), semaphore (f14),
dust (f15), sand (f16), and motion (f17)."

"Feature values ... are represented as probabilistic values in range from
zero to one. Since the parameters are calculated for each 0.1 s, the length
of feature vectors is ten times longer than the duration of the video
measured in seconds."

Extraction is also where whole modalities die on real material — a muted
audio track, an undecodable video stream. ``extract_feature_set`` therefore
runs each modality chain under a fault hook and, in ``degrade`` mode,
records what was lost on the returned :class:`FeatureSet` instead of
aborting: downstream fusion masks the missing evidence nodes and answers
from the surviving modalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.audio.excitement import extract_excitement_features
from repro.audio.keywords import (
    TV_NEWS_MODEL,
    AcousticModel,
    KeywordHit,
    KeywordSpotter,
    keyword_stream,
)
from repro.errors import SignalError
from repro.faults import resolve_injector
from repro.resilience import FailureReport
from repro.synth.grandprix import SyntheticRace
from repro.text.pipeline import TextScan
from repro.video.features import extract_visual_features

__all__ = [
    "FeatureSet",
    "ALL_FEATURE_NAMES",
    "AUDIO_FEATURES",
    "VISUAL_FEATURES",
    "MODALITY_OF_FEATURE",
    "extract_feature_set",
]

AUDIO_FEATURES = tuple(f"f{i}" for i in range(1, 11))
VISUAL_FEATURES = tuple(f"f{i}" for i in range(11, 18))
ALL_FEATURE_NAMES = AUDIO_FEATURES + VISUAL_FEATURES

#: Which acquisition chain produces each stream — f1 rides the audio track
#: but is a *text* modality (keyword spotting), f2-f10 are the excited-speech
#: block, f11-f17 (plus the auxiliary passing/dve streams) are visual.
MODALITY_OF_FEATURE: dict[str, str] = {
    "f1": "text",
    **{f"f{i}": "audio" for i in range(2, 11)},
    **{f"f{i}": "visual" for i in range(11, 18)},
    "passing": "visual",
    "dve": "visual",
}


@dataclass
class FeatureSet:
    """All evidence streams of one race at 10 Hz, each in [0, 1].

    Attributes:
        race_name: source race.
        streams: "f1".."f17" (plus auxiliary "passing", "dve") -> (n,).
        keyword_hits: the raw keyword-spotter output (f1's source).
        dropped: stream name -> reason, for streams that could not be
            extracted (modality failure or injected loss).
        failures: structured records of the faults behind the drops.
        text_scan: the text detector's scan of the frames, taken during the
            visual pass so that ingest need not decode them again; None when
            that pass did not complete (or the set was built by hand).
    """

    race_name: str
    streams: dict[str, np.ndarray]
    keyword_hits: list[KeywordHit] = field(default_factory=list)
    dropped: dict[str, str] = field(default_factory=dict)
    failures: list[FailureReport] = field(default_factory=list)
    text_scan: TextScan | None = None

    @property
    def n_steps(self) -> int:
        return next(iter(self.streams.values())).shape[0]

    @property
    def degraded(self) -> bool:
        return bool(self.dropped)

    def missing_modalities(self) -> list[str]:
        """Modalities with no surviving stream at all."""
        alive = {MODALITY_OF_FEATURE.get(name) for name in self.streams}
        lost = {
            MODALITY_OF_FEATURE.get(name, "unknown") for name in self.dropped
        }
        return sorted(lost - alive)

    def stream(self, name: str) -> np.ndarray:
        if name not in self.streams:
            if name in self.dropped:
                raise SignalError(
                    f"feature stream {name!r} was dropped: {self.dropped[name]}"
                )
            raise SignalError(f"no feature stream {name!r}")
        return self.streams[name]

    def matrix(self, names: tuple[str, ...] = ALL_FEATURE_NAMES) -> np.ndarray:
        return np.stack([self.stream(n) for n in names], axis=1)


def extract_feature_set(
    race: SyntheticRace,
    acoustic_model: AcousticModel = TV_NEWS_MODEL,
    spotter: KeywordSpotter | None = None,
    lattice_seed: int = 17,
    faults=None,
    on_error: str = "raise",
) -> FeatureSet:
    """Run the complete §5.2-§5.4 extraction chain on one race.

    The audio chain (endpoint detection, excited-speech features, keyword
    spotting) and the visual chain (shot/DVE/semaphore/dust/sand/motion)
    produce streams that are truncated to a common length. The visual chain
    is the one pass over the race's frames: the text detector's scan
    observes its chunks and is returned on ``FeatureSet.text_scan``.

    With ``on_error="degrade"`` a failing modality chain is dropped and
    recorded on ``FeatureSet.dropped`` / ``FeatureSet.failures`` instead of
    raising; per-stream ``drop``/``corrupt`` faults from ``faults`` (or the
    global injector) are applied at site ``extract.stream:<name>``.
    """
    if on_error not in ("raise", "degrade"):
        raise SignalError(
            f"on_error must be 'raise' or 'degrade', got {on_error!r}"
        )
    injector = resolve_injector(faults)
    n_target = int(race.duration * 10)
    dropped: dict[str, str] = {}
    failures: list[FailureReport] = []

    def chain(site, names, fn):
        """Run one modality chain; on degrade-mode failure drop its streams."""
        try:
            injector.on_call(site)
            return fn()
        except Exception as exc:  # noqa: BLE001 - policy decides
            if on_error != "degrade":
                raise
            reason = f"{type(exc).__name__}: {exc}"
            for name in names:
                dropped[name] = reason
            failures.append(
                FailureReport.from_exception(
                    site, exc, action="dropped", detail=f"streams {list(names)}"
                )
            )
            return None

    def spot_keywords():
        engine = spotter or KeywordSpotter()
        rng = np.random.default_rng(lattice_seed + race.spec.seed)
        lattice = acoustic_model.decode(race.audio.phone_slots, rng)
        found = engine.spot(lattice)
        return found, keyword_stream(found, n_target)

    audio_features = chain(
        "extract.audio",
        AUDIO_FEATURES[1:],
        lambda: extract_excitement_features(race.signal),
    )
    text_scan = TextScan(race.video.fps)
    visual_features = chain(
        "extract.visual",
        VISUAL_FEATURES + ("passing", "dve"),
        lambda: extract_visual_features(race.video, observer=text_scan.observe),
    )
    keywords = chain("extract.keywords", ("f1",), spot_keywords)

    hits: list[KeywordHit] = []
    streams: dict[str, np.ndarray] = {}
    if keywords is not None:
        hits, f1 = keywords
        streams["f1"] = f1
    if audio_features is not None:
        streams.update(audio_features.streams)
    if visual_features is not None:
        streams.update(visual_features.streams)

    # Per-stream faults: whole-stream loss and in-band corruption.
    if injector.enabled:
        for name in sorted(streams):
            site = f"extract.stream:{name}"
            if injector.should_drop(site):
                dropped[name] = "stream dropped by fault injection"
                failures.append(
                    FailureReport(
                        site=site,
                        error="InjectedFault",
                        message="stream dropped by fault injection",
                        transient=False,
                        action="dropped",
                    )
                )
                del streams[name]
                continue
            values = streams[name]
            corrupted = injector.corrupt_array(site, values)
            if corrupted is not values:
                streams[name] = np.clip(corrupted, 0.0, 1.0)

    if not streams:
        raise SignalError(
            f"every modality of race {race.name!r} failed extraction: "
            f"{sorted(set(dropped.values()))}"
        )
    n = min(min(v.shape[0] for v in streams.values()), n_target)
    streams = {name: values[:n] for name, values in streams.items()}
    return FeatureSet(
        race.name,
        streams,
        hits,
        dropped=dropped,
        failures=failures,
        text_scan=text_scan if visual_features is not None else None,
    )
