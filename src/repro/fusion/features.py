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

The audio and visual chains share no input or output, so the audio chain's
body runs in a forked worker process beside the visual chain: each process
stays single-threaded, and every fault hook still fires in this process.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from repro.audio.excitement import ExcitementFeatures, extract_excitement_features
from repro.audio.keywords import (
    TV_NEWS_MODEL,
    AcousticModel,
    KeywordHit,
    KeywordSpotter,
    keyword_stream,
)
from repro.errors import DeadlineExceeded, RequestCancelled, SignalError
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

#: The modality chains in the order their failures are recorded: fault
#: site -> the streams a failure there drops.
_CHAINS = (
    ("extract.audio", AUDIO_FEATURES[1:]),
    ("extract.visual", VISUAL_FEATURES + ("passing", "dve")),
    ("extract.keywords", ("f1",)),
)


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


class _AudioWorker:
    """The audio chain's body, ``extract_excitement_features(race.signal)``,
    in a child started with ``os.fork``.

    The child renders and analyses the soundtrack, writes the pickled
    outcome (the features, or the exception that stopped it) to a pipe and
    leaves through ``os._exit``, whatever happens. :meth:`result` reads the
    outcome and reaps the child; :meth:`close` kills and reaps a child that
    is still running.
    """

    def __init__(self, race: SyntheticRace) -> None:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            os.close(read_end)
            _audio_child(race, write_end)
        os.close(write_end)
        self.pid: int | None = pid
        self._pipe: int | None = read_end

    def result(self) -> ExcitementFeatures:
        """The child's :class:`ExcitementFeatures`. Raises the exception the
        body raised, or a :class:`SignalError` when the child died without
        an answer (naming the signal that killed it)."""
        pipe, self._pipe = os.fdopen(self._pipe, "rb"), None
        with pipe:
            payload = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if os.WIFSIGNALED(status):
            name = signal.Signals(os.WTERMSIG(status)).name
            raise SignalError(f"audio worker killed by {name}")
        if os.WEXITSTATUS(status) != 0 or not payload:
            raise SignalError(
                f"audio worker exited with status {os.WEXITSTATUS(status)} "
                "and no answer"
            )
        features, error = pickle.loads(payload)
        if error is not None:
            raise error
        return features

    def close(self) -> None:
        """Kill the child if it has not been reaped, reap it, close the pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._pipe is not None:
            pipe, self._pipe = self._pipe, None
            os.close(pipe)


def _audio_child(race: SyntheticRace, write_end: int) -> NoReturn:
    """The forked child: never returns, leaves through ``os._exit``."""
    status = 1
    try:
        try:
            outcome = (extract_excitement_features(race.signal), None)
        except Exception as exc:  # noqa: BLE001 - the parent's policy decides
            outcome = (None, _portable(exc))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _portable(exc: Exception) -> Exception:
    """``exc`` with the child's traceback as a note, if it survives a pickle
    round trip; else a :class:`SignalError` naming its type and message.

    The note goes on ``context_notes`` and, from Python 3.11 on, on
    ``__notes__``; it is never folded into the message, which degrade mode
    records as the reason a stream was dropped.
    """
    trace = "".join(traceback.format_exception(exc))
    note = f"raised in the audio worker:\n{trace}"
    exc.context_notes = [*getattr(exc, "context_notes", []), note]
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - any failure means it cannot cross
        return SignalError(f"{type(exc).__name__}: {exc}")
    return exc


def extract_feature_set(
    race: SyntheticRace,
    acoustic_model: AcousticModel = TV_NEWS_MODEL,
    spotter: KeywordSpotter | None = None,
    lattice_seed: int = 17,
    faults=None,
    on_error: str = "raise",
) -> FeatureSet:
    """Run the complete §5.2-§5.4 extraction chain on one race.

    The audio chain (soundtrack render, endpoint detection, excited-speech
    features), the visual chain (shot/DVE/semaphore/dust/sand/motion) and
    keyword spotting produce streams that are truncated to a common length.
    The audio chain's body runs in a forked child while this process runs
    the visual and keyword chains; the child is reaped (killed first if it
    still runs) on every way out of this function. Every fault hook fires
    here, in the order audio, visual, keywords, and failures are recorded
    in that order. The visual chain is the one pass over the race's frames:
    the text detector's scan observes its chunks and is returned on
    ``FeatureSet.text_scan``.

    With ``on_error="degrade"`` a failing modality chain is dropped and
    recorded on ``FeatureSet.dropped`` / ``FeatureSet.failures`` instead of
    raising; per-stream ``drop``/``corrupt`` faults from ``faults`` (or the
    global injector) are applied at site ``extract.stream:<name>``. With
    ``on_error="raise"`` a failing audio body is raised in preference to a
    visual or keyword failure, as when the chains ran one after the other,
    except that a cancellation or an expired deadline is raised at once.
    """
    if on_error not in ("raise", "degrade"):
        raise SignalError(
            f"on_error must be 'raise' or 'degrade', got {on_error!r}"
        )
    injector = resolve_injector(faults)
    n_target = int(race.duration * 10)
    dropped: dict[str, str] = {}
    failures: list[FailureReport] = []
    errors: dict[str, Exception] = {}

    def attempt(site, fn):
        """``fn()`` after the site's fault hook; in degrade mode a failure
        is kept for the site and None returned."""
        try:
            injector.on_call(site)
            return fn()
        except Exception as exc:  # noqa: BLE001 - policy decides
            if on_error != "degrade":
                raise
            errors[site] = exc
            return None

    def spot_keywords():
        engine = spotter or KeywordSpotter()
        rng = np.random.default_rng(lattice_seed + race.spec.seed)
        lattice = acoustic_model.decode(race.audio.phone_slots, rng)
        found = engine.spot(lattice)
        return found, keyword_stream(found, n_target)

    text_scan = TextScan(race.video.fps)
    audio_features = worker = None
    try:
        worker = attempt("extract.audio", lambda: _AudioWorker(race))
        try:
            visual_features = attempt(
                "extract.visual",
                lambda: extract_visual_features(race.video, observer=text_scan.observe),
            )
            keywords = attempt("extract.keywords", spot_keywords)
        except (RequestCancelled, DeadlineExceeded):
            raise
        except Exception:
            # Raise mode: the audio chain comes first, so its failure is the
            # one raised, as when the chains ran one after the other.
            if worker is not None:
                worker.result()
            raise
        if worker is not None:
            try:
                audio_features = worker.result()
            except Exception as exc:  # noqa: BLE001 - policy decides
                if on_error != "degrade":
                    raise
                errors["extract.audio"] = exc
    finally:
        if worker is not None:
            worker.close()

    for site, names in _CHAINS:
        exc = errors.get(site)
        if exc is None:
            continue
        reason = f"{type(exc).__name__}: {exc}"
        for name in names:
            dropped[name] = reason
        failures.append(
            FailureReport.from_exception(
                site, exc, action="dropped", detail=f"streams {list(names)}"
            )
        )

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
