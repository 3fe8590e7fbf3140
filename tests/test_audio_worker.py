"""The audio chain's worker process.

``extract_feature_set`` runs the audio chain's body in a child started with
``os.fork`` while it runs the visual and keyword chains itself. The streams
must be the bytes the in-process call computes, the child must be reaped on
every way out (a clean run, a raise, a failing or killed child, a
cancellation), and degrade mode must record failures in the serial order:
audio, visual, keywords.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

from repro.audio.excitement import extract_excitement_features
from repro.errors import InjectedFault, RequestCancelled, SignalError
from repro.faults import FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector
from repro.fusion import features as features_module
from repro.fusion.features import AUDIO_FEATURES, VISUAL_FEATURES, extract_feature_set
from repro.resilience import CancellationToken, cancel_scope
from repro.synth.grandprix import synthesize_race
from tests.test_ingest_pass import spec_for  # the repo benchmark's 125 s race

F2_F10 = AUDIO_FEATURES[1:]
VISUAL = VISUAL_FEATURES + ("passing", "dve")


@pytest.fixture(scope="module")
def race():
    return synthesize_race(spec_for(1), faults=FaultInjector.disabled())


@pytest.fixture()
def forks(monkeypatch) -> list[int]:
    """The pid of every child ``os.fork`` starts while installed."""
    pids: list[int] = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids: list[int]) -> None:
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def failing(*sites: str) -> FaultPlan:
    """A plan failing each of the given modality chains' fault hooks."""
    return FaultPlan(
        seed=5,
        name="chains-dead",
        specs=tuple(FaultSpec(site=site, kind="fail", transient=False) for site in sites),
    )


def audio_body(monkeypatch, body) -> None:
    """Replace the audio chain's body; the forked child inherits it."""
    monkeypatch.setattr(features_module, "extract_excitement_features", body)


def muted(signal_):
    raise SignalError("muted")


def killed(signal_):
    os.kill(os.getpid(), signal.SIGKILL)


def test_streams_are_the_in_process_bytes_and_the_worker_is_reaped(race, forks):
    features = extract_feature_set(race, faults=FaultInjector.disabled())
    assert_reaped(forks)
    assert not features.dropped
    reference = extract_excitement_features(race.signal)
    n = features.n_steps
    for name in F2_F10:
        assert features.streams[name].tobytes() == reference.streams[name][:n].tobytes(), name


def test_a_visual_failure_under_raise_reaps_the_worker(race, forks):
    with pytest.raises(InjectedFault):
        extract_feature_set(race, faults=failing("extract.visual"))
    assert_reaped(forks)


def test_a_failing_audio_body_is_raised_with_its_own_type(race, forks, monkeypatch):
    audio_body(monkeypatch, muted)
    with pytest.raises(SignalError) as raised:
        extract_feature_set(race, faults=FaultInjector.disabled())
    assert_reaped(forks)
    assert type(raised.value) is SignalError and str(raised.value) == "muted"
    notes = raised.value.context_notes
    if sys.version_info >= (3, 11):
        assert raised.value.__notes__ == notes
    assert len(notes) == 1 and notes[0].startswith("raised in the audio worker:")


def test_the_audio_failure_wins_over_a_visual_one_under_raise(race, forks, monkeypatch):
    """Serially the audio chain ran first, so its failure was the one raised."""
    audio_body(monkeypatch, muted)
    with pytest.raises(SignalError) as raised:
        extract_feature_set(race, faults=failing("extract.visual"))
    assert_reaped(forks)
    assert str(raised.value) == "muted"


def test_a_killed_worker_raises_a_signal_error_naming_the_signal(race, forks, monkeypatch):
    audio_body(monkeypatch, killed)
    with pytest.raises(SignalError, match="audio worker killed by SIGKILL"):
        extract_feature_set(race, faults=FaultInjector.disabled())
    assert_reaped(forks)


def test_a_killed_worker_drops_the_audio_streams_under_degrade(race, forks, monkeypatch):
    audio_body(monkeypatch, killed)
    features = extract_feature_set(race, faults=failing("extract.visual"), on_error="degrade")
    assert_reaped(forks)
    reason = "SignalError: audio worker killed by SIGKILL"
    assert {name: features.dropped[name] for name in F2_F10} == dict.fromkeys(F2_F10, reason)
    assert list(features.streams) == ["f1"]


@pytest.mark.parametrize(
    "site, names, survivors",
    [("extract.visual", VISUAL, ["f1"]), ("extract.keywords", ("f1",), list(VISUAL))],
)
def test_degrade_records_failures_in_chain_order(
    race, forks, monkeypatch, site, names, survivors
):
    """The audio failure comes back from the worker after the other chain
    failed in this process, and is still recorded first."""
    audio_body(monkeypatch, muted)
    features = extract_feature_set(race, faults=failing(site), on_error="degrade")
    assert_reaped(forks)
    injected = f"injected permanent fault at {site}"
    assert features.dropped == {
        **dict.fromkeys(F2_F10, "SignalError: muted"),
        **dict.fromkeys(names, f"InjectedPermanentError: {injected}"),
    }
    assert [(f.site, f.error, f.message, f.detail) for f in features.failures] == [
        ("extract.audio", "SignalError", "muted", f"streams {list(F2_F10)}"),
        (site, "InjectedPermanentError", injected, f"streams {list(names)}"),
    ]
    assert list(features.streams) == survivors


def test_a_cancelled_extraction_kills_the_running_worker(race, forks, monkeypatch):
    audio_body(monkeypatch, lambda signal_: time.sleep(600))
    token = CancellationToken()
    token.cancel("client went away")
    started = time.monotonic()
    with cancel_scope(token), pytest.raises(RequestCancelled):
        extract_feature_set(race, faults=FaultInjector.disabled())
    assert time.monotonic() - started < 60
    assert_reaped(forks)
