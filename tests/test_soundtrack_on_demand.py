"""No race holds its soundtrack.

A :class:`SyntheticRace` keeps the soundtrack's plan — phone slots, speech
intervals, sample rate — and renders the samples when ``race.signal`` is
read, holding them only while a caller does, as its frames are rendered
from the timeline as they are read. The samples are those pinned in
``tests/test_synth_identity.py`` on every render. Audio the fault injector
corrupted cannot be rendered again, so a race keeps it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plans import get_plan
from repro.fusion.pipeline import prepare_race
from repro.synth import grandprix
from repro.synth.grandprix import synthesize_race
from tests.test_ingest_pass import spec_for  # the repo benchmark's 125 s race
from tests.test_synth_identity import PHONE_SLOTS, SAMPLES

MIB = 1 << 20

#: The seed-1 race under the ``chaos`` plan, as synthesized when the race
#: held its whole soundtrack: sha256 of the corrupted samples, every
#: injection and the invocations per site.
CORRUPTED_SEED1 = "0ef8ada4631a93715cdfa75cd5df4ad18325e34160efc98a2345ebede8f3d166"
CHAOS_INJECTIONS = [
    ("synth.text", 1, "garbled=2/7"),
    ("synth.text", 2, "garbled=1/1"),
    ("synth.text", 5, "garbled=1/1"),
    ("synth.text", 9, "garbled=2/5"),
    ("synth.audio", 0, "dropout=99812/2000000"),
    ("synth.video", 0, "lost=37/1250"),
]
CHAOS_INVOCATIONS = {"synth.text": 13, "synth.audio": 1, "synth.video": 1}


def sha256(signal) -> str:
    return hashlib.sha256(signal.samples.tobytes()).hexdigest()


@pytest.fixture()
def renders(monkeypatch) -> list[int]:
    """Counts calls of the name the race renders through (the one the
    benchmark's ``synth.audio`` span wraps)."""
    calls: list[int] = []
    synthesize = grandprix.synthesize_audio

    def counted(*args, **kwargs):
        calls.append(1)
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(grandprix, "synthesize_audio", counted)
    return calls


def test_race_signal_is_rendered_on_demand(renders):
    race = synthesize_race(spec_for(1))
    assert renders == []  # synthesis drew the plan only
    assert race.audio.sample_rate == 16000
    digest = hashlib.sha256(json.dumps(race.audio.phone_slots).encode()).hexdigest()
    assert digest == PHONE_SLOTS["seed1"]

    signal = race.signal
    assert renders == [1] and sha256(signal) == SAMPLES["seed1"]
    assert race.signal is signal and renders == [1]  # held: the same object

    del signal
    gc.collect()
    again = race.signal  # freed: rendered again, the same samples
    assert renders == [1, 1] and sha256(again) == SAMPLES["seed1"]


def test_a_held_race_holds_no_soundtrack():
    """A prepared 125 s race held 19.8 MiB traced with its 15.3 MiB
    soundtrack; without it, ~4.5 MiB (the overlay text strips the scan
    keeps for OCR)."""
    spec = spec_for(1)
    prepare_race(spec)  # first use builds what every race shares
    gc.collect()
    tracemalloc.start()
    try:
        held = prepare_race(spec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held.features.streams
    assert retained <= 6 * MIB, f"a held race retains {retained / MIB:.1f} MiB"


def test_corrupted_soundtrack_is_kept(renders):
    injector = FaultInjector(get_plan("chaos"))
    race = synthesize_race(spec_for(1), faults=injector)
    injections = [(i.site, i.invocation, i.detail) for i in injector.injections]
    assert injections == CHAOS_INJECTIONS
    assert injector._site_counts == CHAOS_INVOCATIONS
    assert renders == [1]  # rendered once, for the injector

    signal = race.signal
    assert sha256(signal) == CORRUPTED_SEED1
    assert np.abs(signal.samples).max() <= 1.0
    del signal
    gc.collect()
    # still the corrupted samples, neither rendered nor corrupted again
    assert sha256(race.signal) == CORRUPTED_SEED1
    assert renders == [1] and injector._site_counts == CHAOS_INVOCATIONS


def test_an_uncorrupted_soundtrack_is_rendered_on_demand(renders):
    """An enabled injector whose plan leaves the audio alone: the race
    keeps no samples and renders the clean ones when asked."""
    injector = FaultInjector(get_plan("modality-drop"))
    race = synthesize_race(spec_for(1), faults=injector)
    assert race.corrupted_signal is None
    assert sha256(race.signal) == SAMPLES["seed1"]


def test_a_plan_that_spares_the_audio_renders_nothing_at_synthesis(renders):
    """An enabled injector with no spec matching ``synth.audio`` cannot
    corrupt the soundtrack, so synthesis does not render it."""
    injector = FaultInjector(get_plan("ci-low-rate"))
    assert injector.enabled and not injector.targets("synth.audio")
    race = synthesize_race(spec_for(1), faults=injector)
    assert renders == [] and race.corrupted_signal is None
    assert injector.injections == []
