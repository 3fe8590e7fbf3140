"""The soundtrack in bounded memory.

``synthesize_audio`` renders a block of samples at a time and the front end
frames a block of rows at a time. Two things are checked here: the peak of
traced allocations on a 125 s race (tracemalloc counts numpy buffers and is
deterministic, unlike RSS), and that no block size changes a sample or a
feature — every block constant is set to sizes that do not divide the
track and fall below the overlaps the blocks have to bridge, and the
results must still equal the digests pinned before the audio path was
blocked.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.audio.excitement import AUDIO_FEATURE_NAMES, extract_excitement_features
from repro.audio.signal import AudioSignal
from repro.synth.audio_synth import synthesize_audio
from repro.synth.race import generate_timeline
from tests.conftest import MINI_SPEC
from tests.test_ingest_pass import spec_for  # the repo benchmark's 125 s race
from tests.test_synth_identity import PHONE_SLOTS, SAMPLES

SPECS = {"seed1": spec_for(1), "mini": MINI_SPEC}

#: sha256 over the f2..f10 streams' bytes, in that order, as extracted by
#: the whole-track front end (commit de8f944).
EXCITEMENT = {
    "seed1": "72798b8f65d4e26a50f97e77583950ffb9205e24dcd74dc3b095df4c655ff078",
    "mini": "80dd4b4569b9eac9ea6e73415ddeb3967a7881748f7c285d60fdb827ea5ae169",
}

MIB = 1 << 20


@pytest.fixture(scope="module")
def timelines():
    return {name: generate_timeline(spec) for name, spec in SPECS.items()}


@pytest.fixture(scope="module")
def seed1_signal(timelines) -> AudioSignal:
    return synthesize_audio(timelines["seed1"]).signal


def traced_peak(run) -> int:
    """Peak bytes of traced allocations while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def samples_sha256(audio) -> tuple[str, str]:
    samples = hashlib.sha256(audio.signal.samples.tobytes()).hexdigest()
    slots = hashlib.sha256(json.dumps(audio.phone_slots).encode()).hexdigest()
    return samples, slots


def excitement_sha256(signal: AudioSignal) -> str:
    streams = extract_excitement_features(signal).streams
    digest = hashlib.sha256()
    for name in AUDIO_FEATURE_NAMES:
        digest.update(streams[name].tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# peak memory on the benchmark's 125 s race (a 15.3 MiB float64 track)
# ----------------------------------------------------------------------
def test_synthesis_peak_is_the_track_and_a_few_blocks(timelines):
    """The whole-track synthesizer peaked at ~245 MiB (fifteen track-sized
    temporaries); the output array plus the held bursts and one block's
    temporaries stay under 40 MiB."""
    peak = traced_peak(lambda: synthesize_audio(timelines["seed1"]))
    assert peak <= 40 * MIB, f"synthesis peaked at {peak / MIB:.1f} MiB"


def test_front_end_peak_is_the_track_one_spectrum_and_one_band(seed1_signal):
    """The whole-track front end peaked at ~131 MiB; what is left is the
    signal, the spectrum, one band and its masked spectrum while it is
    inverted, and one block of frames — under 80 MiB, the signal included."""

    def run():
        signal = AudioSignal(seed1_signal.samples.copy(), seed1_signal.sample_rate)
        extract_excitement_features(signal)

    peak = traced_peak(run)
    assert peak <= 80 * MIB, f"the front end peaked at {peak / MIB:.1f} MiB"


# ----------------------------------------------------------------------
# no block size changes a bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize(
    "block",
    [
        1600,  # one 0.1 s slot
        397,  # prime, and shorter than the 400-tap envelope smoothing
    ],
)
def test_synthesis_does_not_depend_on_the_block(timelines, monkeypatch, name, block):
    monkeypatch.setattr("repro.synth.audio_synth.SYNTH_BLOCK_SAMPLES", block)
    audio = synthesize_audio(timelines[name])
    assert samples_sha256(audio) == (SAMPLES[name], PHONE_SLOTS[name])


@pytest.mark.parametrize("name", list(SPECS))
def test_front_end_does_not_depend_on_the_block(timelines, monkeypatch, name):
    signal = synthesize_audio(timelines[name]).signal
    assert excitement_sha256(signal) == EXCITEMENT[name]
    # Pitch windows reach one row either side: 7 rows is prime and leaves a
    # remainder. The framed STE / mel passes have no overlap; 509 rows is
    # prime and divides neither track — a few hundred rows is as low as
    # they go, since on fewer rows BLAS may switch to a small-matrix kernel
    # for the mel filterbank product.
    monkeypatch.setattr("repro.audio.features.PITCH_BLOCK_ROWS", 7)
    monkeypatch.setattr("repro.audio.features.FRAME_BLOCK_ROWS", 509)
    assert excitement_sha256(signal) == EXCITEMENT[name]
