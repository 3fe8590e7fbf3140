"""Bit-identity of the synthesizer and of the audio front end.

A seeded race is its pixels and its samples: the stream digests pinned in
``tests/test_ingest_pass.py`` (and the repo benchmark's ``golden.json``)
follow from them. The digests below were captured at commit 02e6435 — one
int64 jitter temporary per frame, eight timeline scans per frame, three
full-length envelope convolutions, three ``bandpass`` transforms per track
— before the renderer cached its shot backgrounds, the envelopes were
smoothed only where they vary and the front end shared one spectrum. The
front end is also checked against that commit's ``bandpass`` / ``mfcc`` /
``detect_speech`` / ``extract_excitement_features``, kept here verbatim as
the oracle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.audio.endpoint import EndpointConfig, EndpointResult, detect_speech
from repro.audio.excitement import AUDIO_FEATURE_NAMES, extract_excitement_features
from repro.audio.features import mel_filterbank, pause_rate, pitch_track, short_time_energy
from repro.audio.filters import ENDPOINT_BAND, EXCITEMENT_BAND
from repro.audio.signal import AudioSignal, clip_statistics, window_function
from repro.synth.audio_synth import synthesize_audio
from repro.synth.race import generate_timeline
from repro.synth.video_synth import RaceVideoRenderer
from tests.conftest import MINI_SPEC
from tests.test_ingest_pass import spec_for  # the repo benchmark's 125 s race


SPECS = {"train": spec_for(200107), "seed1": spec_for(1), "seed2": spec_for(2), "mini": MINI_SPEC}
#: The three races whose stream digests the benchmark prints.
PINNED_RACES = ("train", "seed1", "seed2")

#: sha256 over every rendered frame's bytes, in order.
PIXELS = {
    "train": "119000c67f4c227d1442e938fb41f271eb85a18c34b8aa8a53b9406fcde4e9d0",
    "seed1": "28fb0e8ab0f3e491b9cf55f415c694203f071f14254ff188ffa68c75b942a49a",
    "seed2": "420e3dcc96e5003113c69ad9b730c89c4daa5f32bdd37f95cb1f595603e25bc4",
    "mini": "e9a10ce4c8a1b83c066c3a02a97e3bd398ac6125f1a130138123498e8ba948af",
}
#: Seed 1 rendered with ``noise=0``: no generator, no jitter, no clip.
PIXELS_NOISELESS_SEED1 = "9ded8454ab31cf3efe99d205d04e71e0f109b21e1e329025ff20d0673c338080"
#: sha256 of ``audio.signal.samples`` (float64) and of the JSON phone slots.
SAMPLES = {
    "train": "57d72b3cd8eb282c4e6fe159a150bcc864cf25596fa7985ae9596a99d3de22f3",
    "seed1": "1815c27316ad41dfbb4bb2f9556ca70e020e241a92aa219ca97ef117d0c464e4",
    "seed2": "1ab76c6a78987ca04fcd8d07178b7162c8f0e4c6c956e87d2a3a1acac7c5a05e",
    "mini": "3fd878952bdab8beac1789300bba5b135dc421bcbd9138c25a6f1aa744370a34",
}
PHONE_SLOTS = {
    "train": "fac5b684c128a777dc0a55dad0d41065b704b66cf2c7c223826dd3a3f37e82b0",
    "seed1": "1dcd611cd2b270aae4050d90e9d799884c9aeae8f29c04203656e7c9032ffdef",
    "seed2": "60c8debb0752bfb6a558fa7ada53c27530a3fcbbade6ca9f2ec9aae48fac93e9",
    "mini": "9b794b095a2a66f8180093b7619e290fc406f1825d3b19ac2fb40087aca78e5e",
}


def pixels_sha256(renderer: RaceVideoRenderer) -> str:
    digest = hashlib.sha256()
    for index in range(renderer.n_frames):
        frame = renderer.frame(index)
        assert frame.dtype == np.uint8
        digest.update(frame.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def audio():
    """Each race's soundtrack, synthesized on first use."""
    made = {}

    def get(name: str):
        if name not in made:
            made[name] = synthesize_audio(generate_timeline(SPECS[name]))
        return made[name]

    return get


# ----------------------------------------------------------------------
# the synthesizer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(SPECS))
def test_every_pixel_is_the_parents(name):
    renderer = RaceVideoRenderer(generate_timeline(SPECS[name]))
    assert pixels_sha256(renderer) == PIXELS[name]


def test_noiseless_pixels_are_the_parents():
    renderer = RaceVideoRenderer(generate_timeline(SPECS["seed1"]), noise=0)
    assert pixels_sha256(renderer) == PIXELS_NOISELESS_SEED1


def test_frames_do_not_depend_on_render_order():
    """The background cache follows the shot being rendered: going back
    across shot cuts gives the frames a forward pass gave."""
    renderer = RaceVideoRenderer(generate_timeline(SPECS["seed1"]))
    forward = [renderer.frame(index) for index in range(0, renderer.n_frames, 7)]
    for frame, index in zip(reversed(forward), reversed(range(0, renderer.n_frames, 7))):
        assert np.array_equal(renderer.frame(index), frame)


def _array_bytes(value, seen: set[int]) -> int:
    """Bytes of every distinct ndarray buffer reachable from ``value``."""
    if isinstance(value, np.ndarray):
        root = value if value.base is None else value.base
        if id(root) in seen or not isinstance(root, np.ndarray):
            return 0
        seen.add(id(root))
        return root.nbytes
    if isinstance(value, dict):
        return sum(_array_bytes(item, seen) for item in value.values())
    if isinstance(value, (list, tuple, set)):
        return sum(_array_bytes(item, seen) for item in value)
    return 0


def test_renderer_caches_one_shot_of_background():
    """After a full pass the renderer holds the background of the shot it
    rendered last — a little over one int16 frame — not one per shot."""
    timeline = generate_timeline(SPECS["seed1"])
    renderer = RaceVideoRenderer(timeline)
    assert len(timeline.shot_cuts) > 5
    for index in range(renderer.n_frames):
        renderer.frame(index)
    frame_bytes = renderer.height * renderer.width * 3 * np.dtype(np.int16).itemsize
    held = _array_bytes(vars(renderer), set())
    assert held < 2 * frame_bytes
    shot, *_ = renderer._shot_background
    assert shot == len(timeline.shot_cuts)


@pytest.mark.parametrize("name", list(SPECS))
def test_every_sample_is_the_parents(audio, name):
    track = audio(name)
    assert track.signal.samples.dtype == np.float64
    assert hashlib.sha256(track.signal.samples.tobytes()).hexdigest() == SAMPLES[name]
    slots = hashlib.sha256(json.dumps(track.phone_slots).encode()).hexdigest()
    assert slots == PHONE_SLOTS[name]


# ----------------------------------------------------------------------
# the audio front end, against the parent commit's
# ----------------------------------------------------------------------
def parent_bandpass(signal: AudioSignal, low_hz: float, high_hz: float) -> AudioSignal:
    spectrum = np.fft.rfft(signal.samples)
    freqs = np.fft.rfftfreq(signal.samples.shape[0], d=1.0 / signal.sample_rate)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    filtered = np.fft.irfft(spectrum * mask, n=signal.samples.shape[0])
    return AudioSignal(filtered, signal.sample_rate)


def parent_mfcc(signal: AudioSignal, n_coefficients: int = 12, n_filters: int = 24) -> np.ndarray:
    frames = signal.frames()
    w = window_function("hamming", frames.shape[1])
    n_fft = 1 << int(np.ceil(np.log2(frames.shape[1])))
    spectra = np.abs(np.fft.rfft(frames * w, n=n_fft, axis=1)) ** 2
    bank = mel_filterbank(n_filters, n_fft, signal.sample_rate)
    energies = spectra @ bank.T
    log_energies = np.log(np.maximum(energies, 1e-12))
    k = np.arange(n_coefficients)[:, None]
    j = np.arange(n_filters)[None, :]
    dct = np.cos(np.pi * (k + 1) * (j + 0.5) / n_filters)
    return log_energies @ dct.T


def parent_detect_speech(signal: AudioSignal) -> EndpointResult:
    config = EndpointConfig()
    filtered = parent_bandpass(signal, *config.band)
    stats = clip_statistics(signal, short_time_energy(filtered))
    w_avg, w_max, w_rng = config.ste_weights
    ste_score = (
        w_avg * stats["average"] + w_max * stats["maximum"] + w_rng * stats["dynamic_range"]
    )
    magnitude = np.abs(parent_mfcc(filtered, n_coefficients=config.n_mfcc)).sum(axis=1)
    mfcc_stats = clip_statistics(signal, magnitude)
    mfcc_score = mfcc_stats["average"] + mfcc_stats["dynamic_range"]
    n = min(ste_score.shape[0], mfcc_score.shape[0])
    is_speech = (ste_score[:n] >= config.ste_threshold) & (mfcc_score[:n] >= config.mfcc_threshold)
    return EndpointResult(is_speech, ste_score[:n], mfcc_score[:n])


def parent_excitement_streams(signal: AudioSignal, endpoint: EndpointResult) -> dict:
    high = parent_bandpass(signal, *EXCITEMENT_BAND)
    low = parent_bandpass(signal, *ENDPOINT_BAND)
    ste_stats = clip_statistics(signal, short_time_energy(high))
    pitch_stats = clip_statistics(signal, pitch_track(low))
    mfcc_stats = clip_statistics(signal, np.abs(parent_mfcc(low)).mean(axis=1))
    n = endpoint.is_speech.shape[0]
    mask = endpoint.is_speech.astype(np.float64)

    def masked(values: np.ndarray, scale: float | None = None) -> np.ndarray:
        if scale is None:
            scale = float(np.percentile(values[:n], 99.0))
        if scale <= 0:
            return np.zeros_like(values[:n]) * mask
        return np.clip(values[:n] / scale, 0.0, 1.0) * mask

    return {
        "f2": np.clip(pause_rate(signal)[:n], 0.0, 1.0),
        "f3": masked(ste_stats["average"]),
        "f4": masked(ste_stats["dynamic_range"]),
        "f5": masked(ste_stats["maximum"]),
        "f6": masked(pitch_stats["average"], scale=500.0),
        "f7": masked(pitch_stats["dynamic_range"], scale=500.0),
        "f8": masked(pitch_stats["maximum"], scale=500.0),
        "f9": masked(mfcc_stats["average"]),
        "f10": masked(mfcc_stats["maximum"]),
    }


@pytest.mark.parametrize("name", PINNED_RACES)
def test_front_end_equals_the_parents(audio, name):
    signal = audio(name).signal
    expected = parent_detect_speech(signal)

    alone = detect_speech(signal)
    features = extract_excitement_features(signal)
    for result in (alone, features.endpoint):
        assert np.array_equal(result.is_speech, expected.is_speech)
        assert np.array_equal(result.ste_score, expected.ste_score)
        assert np.array_equal(result.mfcc_score, expected.mfcc_score)

    streams = parent_excitement_streams(signal, expected)
    assert tuple(features.streams) == AUDIO_FEATURE_NAMES
    for stream in AUDIO_FEATURE_NAMES:
        assert np.array_equal(features.streams[stream], streams[stream]), stream
