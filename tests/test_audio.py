"""Audio substrate: framing, features, endpoint detection, keyword spotting."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.audio.endpoint import EndpointConfig, detect_speech
from repro.audio.excitement import extract_excitement_features
from repro.audio.features import (
    frame_entropy,
    cepstrum,
    mel_filterbank,
    mel_log_energies,
    mfcc,
    pause_rate,
    pitch_track,
    short_time_energy,
    zero_crossing_rate,
)
from repro.audio.filters import BandSplit, bandpass
from repro.audio.keywords import (
    CLEAN_SPEECH_MODEL,
    F1_KEYWORDS,
    PHONES,
    TV_NEWS_MODEL,
    KeywordSpotter,
    keyword_stream,
)
from repro.audio.signal import AudioSignal, clip_statistics, window_function
from repro.errors import SignalError

FS = 16000


def tone(freq: float, seconds: float = 1.0, amplitude: float = 0.5) -> AudioSignal:
    t = np.arange(int(FS * seconds)) / FS
    return AudioSignal(amplitude * np.sin(2 * np.pi * freq * t), FS)


def speechlike(f0: float, seconds: float = 2.0, rng=None) -> AudioSignal:
    t = np.arange(int(FS * seconds)) / FS
    s = np.zeros_like(t)
    for h in range(1, 6):
        s += (0.3 / h) * np.sin(2 * np.pi * f0 * h * t)
    s *= 0.6 + 0.4 * np.sin(2 * np.pi * 4 * t)
    if rng is not None:
        s = s + 0.01 * rng.standard_normal(t.shape)
    return AudioSignal(s, FS)


class TestSignal:
    def test_framing(self):
        sig = tone(100, 1.0)
        assert sig.frame_length == 160
        assert sig.n_frames() == 100
        assert sig.frames().shape == (100, 160)

    def test_clips(self):
        sig = tone(100, 1.0)
        assert sig.frames_per_clip == 10
        assert sig.n_clips() == 10

    def test_too_short(self):
        with pytest.raises(SignalError):
            AudioSignal(np.zeros(10), FS).frames()

    def test_low_sample_rate_rejected(self):
        with pytest.raises(SignalError):
            AudioSignal(np.zeros(100), 500)

    def test_slice_seconds(self):
        sig = tone(100, 2.0)
        assert sig.slice_seconds(0.5, 1.0).duration == pytest.approx(0.5)

    def test_clip_statistics_keys(self):
        sig = tone(100, 1.0)
        stats = clip_statistics(sig, short_time_energy(sig))
        assert set(stats) == {"average", "maximum", "dynamic_range"}

    def test_windows(self):
        for name in ("rectangular", "hamming", "hanning", "blackman"):
            w = window_function(name, 160)
            assert w.shape == (160,)
            assert w.max() <= 1.0 + 1e-9
        with pytest.raises(SignalError):
            window_function("kaiser", 10)


class TestFilters:
    def test_bandpass_removes_out_of_band(self):
        mixed = AudioSignal(
            tone(200).samples + tone(3000).samples, FS
        )
        low = bandpass(mixed, 0, 882)
        spectrum = np.abs(np.fft.rfft(low.samples))
        freqs = np.fft.rfftfreq(low.samples.shape[0], 1 / FS)
        in_band = spectrum[(freqs > 150) & (freqs < 250)].max()
        out_band = spectrum[(freqs > 2800) & (freqs < 3200)].max()
        assert in_band > 100 * out_band

    def test_band_validation(self):
        with pytest.raises(SignalError):
            bandpass(tone(100), 500, 100)
        with pytest.raises(SignalError):
            bandpass(tone(100), 0, FS)  # beyond Nyquist
        with pytest.raises(SignalError):
            BandSplit(tone(100)).mel_log_energies(500, 100)

    def test_band_split_shares_what_it_derives(self, rng):
        signal = speechlike(140, rng=rng)
        bands = BandSplit(signal)
        low = bands.band(0, 882)
        assert bands.band(0.0, 882.0) is low  # one irfft per distinct band
        assert bands.mel_log_energies(0, 882) is bands.mel_log_energies(0, 882)
        high = bands.band(882, 2205)
        # each is what a separate bandpass / mfcc call returns
        assert np.array_equal(low.samples, bandpass(signal, 0, 882).samples)
        assert np.array_equal(high.samples, bandpass(signal, 882, 2205).samples)
        for n in (3, 12):
            assert np.array_equal(
                cepstrum(bands.mel_log_energies(0, 882), n), mfcc(low, n_coefficients=n)
            )


    @pytest.mark.parametrize("n", [1, 2, 9, 160, 1601, 16000, 22051])
    @pytest.mark.parametrize("sample_rate", [8000, 16000, 22050])
    def test_band_is_the_rfftfreq_mask(self, n, sample_rate):
        """A band's bins are the ones ``rfftfreq`` puts inside it, edges on
        a bin's frequency included, and the band is the inverse of
        ``spectrum * mask`` byte for byte."""
        samples = np.random.default_rng(n).standard_normal(n)
        signal = AudioSignal(samples, sample_rate)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        spectrum = np.fft.rfft(samples)
        edges = [0.0, 882.0, 2205.0, float(freqs[len(freqs) // 3]), float(freqs[-1])]
        bands = BandSplit(signal)
        for low in edges:
            for high in edges:
                if not low < high:
                    continue
                mask = (freqs >= low) & (freqs <= high)
                first, stop = bands._bins(low, high)
                assert np.array_equal(np.flatnonzero(mask), np.arange(first, stop))
                expected = np.fft.irfft(spectrum * mask, n=n)
                assert bands.band(low, high).samples.tobytes() == expected.tobytes()

    def test_dropped_band_is_filtered_again(self, rng):
        bands = BandSplit(speechlike(140, rng=rng))
        high = bands.band(882, 2205)
        bands.drop(882, 2205)
        again = bands.band(882, 2205)
        assert again is not high and np.array_equal(again.samples, high.samples)


class TestFeatures:
    def test_ste_scales_with_amplitude(self):
        quiet = short_time_energy(tone(200, amplitude=0.1)).mean()
        loud = short_time_energy(tone(200, amplitude=0.5)).mean()
        assert loud > 20 * quiet

    def test_ste_zero_for_silence(self):
        silent = AudioSignal(np.zeros(FS), FS)
        assert short_time_energy(silent).max() == 0.0

    @pytest.mark.parametrize("f0", [90, 150, 260])
    def test_pitch_accuracy(self, f0, rng):
        sig = speechlike(f0, rng=rng)
        p = pitch_track(bandpass(sig, 0, 882))
        voiced = p[p > 0]
        assert np.median(voiced) == pytest.approx(f0, rel=0.12)

    def test_pitch_zero_for_silence(self):
        silent = AudioSignal(np.zeros(FS), FS)
        assert pitch_track(silent).max() == 0.0

    def test_pitch_does_not_depend_on_the_row_block(self, rng, monkeypatch):
        sig = bandpass(speechlike(140, rng=rng), 0, 882)
        whole = pitch_track(sig)
        assert (whole > 0).any()
        for rows in (1, 7, whole.shape[0] + 5):
            monkeypatch.setattr("repro.audio.features.PITCH_BLOCK_ROWS", rows)
            assert np.array_equal(pitch_track(sig), whole)

    def test_frame_passes_do_not_depend_on_the_row_block(self, rng, monkeypatch):
        """STE and mel log energies frame the track a block of rows at a
        time; the last block takes the remainder. STE is per-row arithmetic
        and holds at any block; the mel product stays at a few hundred rows
        (BLAS may use a different small-matrix kernel below that)."""
        sig = bandpass(speechlike(140, 12.0, rng), 0, 882)  # 1200 frames
        ste, mel = short_time_energy(sig), mel_log_energies(sig)
        for rows in (1, 7, 1199, 1201):
            monkeypatch.setattr("repro.audio.features.FRAME_BLOCK_ROWS", rows)
            assert np.array_equal(short_time_energy(sig), ste)
        for rows in (401, 599, 1200):
            monkeypatch.setattr("repro.audio.features.FRAME_BLOCK_ROWS", rows)
            assert np.array_equal(mel_log_energies(sig), mel)

    def test_mel_filterbank_shape_and_coverage(self):
        bank = mel_filterbank(24, 256, FS)
        assert bank.shape == (24, 129)
        assert bank.sum(axis=1).min() > 0

    def test_mfcc_shape(self):
        coeffs = mfcc(tone(300))
        assert coeffs.shape == (100, 12)

    def test_mfcc_tilt_sensitivity(self, rng):
        """Flatter harmonic spectra (excited voice) shift the MFCCs."""
        t = np.arange(FS) / FS
        steep = sum((1.0 / h) * np.sin(2 * np.pi * 150 * h * t) for h in range(1, 6))
        flat = sum(0.6 * np.sin(2 * np.pi * 150 * h * t) for h in range(1, 6))
        c_steep = mfcc(AudioSignal(0.2 * steep, FS)).mean(axis=0)
        c_flat = mfcc(AudioSignal(0.2 * flat, FS)).mean(axis=0)
        assert np.abs(c_steep - c_flat).max() > 0.5

    def test_pause_rate_detects_silence(self):
        samples = np.concatenate([tone(200, 0.5).samples, np.zeros(FS // 2)])
        rate = pause_rate(AudioSignal(samples, FS))
        assert rate[:4].mean() < 0.2
        assert rate[-4:].mean() > 0.8

    def test_zcr_higher_for_high_frequency(self):
        assert zero_crossing_rate(tone(2000)).mean() > zero_crossing_rate(tone(100)).mean()

    def test_entropy_higher_for_noise_than_silence(self, rng):
        noise = AudioSignal(rng.standard_normal(FS) * 0.3, FS)
        silence = AudioSignal(np.zeros(FS), FS)
        assert frame_entropy(noise).mean() > frame_entropy(silence).mean()


class TestEndpoint:
    def test_detects_speech_segment(self, rng):
        speech = speechlike(150, 2.0, rng).samples
        silence = 0.005 * rng.standard_normal(FS)
        sig = AudioSignal(np.concatenate([silence, speech, silence]), FS)
        result = detect_speech(sig)
        # clips 10..29 are speech
        assert result.is_speech[12:28].mean() > 0.8
        assert result.is_speech[:8].mean() < 0.2

    def test_segments_intervals(self, rng):
        speech = speechlike(150, 1.0, rng).samples
        sig = AudioSignal(np.concatenate([np.zeros(FS), speech]), FS)
        segments = detect_speech(sig).segments()
        assert segments
        assert segments[0][0] == pytest.approx(1.0, abs=0.3)

    def test_bands_of_another_signal_rejected(self, rng):
        signal = speechlike(150, 1.0, rng)
        other = AudioSignal(signal.samples.copy(), FS)
        with pytest.raises(SignalError, match="BandSplit"):
            detect_speech(signal, bands=BandSplit(other))
        shared = BandSplit(signal)
        assert np.array_equal(
            detect_speech(signal, bands=shared).is_speech, detect_speech(signal).is_speech
        )

    def test_paper_thresholds_are_defaults(self):
        config = EndpointConfig()
        assert config.ste_threshold == pytest.approx(2.2e-3)
        assert config.mfcc_threshold == pytest.approx(1.3)


class TestExcitement:
    def test_stream_names(self, rng):
        feats = extract_excitement_features(speechlike(150, 2.0, rng))
        assert set(feats.streams) == {f"f{i}" for i in range(2, 11)}

    def test_values_in_unit_interval(self, rng):
        feats = extract_excitement_features(speechlike(220, 2.0, rng))
        for name, values in feats.streams.items():
            assert values.min() >= 0.0 and values.max() <= 1.0, name

    def test_pitch_feature_tracks_excitement(self, rng):
        low = extract_excitement_features(speechlike(140, 2.0, rng))
        high = extract_excitement_features(speechlike(260, 2.0, rng))
        assert high.streams["f6"].mean() > low.streams["f6"].mean()


class TestKeywords:
    def _lattice(self, words, model, seed=9, filler=6):
        rng = np.random.default_rng(seed)
        phones: list = ["a", "b"] * filler
        for word in words:
            phones += list(F1_KEYWORDS[word])
            phones += ["o", "e"] * filler
        return model.decode(phones, rng), phones

    def test_spots_planted_keywords(self):
        lattice, _ = self._lattice(["crash", "schumacher"], TV_NEWS_MODEL)
        words = {h.word for h in KeywordSpotter().spot(lattice)}
        assert {"crash", "schumacher"} <= words

    def test_tv_news_beats_clean_speech(self):
        """The paper's acoustic-model comparison: TV-news scores higher."""
        planted = ["crash", "overtake", "pitstop", "gravel"]
        lattice_tv, _ = self._lattice(planted, TV_NEWS_MODEL, seed=5)
        lattice_clean, _ = self._lattice(planted, CLEAN_SPEECH_MODEL, seed=5)
        spotter = KeywordSpotter()
        tv_found = {h.word for h in spotter.spot(lattice_tv)} & set(planted)
        clean_found = {h.word for h in spotter.spot(lattice_clean)} & set(planted)
        assert len(tv_found) >= len(clean_found)
        tv_scores = [h.normalized_score for h in spotter.spot(lattice_tv) if h.word in planted]
        clean_scores = [
            h.normalized_score for h in spotter.spot(lattice_clean) if h.word in planted
        ]
        if tv_scores and clean_scores:
            assert np.mean(tv_scores) > np.mean(clean_scores)

    def test_silence_gives_no_hits(self):
        rng = np.random.default_rng(0)
        lattice = TV_NEWS_MODEL.decode([None] * 60, rng)
        assert KeywordSpotter().spot(lattice) == []

    def test_hit_metadata(self):
        lattice, phones = self._lattice(["winner"], TV_NEWS_MODEL)
        hits = [h for h in KeywordSpotter().spot(lattice) if h.word == "winner"]
        assert hits
        hit = hits[0]
        assert hit.duration == pytest.approx(len(F1_KEYWORDS["winner"]) * 0.1)
        assert 0 < hit.normalized_score <= 1

    def test_keyword_stream_rasterization(self):
        lattice, _ = self._lattice(["crash"], TV_NEWS_MODEL)
        hits = KeywordSpotter().spot(lattice)
        stream = keyword_stream(hits, 50)
        assert stream.shape == (50,)
        assert stream.max() > 0

    def test_all_lexicon_phones_valid(self):
        for word, spelling in F1_KEYWORDS.items():
            assert all(p in PHONES for p in spelling), word


@settings(max_examples=20, deadline=None)
@given(st.integers(60, 400))
def test_property_ste_invariant_to_dc_free_sign_flip(freq):
    sig = tone(float(freq), 0.5)
    flipped = AudioSignal(-sig.samples, FS)
    assert np.allclose(short_time_energy(sig), short_time_energy(flipped))
