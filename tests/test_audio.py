import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe.audio import (
    IDENTITY_ROOM,
    FrontendConfig,
    RoomModel,
    SpeakerProfile,
    Waveform,
    apply_far_field,
    concat_with_silence,
    frontend_spectrogram,
    mel_filterbank,
    read_wav,
    stft_logmel,
    synthesize_word,
    write_wav,
)
from icdscribe.errors import ContractError
from icdscribe.seeds import stable_seed

PROFILE = SpeakerProfile(speaker_id="spk0", seed=7)


class TestSynthesizeWord:
    def test_deterministic(self):
        a = synthesize_word("pain", PROFILE, repeat_index=0)
        b = synthesize_word("pain", PROFILE, repeat_index=0)
        assert np.array_equal(a.samples, b.samples)

    def test_empty_word_rejected(self):
        with pytest.raises(ContractError):
            synthesize_word("", PROFILE, repeat_index=0)

    @pytest.mark.parametrize("bad", ["r10", "Pain", "ab cd", "café"])
    def test_non_lowercase_alpha_rejected(self, bad):
        with pytest.raises(ContractError):
            synthesize_word(bad, PROFILE, repeat_index=0)

    def test_samples_bounded_and_finite(self):
        w = synthesize_word("hyperventilation", PROFILE, repeat_index=0)
        assert np.all(np.isfinite(w.samples))
        assert np.max(np.abs(w.samples)) <= 1.0

    def test_duration_proportional_to_char_count(self):
        short = synthesize_word("pain", PROFILE, repeat_index=0)
        long = synthesize_word("hyperventilation", PROFILE, repeat_index=0)
        ratio = long.duration / short.duration
        assert abs(ratio - 4.0) <= 0.4

    def test_repeats_are_distinct_realizations(self):
        a = synthesize_word("abdominal", PROFILE, repeat_index=0)
        b = synthesize_word("abdominal", PROFILE, repeat_index=1)
        assert len(a.samples) == len(b.samples)
        corr = np.corrcoef(a.samples, b.samples)[0, 1]
        assert corr < 0.99

    def test_speakers_are_distinct(self):
        other = SpeakerProfile(speaker_id="spk1", base_pitch=220.0, seed=7)
        a = synthesize_word("pain", PROFILE, repeat_index=0)
        b = synthesize_word("pain", other, repeat_index=0)
        assert not np.array_equal(a.samples, b.samples)

    def test_rate_multiplier_scales_duration(self):
        slow = SpeakerProfile(speaker_id="s", rate=1.2, seed=1)
        fast = SpeakerProfile(speaker_id="s", rate=0.8, seed=1)
        a = synthesize_word("injury", slow, repeat_index=0)
        b = synthesize_word("injury", fast, repeat_index=0)
        assert a.duration > b.duration

    def test_profile_invariants_enforced(self):
        with pytest.raises(ContractError):
            SpeakerProfile(speaker_id="x", base_pitch=50.0)
        with pytest.raises(ContractError):
            SpeakerProfile(speaker_id="x", rate=1.5)


class TestConcatWithSilence:
    def test_lengths_add_up(self):
        words = [synthesize_word(w, PROFILE, 0) for w in ("generalized", "pain")]
        joined = concat_with_silence(words, gaps_s=[0.2], edge_pad_s=0.05)
        sr = words[0].sample_rate
        expected = sum(len(w.samples) for w in words) + int(0.2 * sr) + 2 * int(0.05 * sr)
        assert len(joined.samples) == expected

    def test_gap_count_mismatch_rejected(self):
        words = [synthesize_word("pain", PROFILE, 0)]
        with pytest.raises(ContractError):
            concat_with_silence(words, gaps_s=[0.1])


class TestApplyFarField:
    def test_identity_room_is_exact(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        out = apply_far_field(w, IDENTITY_ROOM)
        assert np.array_equal(out.samples, w.samples)

    def test_inverse_distance_scaling(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        near = apply_far_field(w, RoomModel(distance=1.0, rt60=0.0, snr_db=math.inf))
        far = apply_far_field(w, RoomModel(distance=2.0, rt60=0.0, snr_db=math.inf))
        assert far.rms() / near.rms() == pytest.approx(0.5, abs=1e-6)

    def test_snr_is_honored(self):
        t = np.arange(16000) / 16000
        tone = Waveform(0.5 * np.sin(2 * np.pi * 330.0 * t))
        room = RoomModel(distance=1.0, rt60=0.0, snr_db=20.0)
        out = apply_far_field(tone, room, seed=3)
        noise = out.samples - tone.samples
        measured = 20.0 * np.log10(tone.rms() / np.sqrt(np.mean(noise**2)))
        assert abs(measured - 20.0) <= 1.0

    def test_deterministic_given_seed(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        room = RoomModel(distance=3.6, rt60=0.3, snr_db=20.0)
        a = apply_far_field(w, room, seed=11)
        b = apply_far_field(w, room, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_reverb_alters_signal(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        out = apply_far_field(w, RoomModel(distance=1.0, rt60=0.4, snr_db=math.inf), seed=2)
        assert len(out.samples) == len(w.samples)
        assert not np.array_equal(out.samples, w.samples)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6000),
        rt60=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fft_convolution_matches_direct(self, n, rt60, seed):
        # the impulse response is redrawn here exactly as documented; at
        # 16 kHz a 0.5 s tail has 8,001 taps, so it is often longer than x
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
        room = RoomModel(distance=1.0, rt60=rt60, snr_db=math.inf)
        out = apply_far_field(Waveform(x), room, seed=seed).samples
        expected = x
        if rt60 > 0:
            rng = np.random.default_rng(stable_seed("room", seed))
            tail_len = int(rt60 * 16000)
            tt = np.arange(1, tail_len + 1) / 16000
            tail = 0.35 * rng.standard_normal(tail_len) * np.exp(-math.log(1000.0) * tt / rt60)
            expected = np.convolve(x, np.concatenate([[1.0], tail]))[:n]
        assert out.shape == (n,)
        assert np.max(np.abs(out - expected)) <= 1e-9 * np.max(np.abs(x))

    def test_energy_never_increases_with_distance(self):
        w = synthesize_word("consciousness", PROFILE, repeat_index=0)
        rms = [
            apply_far_field(w, RoomModel(distance=d, rt60=0.0, snr_db=math.inf)).rms()
            for d in (1.0, 2.0, 3.6, 8.0)
        ]
        assert all(a >= b for a, b in zip(rms, rms[1:]))

    def test_room_invariants_enforced(self):
        with pytest.raises(ContractError):
            RoomModel(distance=0.0)
        with pytest.raises(ContractError):
            RoomModel(rt60=-0.1)


class TestStftLogmel:
    def test_frame_count_one_second(self):
        w = Waveform(np.zeros(16000))
        spec = stft_logmel(w, window=400, hop=160, n_mels=40)
        assert spec.frames == 98
        assert spec.values.shape == (98, 40)

    def test_silence_floor(self):
        spec = stft_logmel(Waveform(np.zeros(4000)), window=400, hop=160, n_mels=40)
        assert np.allclose(spec.values, np.log(1e-6))

    def test_pure_tone_peak_bin_constant(self):
        t = np.arange(16000) / 16000
        tone = Waveform(0.8 * np.sin(2 * np.pi * 440.0 * t))
        spec = stft_logmel(tone, window=400, hop=160, n_mels=40)
        peaks = np.argmax(spec.values, axis=1)
        assert np.all(peaks == peaks[0])

    def test_short_waveform_rejected(self):
        with pytest.raises(ContractError):
            stft_logmel(Waveform(np.zeros(399)), window=400, hop=160, n_mels=40)

    def test_bad_framing_rejected(self):
        with pytest.raises(ContractError):
            stft_logmel(Waveform(np.zeros(4000)), window=100, hop=160, n_mels=40)
        with pytest.raises(ContractError):
            stft_logmel(Waveform(np.zeros(4000)), window=400, hop=0, n_mels=40)

    def test_values_finite_on_speech(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        spec = stft_logmel(w, window=400, hop=160, n_mels=40)
        assert np.all(np.isfinite(spec.values))

    def test_deterministic(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        a = stft_logmel(w, window=400, hop=160, n_mels=40)
        b = stft_logmel(w, window=400, hop=160, n_mels=40)
        assert np.array_equal(a.values, b.values)

    def test_config_wrapper_uses_parameters(self):
        cfg = FrontendConfig(window=320, hop=80, n_mels=24)
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        spec = frontend_spectrogram(w, cfg)
        assert spec.n_mels == 24
        assert spec.frames == (len(w.samples) - 320) // 80 + 1

    @given(n=st.integers(min_value=400, max_value=20000))
    @settings(max_examples=40, deadline=None)
    def test_frame_count_formula(self, n):
        spec = stft_logmel(Waveform(np.zeros(n)), window=400, hop=160, n_mels=8)
        assert spec.frames == (n - 400) // 160 + 1


class TestMelFilterbank:
    def test_no_all_zero_filter(self):
        bank = mel_filterbank(40, 512, 16000)
        assert bank.shape == (40, 257)
        assert np.all(bank.sum(axis=1) > 0)

    def test_covers_band_up_to_nyquist(self):
        bank = mel_filterbank(40, 512, 16000)
        combined = bank.sum(axis=0)
        # endpoints sit exactly on the outermost triangle feet
        assert np.all(combined[1:-1] > 0)

    def test_weights_nonnegative_and_bounded(self):
        bank = mel_filterbank(24, 256, 16000)
        assert np.all(bank >= 0)
        assert np.all(bank <= 1.0)


class TestWavRoundTrip:
    def test_round_trip_close(self, tmp_path):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        path = tmp_path / "pain.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == w.sample_rate
        assert len(back.samples) == len(w.samples)
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32767.0
