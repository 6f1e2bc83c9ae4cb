import bisect
import math
import tracemalloc

import numpy as np
import pytest
from helpers import forged_wav
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe.audio import (
    MAX_WAV_FRAMES,
    RECORD_PEAK,
    FrontendConfig,
    RoomModel,
    SpeakerProfile,
    Waveform,
    apply_far_field,
    concat_with_silence,
    _decay,
    _hann,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    next_fast_len,
    read_wav,
    recording,
    stft_logmel,
    synthesize_word,
    write_wav,
)
from icdscribe.errors import ContractError
from icdscribe.seeds import stable_seed

PROFILE = SpeakerProfile(speaker_id="spk0", seed=7)


def reference_word(word, profile, repeat_index, sample_rate=16000):
    """The per-character harmonic sum that synthesize_word's shared sin/cos basis replaces."""
    rng = np.random.default_rng(
        stable_seed("word", word, profile.speaker_id, profile.seed, repeat_index)
    )
    char_samples = int(round(0.05 * profile.rate * sample_rate))
    pitch = profile.base_pitch * (1.0 + profile.pitch_jitter * rng.uniform(-1.0, 1.0))
    t = np.arange(char_samples) / sample_rate
    harmonics = np.arange(1, int(3800.0 / pitch) + 1)
    bursts = []
    for c in word:
        idx = ord(c) - ord("a")
        f1, f2 = 240.0 + 52.0 * idx, 850.0 + 105.0 * idx
        freqs = harmonics * pitch
        amps = (np.exp(-(((freqs - f1) / 150.0) ** 2))
                + 0.7 * np.exp(-(((freqs - f2) / 220.0) ** 2)) + 0.02)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=len(harmonics))
        angle = 2.0 * math.pi * freqs[:, None] * t + phases[:, None]
        burst = (amps[:, None] * np.sin(angle)).sum(axis=0)
        burst *= np.hanning(char_samples) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
        bursts.append(burst)
    raw = np.concatenate(bursts)
    return np.tanh(raw * (0.9 / np.max(np.abs(raw))))


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
        ratio = (len(long.samples) / long.sample_rate) / (len(short.samples) / short.sample_rate)
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
        assert len(a.samples) / a.sample_rate > len(b.samples) / b.sample_rate

    def test_profile_invariants_enforced(self):
        with pytest.raises(ContractError):
            SpeakerProfile(speaker_id="x", base_pitch=50.0)
        with pytest.raises(ContractError):
            SpeakerProfile(speaker_id="x", rate=1.5)
        with pytest.raises(ContractError):
            SpeakerProfile(speaker_id="x", pitch_jitter=1.0)

    def test_pitch_jitter_bounded_at_one_half(self):
        # at 1/2 the lowest drawn pitch is 40 Hz; near 1 it nears 0 Hz and thousands of harmonics
        profile = SpeakerProfile(speaker_id="x", base_pitch=80.0, pitch_jitter=0.5, seed=3)
        assert np.all(np.isfinite(synthesize_word("pain", profile, repeat_index=0).samples))
        for jitter in (0.51, 0.99):
            with pytest.raises(ContractError, match=r"outside \[0, 0\.5\]"):
                SpeakerProfile(speaker_id="x", pitch_jitter=jitter)

    @settings(max_examples=40, deadline=None)
    @given(
        word=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12),
        pitch=st.floats(80.0, 400.0),
        rate=st.floats(0.7, 1.3),
        repeat_index=st.integers(0, 50),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_shared_basis_matches_the_per_character_sum(
        self, word, pitch, rate, repeat_index, seed
    ):
        profile = SpeakerProfile("spk", base_pitch=pitch, rate=rate, seed=seed)
        samples = synthesize_word(word, profile, repeat_index).samples
        want = reference_word(word, profile, repeat_index)
        assert samples.shape == want.shape
        assert np.max(np.abs(samples - want)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        word=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=16),
        sample_rate=st.integers(8000, 48000),
        pitch=st.floats(80.0, 400.0),
        rate=st.floats(0.7, 1.3),
        repeat_index=st.integers(0, 50),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_rotated_basis_matches_the_per_character_sum_at_any_sample_rate(
        self, word, sample_rate, pitch, rate, repeat_index, seed
    ):
        profile = SpeakerProfile("spk", base_pitch=pitch, rate=rate, seed=seed)
        samples = synthesize_word(word, profile, repeat_index, sample_rate).samples
        want = reference_word(word, profile, repeat_index, sample_rate)
        assert samples.shape == want.shape
        assert np.max(np.abs(samples - want)) <= 1e-12


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


def rms(waveform):
    return float(np.sqrt(np.mean(waveform.samples**2)))


class TestApplyFarField:
    def test_identity_room_is_exact(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        out = apply_far_field(w, RoomModel(rt60=0.0, snr_db=math.inf))
        assert np.array_equal(out.samples, w.samples)

    def test_snr_is_honored(self):
        t = np.arange(16000) / 16000
        tone = Waveform(0.5 * np.sin(2 * np.pi * 330.0 * t))
        room = RoomModel(rt60=0.0, snr_db=20.0)
        out = apply_far_field(tone, room, seed=3)
        noise = out.samples - tone.samples
        measured = 20.0 * np.log10(rms(tone) / np.sqrt(np.mean(noise**2)))
        assert abs(measured - 20.0) <= 1.0

    def test_deterministic_given_seed(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        room = RoomModel(rt60=0.3, snr_db=20.0)
        a = apply_far_field(w, room, seed=11)
        b = apply_far_field(w, room, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_reverb_alters_signal(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        out = apply_far_field(w, RoomModel(rt60=0.4, snr_db=math.inf), seed=2)
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
        room = RoomModel(rt60=rt60, snr_db=math.inf)
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

    def test_padded_length_is_the_smallest_5_smooth_number(self):
        smooth = sorted(2**a * 3**b * 5**c for a in range(40) for b in range(26) for c in range(18)
                        if 2**a * 3**b * 5**c < 2**40)

        def brute(n):
            return smooth[bisect.bisect_left(smooth, n)]

        assert [next_fast_len(n) for n in range(1, 20001)] == [brute(n) for n in range(1, 20001)]
        rng = np.random.default_rng(5)
        for n in rng.integers(20001, 2**36, size=2000).tolist():
            assert next_fast_len(n) == brute(n), n
        assert next_fast_len(32960 + 4801 - 1) == 38400

    def test_room_invariants_enforced(self):
        with pytest.raises(ContractError):
            RoomModel(rt60=-0.1)


FRONTEND = FrontendConfig(window=400, hop=160, n_mels=40)


class TestStftLogmel:
    def test_frame_count_one_second(self):
        w = Waveform(np.zeros(16000))
        spec = stft_logmel(w, FRONTEND)
        assert spec.shape[0] == 98
        assert spec.shape == (98, 40)

    def test_silence_floor(self):
        # the 1e-6 floor keeps the log of silence's zero magnitudes finite
        spec = stft_logmel(Waveform(np.zeros(4000)), FRONTEND)
        assert np.all(np.isfinite(spec))

    def test_constant_input_is_safe(self):
        # silence's log-mel is a constant with no variance: normalization leaves zeros
        spec = stft_logmel(Waveform(np.zeros(4000)), FRONTEND)
        assert np.array_equal(spec, np.zeros_like(spec))

    def test_speech_has_zero_mean_unit_variance(self):
        w = apply_far_field(synthesize_word("pain", PROFILE, repeat_index=0), RoomModel(), seed=1)
        spec = stft_logmel(w, FRONTEND)
        assert spec.mean() == pytest.approx(0.0, abs=1e-12)
        assert spec.std() == pytest.approx(1.0, abs=1e-12)

    def test_pure_tone_peak_bin_constant(self):
        t = np.arange(16000) / 16000
        tone = Waveform(0.8 * np.sin(2 * np.pi * 440.0 * t))
        spec = stft_logmel(tone, FRONTEND)
        peaks = np.argmax(spec, axis=1)
        assert np.all(peaks == peaks[0])

    def test_short_waveform_rejected(self):
        with pytest.raises(ContractError):
            stft_logmel(Waveform(np.zeros(399)), FRONTEND)

    def test_bad_framing_rejected(self):
        with pytest.raises(ContractError):
            stft_logmel(Waveform(np.zeros(4000)), FrontendConfig(window=100, hop=160, n_mels=40))
        with pytest.raises(ContractError):
            stft_logmel(Waveform(np.zeros(4000)), FrontendConfig(window=400, hop=0, n_mels=40))

    def test_stft_rejects_another_sample_rate(self):
        w = Waveform(np.zeros(8000), sample_rate=8000)
        with pytest.raises(ContractError, match="8000 Hz"):
            stft_logmel(w, FRONTEND)

    def test_values_finite_on_speech(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        spec = stft_logmel(w, FRONTEND)
        assert np.all(np.isfinite(spec))

    def test_deterministic(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        a = stft_logmel(w, FRONTEND)
        b = stft_logmel(w, FRONTEND)
        assert np.array_equal(a, b)

    def test_config_wrapper_uses_parameters(self):
        cfg = FrontendConfig(window=320, hop=80, n_mels=24)
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        spec = stft_logmel(w, cfg)
        assert spec.shape == ((len(w.samples) - 320) // 80 + 1, 24)

    @given(n=st.integers(min_value=400, max_value=20000))
    @settings(max_examples=40, deadline=None)
    def test_frame_count_formula(self, n):
        spec = stft_logmel(Waveform(np.zeros(n)), FrontendConfig(window=400, hop=160, n_mels=8))
        assert spec.shape[0] == (n - 400) // 160 + 1


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

    @pytest.mark.parametrize("n_mels", [1, 2, 24, 40, 129])
    @pytest.mark.parametrize("n_fft, sample_rate", [(256, 8000), (512, 16000), (1024, 22050),
                                                     (4096, 48000)])
    def test_matches_a_per_filter_loop_byte_for_byte(self, n_mels, n_fft, sample_rate):
        nyquist = sample_rate / 2.0
        bin_freqs = np.linspace(0.0, nyquist, n_fft // 2 + 1)
        edges = mel_to_hz(np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2))
        want = np.zeros((n_mels, len(bin_freqs)))
        for m in range(n_mels):
            left, center, right = edges[m], edges[m + 1], edges[m + 2]
            up = (bin_freqs - left) / (center - left)
            down = (right - bin_freqs) / (right - center)
            want[m] = np.clip(np.minimum(up, down), 0.0, None)
        bank = mel_filterbank.__wrapped__(n_mels, n_fft, sample_rate)
        assert bank.shape == want.shape and bank.tobytes() == want.tobytes()


class TestCachedTables:
    def test_bank_and_window_are_shared_and_read_only(self):
        assert mel_filterbank(40, 512, 16000) is mel_filterbank(40, 512, 16000)
        assert _hann(400) is _hann(400)
        for table in (mel_filterbank(40, 512, 16000), _hann(400)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_stft_matches_a_fresh_bank_and_window(self):
        w = apply_far_field(synthesize_word("pain", PROFILE, repeat_index=0), RoomModel(), seed=1)
        frames = np.lib.stride_tricks.sliding_window_view(w.samples, 400)[::160]
        magnitude = np.abs(np.fft.rfft(frames * np.hanning(400), n=512, axis=-1))
        bank = mel_filterbank.__wrapped__(40, 512, 16000)
        logmel = np.log(magnitude @ bank.T + 1e-6)
        want = (logmel - logmel.mean()) / logmel.std()
        for _ in range(2):  # cold, then warm cache
            assert np.array_equal(stft_logmel(w, FRONTEND), want)

    def test_decay_is_shared_per_tail_and_read_only(self):
        decay = _decay(4800, 16000, 0.3)
        assert decay is _decay(4800, 16000, 0.3)
        assert decay is not _decay(4800, 16000, 0.31)
        assert decay is not _decay(2400, 8000, 0.3)
        assert not decay.flags.writeable
        with pytest.raises(ValueError):
            decay[0] = 1.0
        tt = np.arange(1, 4801) / 16000
        assert np.array_equal(decay, np.exp(-6.907755278982137 * tt / 0.3))  # -60 dB at rt60


class TestRecording:
    @settings(max_examples=40, deadline=None)
    @given(
        rt60=st.floats(0.0, 2.0),
        snr_db=st.one_of(st.floats(-100.0, 200.0), st.just(math.inf)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_recording_lies_on_the_16_bit_grid_and_survives_a_wav(self, tmp_path_factory,
                                                                    rt60, snr_db, seed):
        far = apply_far_field(synthesize_word("pain", PROFILE, repeat_index=0),
                              RoomModel(rt60=rt60, snr_db=snr_db), seed=seed)
        recorded = recording(far)
        assert recorded.sample_rate == far.sample_rate
        assert len(recorded.samples) == len(far.samples)
        pcm = np.rint(recorded.samples * 32767.0)
        assert np.array_equal(pcm / 32767.0, recorded.samples)  # read_wav's value of that pcm
        assert np.max(np.abs(recorded.samples)) <= RECORD_PEAK
        path = tmp_path_factory.mktemp("wav") / "far.wav"
        write_wav(path, recorded)
        back = read_wav(path)
        assert back.sample_rate == recorded.sample_rate
        assert back.samples.tobytes() == recorded.samples.tobytes()

    def test_the_fixed_peak_cancels_a_gain(self):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        far = apply_far_field(w, RoomModel(), seed=4)
        recorded = recording(far).samples
        assert np.max(np.abs(recorded)) == round(RECORD_PEAK * 32767.0) / 32767.0
        for gain in (1 / 3.6, 1 / 8.0, 5.0):
            scaled = recording(Waveform(far.samples * gain)).samples
            assert np.max(np.abs(scaled - recorded)) <= 1.0 / 32767.0

    def test_silence_stays_silent(self):
        assert np.array_equal(recording(Waveform(np.zeros(400))).samples, np.zeros(400))


class TestWavRoundTrip:
    def test_round_trip_close(self, tmp_path):
        w = synthesize_word("pain", PROFILE, repeat_index=0)
        path = tmp_path / "pain.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == w.sample_rate
        assert len(back.samples) == len(w.samples)
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32767.0

    @pytest.mark.parametrize("peak", [1.5, -1.0001, math.nan])
    def test_samples_beyond_full_scale_are_refused_not_clipped(self, tmp_path, peak):
        samples = 0.5 * np.sin(np.arange(1600) / 7.0)
        samples[800] = peak
        path = tmp_path / "loud.wav"
        with pytest.raises(ContractError) as refused:
            write_wav(path, Waveform(samples))
        assert str(refused.value).startswith(f"{path}: samples peak at ")
        assert "\n" not in str(refused.value) and not path.exists()

    def test_full_scale_is_written(self, tmp_path):
        path = tmp_path / "full.wav"
        write_wav(path, Waveform(np.array([1.0, -1.0, 0.0])))
        assert np.array_equal(read_wav(path).samples, [1.0, -1.0, 0.0])

    @pytest.mark.parametrize("frames", [MAX_WAV_FRAMES + 1, 2**31 - 20])
    def test_a_header_declaring_too_many_frames_is_refused_before_any_read(self, tmp_path,
                                                                          frames):
        path = tmp_path / "forged.wav"
        forged_wav(path, frames)
        tracemalloc.start()
        try:
            with pytest.raises(ContractError) as refused:
                read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"declares {frames} frames" in str(refused.value)
        assert peak < 256 * 1024  # reading the samples it claims would take 2.9 MB or more

    @pytest.mark.parametrize("cut, held", [(1000, 15500), (1001, 15499), (32000, 0)])
    def test_data_shorter_than_its_header_is_refused(self, tmp_path, cut, held):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.zeros(16000)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ContractError) as refused:
            read_wav(path)
        assert str(refused.value) == (f"{path} is not a readable wav file: data holds "
                                      f"{held} of the 16000 frames declared")

    def test_a_header_at_the_bound_is_read(self, tmp_path):
        path = tmp_path / "long.wav"
        write_wav(path, Waveform(np.zeros(MAX_WAV_FRAMES), 48000))
        assert len(read_wav(path).samples) == MAX_WAV_FRAMES
