"""Synthetic far-field audio and log-mel feature extraction.

The private recordings this pipeline was designed around cannot be
redistributed, so words are synthesized deterministically instead: each
character maps to a fixed pair of formant-like resonances, excited by a
harmonic stack at the speaker's pitch.  Word identity is therefore
acoustically recoverable across speakers (formants are shared, pitch is
not), which is the property the acoustic model needs.  The room model
applies an exponentially decaying impulse response and additive noise at a
target SNR, and `recording` ends realization where a recorder does: 16-bit
samples at a fixed peak, which `write_wav` stores and `read_wav` returns
unchanged.  Every stage is a pure function of its inputs and seeds.
"""

import functools
import math
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .schema import INF_AS_NULL, check_bounds, within
from .seeds import stable_seed

DEFAULT_SAMPLE_RATE = 16000

# the highest `frontend.sample_rate`: `synthesize_word` builds a complex [harmonics,
# CHAR_SECONDS * rate * sample_rate] basis per word
MAX_SAMPLE_RATE = 48_000
# the widest STFT window: `mel_filterbank` builds an [n_mels, n_fft / 2 + 1] array
MAX_WINDOW = 4096
# the longest wav `read_wav` accepts: 30 s at the highest rate, 2.9 MB of samples
MAX_WAV_FRAMES = 30 * MAX_SAMPLE_RATE
# the most frames x (n_fft / 2 + 1) magnitudes `stft_logmel` holds, 80 MB of float64: 30 s at
# 16 kHz fits at the widest window and default hop; the bounds above alone admit 23.5 GB
MAX_SPECTRUM_VALUES = 10_000_000
# frames per `rfft` call in `stft_logmel`: its windowed frames and complex spectrum hold this
# many frames, not the utterance's
STFT_BLOCK = 64

# seconds of audio synthesized per character at rate multiplier 1.0
CHAR_SECONDS = 0.05
# a recording's peak, as a fraction of 16-bit full scale: the level `synthesize_word` scales to
RECORD_PEAK = 0.9

# resonance pair per character: spread across the band so distinct
# characters produce distinct spectral envelopes
_F1_BASE, _F1_STEP = 240.0, 52.0
_F2_BASE, _F2_STEP = 850.0, 105.0
_MAX_HARMONIC_HZ = 3800.0


@dataclass
class Waveform:
    """Mono float64 audio samples; `synthesize_word`'s lie in (-1, 1), but reverberation and
    noise in `apply_far_field` can carry them past ±1, which `recording` scales back."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)


@dataclass
class SpeakerProfile:
    """Per-speaker voice parameters; jitter draws are seeded per utterance."""

    speaker_id: str
    base_pitch: float = field(default=160.0, metadata=within(80.0, 400.0))  # Hz
    # up to 1/2, a drawn pitch stays in [40, 600] Hz: every word has 6 to 95 harmonics
    pitch_jitter: float = field(default=0.08, metadata=within(0.0, 0.5))
    rate: float = field(default=1.0, metadata=within(0.7, 1.3))
    seed: int = 0

    __post_init__ = check_bounds


@dataclass
class RoomModel:
    """Far-field acoustic channel: reverberation, noise floor."""

    rt60: float = field(default=0.3, metadata=within(0.0, 2.0))  # s; rt60 * sample_rate IR taps
    # dB: at -100 the noise RMS is 10**5 times the signal's, and the gain overflows near
    # -6,165 dB; +inf (stored as null) adds no noise
    snr_db: float = field(default=20.0, metadata={**INF_AS_NULL, **within(-100.0, math.inf, "[]")})

    __post_init__ = check_bounds


@dataclass
class FrontendConfig:
    # the rate must exceed twice the highest synthesized harmonic
    sample_rate: int = field(default=DEFAULT_SAMPLE_RATE,
                             metadata=within(2 * _MAX_HARMONIC_HZ, MAX_SAMPLE_RATE, "(]"))
    window: int = field(default=400, metadata=within(1, MAX_WINDOW))
    hop: int = field(default=160, metadata=within(1))
    n_mels: int = 40

    def __post_init__(self):
        check_bounds(self)
        if self.hop > self.window:
            raise ContractError(f"hop {self.hop} outside [1, {self.window}], the window")
        if not 1 <= self.n_mels <= self.n_fft // 2 + 1:
            raise ContractError(f"n_mels {self.n_mels} outside [1, {self.n_fft // 2 + 1}], "
                                f"the frequency bins of a {self.n_fft}-point FFT")

    @property
    def n_fft(self):
        """The FFT length: the window rounded up to a power of two."""
        return 1 << (self.window - 1).bit_length()


@functools.lru_cache(maxsize=16)
def _hann(n):
    """The read-only n-point Hann window, shared by the STFT and the character envelope."""
    window = np.hanning(n)
    window.setflags(write=False)
    return window


def speakable(word):
    """Whether `synthesize_word` can voice `word`: one or more lowercase ASCII letters."""
    return word.isascii() and word.isalpha() and word == word.lower()


def synthesize_word(word, profile, repeat_index, sample_rate=DEFAULT_SAMPLE_RATE):
    """Deterministic waveform for (word, speaker, repeat_index).

    Each character becomes a Hann-enveloped harmonic burst whose spectral
    envelope peaks at the character's formant pair; total duration is
    proportional to character count times the speaker's rate multiplier.
    Distinct repeat indices re-draw pitch jitter, phases and per-character
    amplitudes, giving distinct realizations of the same word.
    """
    if not speakable(word):
        raise ContractError(f"word must be lowercase alphabetic, got {word!r}")
    rng = np.random.default_rng(
        stable_seed("word", word, profile.speaker_id, profile.seed, repeat_index)
    )
    char_samples = int(round(CHAR_SECONDS * profile.rate * sample_rate))
    pitch = profile.base_pitch * (1.0 + profile.pitch_jitter * rng.uniform(-1.0, 1.0))
    t = np.arange(char_samples) / sample_rate
    freqs = np.arange(1, int(_MAX_HARMONIC_HZ / pitch) + 1) * pitch
    # row h of rot is e^{i(h+1)wt}: row 0 is e^{iwt}, and rows [k, 2k) are rows [0, k) times
    # row k - 1, so about log2 H complex products stand in for H * T sin and cos calls
    rot = np.empty((len(freqs), char_samples), dtype=np.complex128)
    rot[0] = np.exp(2j * math.pi * pitch * t)
    k = 1
    while k < len(freqs):
        n = min(k, len(freqs) - k)
        np.multiply(rot[:n], rot[k - 1], out=rot[k : k + n])
        k += n
    # sin(a + phase) = sin a cos phase + cos a sin phase: one [2H, T] basis of sin (the
    # imaginary parts) and cos (the real parts) for every character
    basis = np.concatenate([rot.imag, rot.real])
    idx = np.frombuffer(word.encode("ascii"), dtype=np.uint8)[:, None] - ord("a")
    f1, f2 = _F1_BASE + _F1_STEP * idx, _F2_BASE + _F2_STEP * idx
    amps = (
        np.exp(-(((freqs - f1) / 150.0) ** 2)) + 0.7 * np.exp(-(((freqs - f2) / 220.0) ** 2)) + 0.02
    )
    # per character, in order: H phases uniform on [0, 2 pi), then one amplitude jitter on [-1, 1)
    draws = rng.uniform(size=(len(word), len(freqs) + 1))
    phases = 2.0 * math.pi * draws[:, :-1]
    jitter = 1.0 + 0.1 * (-1.0 + 2.0 * draws[:, -1:])
    coef = np.concatenate([amps * np.cos(phases), amps * np.sin(phases)], axis=1)
    raw = ((coef @ basis) * (_hann(char_samples) * jitter)).reshape(-1)
    peak = np.max(np.abs(raw))
    if peak > 0:
        raw = raw * (0.9 / peak)
    return Waveform(np.tanh(raw), sample_rate)


def concat_with_silence(waves, gaps_s, edge_pad_s=0.06):
    """Join word waveforms with the given inter-word silences (seconds)."""
    if len(gaps_s) != len(waves) - 1:
        raise ContractError(f"{len(waves)} words need {len(waves) - 1} gaps, got {len(gaps_s)}")
    sr = waves[0].sample_rate
    edge = np.zeros(int(round(edge_pad_s * sr)))
    pieces = [edge]
    for i, w in enumerate(waves):
        pieces.append(w.samples)
        if i < len(gaps_s):
            pieces.append(np.zeros(int(round(gaps_s[i] * sr))))
    pieces.append(edge)
    return Waveform(np.concatenate(pieces), sr)


def next_fast_len(n):
    """The smallest 2^a * 3^b * 5^c >= n, a length the FFT handles nearly as fast as 2^k."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 = 3^b * 5^c; the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _decay(tail_len, sample_rate, rt60):
    """The read-only envelope of the impulse-response tail: -60 dB at rt60, one entry per tap."""
    tt = np.arange(1, tail_len + 1) / sample_rate
    decay = np.exp(-6.907755278982137 * tt / rt60)
    decay.setflags(write=False)
    return decay


def apply_far_field(w, room, seed=0):
    """Push a close-talk waveform through the room model.

    Convolves with a synthetic impulse response (unit direct path plus an
    exponentially decaying noise tail when rt60 > 0) by one FFT product,
    zero-padded to a 5-smooth length, keeping the first len(samples) outputs,
    then adds white noise at exactly the configured SNR.  `seed` draws the
    impulse-response tail and the noise.  Neutral parameters (rt60 0,
    infinite SNR) return the input unchanged.
    """
    rng = np.random.default_rng(stable_seed("room", seed))
    samples = w.samples
    if room.rt60 > 0:
        tail_len = int(room.rt60 * w.sample_rate)
        tail = 0.35 * rng.standard_normal(tail_len) * _decay(tail_len, w.sample_rate, room.rt60)
        ir = np.concatenate([[1.0], tail])
        size = next_fast_len(len(samples) + len(ir) - 1)
        spectrum = np.fft.rfft(samples, size)
        spectrum *= np.fft.rfft(ir, size)
        samples = np.fft.irfft(spectrum, size)[: len(samples)]
    if math.isfinite(room.snr_db):
        signal_rms = float(np.sqrt(np.mean(samples**2)))
        if signal_rms > 0:
            noise = rng.standard_normal(len(samples))
            noise /= np.sqrt(np.mean(noise**2))
            # in place, the operands of samples + noise * rms * gain in the same order
            noise *= signal_rms
            noise *= 10.0 ** (-room.snr_db / 20.0)
            noise += samples
            samples = noise
    return Waveform(samples, w.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_mels, n_fft, sample_rate):
    """Triangular filters from 0 Hz to Nyquist, returned read-only as [n_mels, bins]."""
    nyquist = sample_rate / 2.0
    bin_freqs = np.linspace(0.0, nyquist, n_fft // 2 + 1)
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2))[:, None]
    left, center, right = edges[:-2], edges[1:-1], edges[2:]  # filter m spans edges m..m + 2
    up = (bin_freqs - left) / (center - left)
    down = (right - bin_freqs) / (right - center)
    bank = np.clip(np.minimum(up, down), 0.0, None)
    bank.setflags(write=False)
    return bank


def stft_logmel(w, cfg):
    """Hann-window magnitude STFT, mel filterbank, log(x + 1e-6), then per-utterance
    normalization to mean 0 and standard deviation 1: the encoder's input as it stands.

    Returns a float64 [frames, n_mels] array, frames = floor((num_samples -
    window) / hop) + 1; one with no variance (silence) is all zeros.  Audio
    not at the config's sample rate is rejected, and so is a spectrogram of
    more than `MAX_SPECTRUM_VALUES` magnitudes, before it is allocated.  The
    FFT runs over `STFT_BLOCK` frames at a time into one magnitude table; the
    mel projection is one product over the whole table, as a row of a product
    can depend on its row count.
    """
    if w.sample_rate != cfg.sample_rate:
        raise ContractError(f"audio is sampled at {w.sample_rate} Hz, not {cfg.sample_rate} Hz")
    window, hop, bins = cfg.window, cfg.hop, cfg.n_fft // 2 + 1
    n = len(w.samples)
    if n < window:
        raise ContractError(f"waveform of {n} samples is shorter than one {window}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window)[::hop]
    if len(frames) * bins > MAX_SPECTRUM_VALUES:
        raise ContractError(f"{len(frames)} frames of {bins} frequency bins are "
                            f"{len(frames) * bins:,} magnitudes, more than the "
                            f"{MAX_SPECTRUM_VALUES:,} a spectrogram may hold")
    magnitude = np.empty((len(frames), bins))
    for start in range(0, len(frames), STFT_BLOCK):
        block = frames[start : start + STFT_BLOCK] * _hann(window)
        spectrum = np.fft.rfft(block, n=cfg.n_fft, axis=-1)
        np.abs(spectrum, out=magnitude[start : start + STFT_BLOCK])
    bank = mel_filterbank(cfg.n_mels, cfg.n_fft, w.sample_rate)
    logmel = magnitude @ bank.T
    del magnitude
    logmel += 1e-6  # in place from here on: the result is the array the product made
    np.log(logmel, out=logmel)
    std = logmel.std()
    logmel -= logmel.mean()
    logmel /= std if std > 1e-8 else 1.0
    return logmel


frontend_spectrogram = stft_logmel  # the benchmark's transcribe pass calls this name


def _pcm(samples, gain=1.0):
    """`samples * gain`, which lie in [-1, 1], rounded to 16-bit steps of 1/32767."""
    # one temporary, scaled and rounded in place: realization runs beside decoding
    steps = samples * gain
    steps *= 32767.0
    return np.rint(steps, out=steps).astype("<i2")


def recording(w):
    """What a recorder keeps of `w`: scaled to peak at `RECORD_PEAK` of full scale and rounded
    to 16-bit steps.  Its samples are `pcm / 32767`, what `read_wav` returns for that pcm, so
    `write_wav` and `read_wav` carry them bit for bit; silence stays silent."""
    peak = max(w.samples.max(initial=0.0), -w.samples.min(initial=0.0))
    pcm = _pcm(w.samples, RECORD_PEAK / peak if peak > 0 else 1.0)
    return Waveform(pcm / 32767.0, w.sample_rate)


def write_wav(path, w):
    """Mono 16-bit PCM; samples beyond full scale (±1) are refused, not clipped."""
    peak = np.max(np.abs(w.samples), initial=0.0)
    if not peak <= 1.0:  # NaN too
        raise ContractError(f"{path}: samples peak at {peak:.4g}, beyond 16-bit full scale (1)")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(_pcm(w.samples).tobytes())


def read_wav(path):
    """Mono 16-bit PCM audio; a file that is not a complete wav raises ContractError.

    A header that declares more than `MAX_WAV_FRAMES` frames is refused
    before any sample is read, whatever rate it states.
    """
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
                raise ContractError("only mono 16-bit PCM input is supported")
            if fh.getnframes() > MAX_WAV_FRAMES:
                raise ContractError(f"{path} declares {fh.getnframes()} frames, more than the "
                                    f"{MAX_WAV_FRAMES} (30 s at 48 kHz) a wav may hold")
            rate, declared = fh.getframerate(), fh.getnframes()
            raw = fh.readframes(declared)
            if len(raw) != 2 * declared:
                raise wave.Error(f"data holds {len(raw) // 2} of the {declared} frames declared")
    except (wave.Error, EOFError) as exc:
        detail = str(exc) or "it ends early"
        raise ContractError(f"{path} is not a readable wav file: {detail}") from None
    pcm = np.frombuffer(raw, dtype="<i2")
    return Waveform(pcm / 32767.0, rate)  # float64, converted by the division itself
