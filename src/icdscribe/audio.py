"""Synthetic far-field audio and log-mel feature extraction.

The private recordings this pipeline was designed around cannot be
redistributed, so words are synthesized deterministically instead: each
character maps to a fixed pair of formant-like resonances, excited by a
harmonic stack at the speaker's pitch.  Word identity is therefore
acoustically recoverable across speakers (formants are shared, pitch is
not), which is the property the acoustic model needs.  The room model
applies distance attenuation, an exponentially decaying impulse response
and additive noise at a target SNR.  All three stages are pure functions
of their inputs and seeds.
"""

import math
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .schema import INF_AS_NULL
from .seeds import stable_seed

DEFAULT_SAMPLE_RATE = 16000

# seconds of audio synthesized per character at rate multiplier 1.0
CHAR_SECONDS = 0.05

# resonance pair per character: spread across the band so distinct
# characters produce distinct spectral envelopes
_F1_BASE, _F1_STEP = 240.0, 52.0
_F2_BASE, _F2_STEP = 850.0, 105.0
_MAX_HARMONIC_HZ = 3800.0


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate

    def rms(self):
        if len(self.samples) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass
class SpeakerProfile:
    """Per-speaker voice parameters; jitter draws are seeded per utterance."""

    speaker_id: str
    base_pitch: float = 160.0
    pitch_jitter: float = 0.08
    rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 80.0 <= self.base_pitch <= 400.0:
            raise ContractError(f"base pitch {self.base_pitch} outside [80, 400] Hz")
        if not 0.7 <= self.rate <= 1.3:
            raise ContractError(f"rate multiplier {self.rate} outside [0.7, 1.3]")


@dataclass
class RoomModel:
    """Far-field acoustic channel: distance, reverberation, noise floor."""

    distance: float = 3.6
    rt60: float = 0.3
    snr_db: float = field(default=20.0, metadata=INF_AS_NULL)

    def __post_init__(self):
        if self.distance <= 0:
            raise ContractError(f"source distance must be positive, got {self.distance}")
        if self.rt60 < 0:
            raise ContractError(f"reverberation time must be nonnegative, got {self.rt60}")


IDENTITY_ROOM = RoomModel(distance=1.0, rt60=0.0, snr_db=math.inf)


@dataclass
class FrontendConfig:
    sample_rate: int = DEFAULT_SAMPLE_RATE
    window: int = 400
    hop: int = 160
    n_mels: int = 40


@dataclass
class Spectrogram:
    """Log-mel features, one row per frame."""

    values: np.ndarray  # [frames, n_mels]
    window: int
    hop: int
    n_mels: int
    sample_rate: int

    @property
    def frames(self):
        return self.values.shape[0]


def _char_formants(c):
    idx = ord(c) - ord("a")
    return _F1_BASE + _F1_STEP * idx, _F2_BASE + _F2_STEP * idx


def synthesize_word(word, profile, repeat_index, sample_rate=DEFAULT_SAMPLE_RATE):
    """Deterministic waveform for (word, speaker, repeat_index).

    Each character becomes a Hann-enveloped harmonic burst whose spectral
    envelope peaks at the character's formant pair; total duration is
    proportional to character count times the speaker's rate multiplier.
    Distinct repeat indices re-draw pitch jitter, phases and per-character
    amplitudes, giving distinct realizations of the same word.
    """
    if not word:
        raise ContractError("cannot synthesize an empty word")
    if not (word.isascii() and word.isalpha() and word == word.lower()):
        raise ContractError(f"word must be lowercase alphabetic, got {word!r}")
    rng = np.random.default_rng(
        stable_seed("word", word, profile.speaker_id, profile.seed, repeat_index)
    )
    char_samples = int(round(CHAR_SECONDS * profile.rate * sample_rate))
    pitch = profile.base_pitch * (1.0 + profile.pitch_jitter * rng.uniform(-1.0, 1.0))
    t = np.arange(char_samples) / sample_rate
    envelope = np.hanning(char_samples)
    harmonics = np.arange(1, int(_MAX_HARMONIC_HZ / pitch) + 1)

    bursts = []
    for c in word:
        f1, f2 = _char_formants(c)
        freqs = harmonics * pitch
        amps = (
            np.exp(-(((freqs - f1) / 150.0) ** 2))
            + 0.7 * np.exp(-(((freqs - f2) / 220.0) ** 2))
            + 0.02
        )
        phases = rng.uniform(0.0, 2.0 * math.pi, size=len(harmonics))
        burst = (amps[:, None] * np.sin(2.0 * math.pi * freqs[:, None] * t + phases[:, None])).sum(axis=0)
        burst *= envelope * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
        bursts.append(burst)

    raw = np.concatenate(bursts)
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


def apply_far_field(w, room, seed=0):
    """Push a close-talk waveform through the room model.

    Convolves with a synthetic impulse response (unit direct path plus an
    exponentially decaying noise tail when rt60 > 0) by one zero-padded FFT
    product, keeping the first len(samples) outputs; scales by 1/distance,
    then adds white noise at exactly the configured SNR.  `seed` draws the
    impulse-response tail and the noise.  Neutral parameters (distance 1,
    rt60 0, infinite SNR) return the input unchanged.
    """
    rng = np.random.default_rng(stable_seed("room", seed))
    samples = w.samples
    if room.rt60 > 0:
        tail_len = int(room.rt60 * w.sample_rate)
        tt = np.arange(1, tail_len + 1) / w.sample_rate
        decay = np.exp(-6.907755278982137 * tt / room.rt60)  # -60 dB at rt60
        tail = 0.35 * rng.standard_normal(tail_len) * decay
        ir = np.concatenate([[1.0], tail])
        size = 1 << (len(samples) + len(ir) - 2).bit_length()  # power of two >= full length
        spectrum = np.fft.rfft(samples, size) * np.fft.rfft(ir, size)
        samples = np.fft.irfft(spectrum, size)[: len(samples)]
    samples = samples / room.distance
    if math.isfinite(room.snr_db):
        signal_rms = float(np.sqrt(np.mean(samples**2)))
        if signal_rms > 0:
            noise = rng.standard_normal(len(samples))
            noise /= np.sqrt(np.mean(noise**2))
            samples = samples + noise * signal_rms * 10.0 ** (-room.snr_db / 20.0)
    return Waveform(samples, w.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels, n_fft, sample_rate):
    """Triangular filters from 0 Hz to Nyquist, returned as [n_mels, bins]."""
    nyquist = sample_rate / 2.0
    bin_freqs = np.linspace(0.0, nyquist, n_fft // 2 + 1)
    mel_points = np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2)
    edges = mel_to_hz(mel_points)
    bank = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        bank[m] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


def stft_logmel(w, window=400, hop=160, n_mels=40):
    """Hann-window magnitude STFT, mel filterbank, then log(x + 1e-6).

    Frame count is floor((num_samples - window) / hop) + 1.
    """
    if hop <= 0 or window < hop:
        raise ContractError(f"need window >= hop > 0, got window={window} hop={hop}")
    n = len(w.samples)
    if n < window:
        raise ContractError(f"waveform of {n} samples is shorter than one {window}-sample window")
    n_fft = 1 << (window - 1).bit_length()
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window)[::hop]
    magnitude = np.abs(np.fft.rfft(frames * np.hanning(window), n=n_fft, axis=-1))
    bank = mel_filterbank(n_mels, n_fft, w.sample_rate)
    values = np.log(magnitude @ bank.T + 1e-6)
    return Spectrogram(values, window, hop, n_mels, w.sample_rate)


def frontend_spectrogram(w, cfg):
    """Features under a front-end config; audio at any other sample rate is rejected."""
    if w.sample_rate != cfg.sample_rate:
        raise ContractError(f"audio is sampled at {w.sample_rate} Hz, not {cfg.sample_rate} Hz")
    return stft_logmel(w, window=cfg.window, hop=cfg.hop, n_mels=cfg.n_mels)


def write_wav(path, w):
    """Debug export as mono 16-bit PCM."""
    quantized = np.clip(w.samples, -1.0, 1.0)
    pcm = (quantized * 32767.0).round().astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path):
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ContractError("only mono 16-bit PCM input is supported")
        rate = fh.getframerate()
        pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return Waveform(pcm.astype(np.float64) / 32767.0, rate)
