"""Procedural dataset construction from an ICD code list.

Each code description is spoken by concatenating independently
synthesized word recordings.  With `repeats` recordings available per
word, a k-word description has repeats**k distinct combinations; codes
above the per-code cap get a seeded without-replacement sample of that
space.  A manifest stores generation parameters only: every spectrogram
is a pure function of (config, record), so audio is regenerated on
demand and reruns are bit-identical.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources as importlib_resources

import numpy as np

from .audio import (
    FrontendConfig,
    RoomModel,
    SpeakerProfile,
    apply_far_field,
    concat_with_silence,
    stft_logmel,
    synthesize_word,
)
from .errors import ContractError, ParseError, ValidationError
from .lm import Corpus, normalize_line
from .schema import from_payload, read_document, to_payload, write_document
from .seeds import stable_seed

PAD, SOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ("<pad>", "<sos>", "<eos>", "<unk>")
MANIFEST_FORMAT = "manifest-v1"


@dataclass
class IcdCode:
    code: str
    words: list[str]

    def __post_init__(self):
        if not self.words:
            raise ContractError(f"code {self.code} has an empty description")


def load_icd_list(path):
    """Parse a tab-separated "CODE<tab>Description" listing."""
    codes = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            code_id, tab, description = line.partition("\t")
            if not tab:
                raise ParseError("expected a tab between code and description", line=lineno)
            code_id = code_id.strip()
            words = normalize_line(description)
            if not code_id or not words:
                raise ParseError("code and description must both be nonempty", line=lineno)
            if code_id in seen:
                raise ValidationError(f"duplicate code id {code_id!r}")
            seen.add(code_id)
            codes.append(IcdCode(code_id, words))
    return codes


def bundled_icd_path():
    """Path of the 20-code ICD-10 subset shipped with the package."""
    return importlib_resources.files("icdscribe.resources") / "icd20.tsv"


class Vocabulary:
    """Word/id bijection with four reserved leading ids."""

    def __init__(self, content_words):
        self.words = list(SPECIALS) + sorted(set(content_words))
        self._ids = {w: i for i, w in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            raise ContractError("content words collide with reserved tokens")

    def __len__(self):
        return len(self.words)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.words == other.words

    @property
    def content_words(self):
        return self.words[len(SPECIALS):]

    def id_of(self, word):
        return self._ids.get(word, UNK)

    def word_of(self, idx):
        return self.words[idx]

    def encode(self, words):
        """Token ids wrapped in start and end markers."""
        return [SOS] + [self.id_of(w) for w in words] + [EOS]

    def decode(self, ids):
        """Content words only; specials are dropped."""
        return [self.words[i] for i in ids if i >= len(SPECIALS)]


def build_vocabulary(codes):
    if not codes:
        raise ContractError("cannot build a vocabulary from an empty code list")
    return Vocabulary(w for c in codes for w in c.words)


def corpus_from_codes(codes):
    return Corpus([list(c.words) for c in codes])


def default_speakers():
    return [
        SpeakerProfile("spk0", base_pitch=140.0, rate=0.95, seed=101),
        SpeakerProfile("spk1", base_pitch=185.0, rate=1.0, seed=202),
        SpeakerProfile("spk2", base_pitch=230.0, rate=1.1, seed=303),
    ]


@dataclass
class DatasetConfig:
    seed: int = 0
    repeats: int = 5
    cap: int = 50
    gap_range: tuple[float, float] = (0.1, 0.3)
    room: RoomModel = field(default_factory=RoomModel)
    speakers: list[SpeakerProfile] = field(default_factory=default_speakers)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)

    def __post_init__(self):
        ids = [s.speaker_id for s in self.speakers]
        if not ids:
            raise ContractError("speakers must list at least one speaker")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"speakers repeat a speaker id: {ids}")


@dataclass
class UtteranceRecord:
    """Everything needed to regenerate one utterance, minus the audio."""

    code: str
    speaker_id: str
    variation_index: int
    repeat_indices: tuple[int, ...]


@dataclass
class Utterance:
    spectrogram: object
    target: list
    code: str
    speaker_id: str
    variation_index: int


@dataclass
class DatasetManifest:
    config: DatasetConfig
    codes: list[IcdCode]
    records: list[UtteranceRecord]
    train_speakers: list[str]
    test_speakers: list[str]

    @property
    def vocabulary(self):
        return build_vocabulary(self.codes)

    def code_by_id(self, code_id):
        for c in self.codes:
            if c.code == code_id:
                return c
        raise ContractError(f"manifest has no code {code_id!r}")

    def speaker_by_id(self, speaker_id):
        for s in self.config.speakers:
            if s.speaker_id == speaker_id:
                return s
        raise ContractError(f"manifest has no speaker {speaker_id!r}")


def plan_variations(code, speaker, repeats, cap, seed):
    """Choose which repeat-index combinations a (code, speaker) pair gets."""
    if repeats < 1 or cap < 1:
        raise ContractError(f"repeats and cap must be positive, got {repeats}, {cap}")
    k = len(code.words)
    total = repeats**k
    if total <= cap:
        indices = range(total)
    else:
        rng = np.random.default_rng(stable_seed("variations", seed, code.code, speaker.speaker_id))
        chosen = set()
        while len(chosen) < cap:
            for idx in rng.integers(0, total, size=cap):
                chosen.add(int(idx))
                if len(chosen) == cap:
                    break
        indices = sorted(chosen)
    shape = (repeats,) * k
    return [
        UtteranceRecord(
            code=code.code,
            speaker_id=speaker.speaker_id,
            variation_index=var,
            repeat_indices=tuple(int(d) for d in np.unravel_index(idx, shape)),
        )
        for var, idx in enumerate(indices)
    ]


def realize_record(record, code, speaker, config, vocab, recordings=None):
    """Synthesize, degrade and featurize one planned utterance.

    `recordings` maps (word, speaker id, repeat index) to word waveforms
    already synthesized under this config; new ones are added to it.
    """
    target = vocab.encode(code.words)
    if UNK in target:
        missing = [w for w in code.words if vocab.id_of(w) == UNK]
        raise ValidationError(f"words missing from vocabulary: {missing}")
    if len(record.repeat_indices) != len(code.words):
        raise ValidationError(f"{record} needs one repeat index per word of {code.words}")
    recordings = {} if recordings is None else recordings
    waves = []
    for word, rep in zip(code.words, record.repeat_indices):
        key = (word, speaker.speaker_id, rep)
        if key not in recordings:
            recordings[key] = synthesize_word(
                word, speaker, rep, sample_rate=config.frontend.sample_rate
            )
        waves.append(recordings[key])
    gap_rng = np.random.default_rng(
        stable_seed("gaps", config.seed, record.code, record.speaker_id, record.variation_index)
    )
    gaps = gap_rng.uniform(*config.gap_range, size=len(waves) - 1)
    clean = concat_with_silence(waves, list(gaps))
    noise_seed = stable_seed(
        "noise", config.seed, record.code, record.speaker_id, record.variation_index
    )
    far = apply_far_field(clean, config.room, seed=noise_seed)
    spec = stft_logmel(
        far, window=config.frontend.window, hop=config.frontend.hop, n_mels=config.frontend.n_mels
    )
    return Utterance(
        spectrogram=spec,
        target=target,
        code=record.code,
        speaker_id=record.speaker_id,
        variation_index=record.variation_index,
    )


def generate_dataset(codes, config):
    """Manifest covering every (code, speaker) pair under the config."""
    if not codes:
        raise ContractError("cannot generate a dataset from an empty code list")
    build_vocabulary(codes)  # validates early
    records = []
    for speaker in config.speakers:
        for code in codes:
            records.extend(plan_variations(code, speaker, config.repeats, config.cap, config.seed))
    return DatasetManifest(
        config=config,
        codes=list(codes),
        records=records,
        train_speakers=[s.speaker_id for s in config.speakers],
        test_speakers=[],
    )


def realize_utterance(manifest, record, vocab=None, recordings=None):
    return realize_record(
        record,
        manifest.code_by_id(record.code),
        manifest.speaker_by_id(record.speaker_id),
        manifest.config,
        manifest.vocabulary if vocab is None else vocab,
        recordings,
    )


def iter_utterances(manifest):
    """Realize every record in order, synthesizing each distinct word recording once.

    The recordings are shared only within one pass and freed when it ends.
    """
    vocab = manifest.vocabulary
    recordings = {}
    for record in manifest.records:
        yield realize_utterance(manifest, record, vocab, recordings)


def split_by_speaker(manifest, held_out):
    """Partition records into (train, test) by holding one speaker out."""
    known = [s.speaker_id for s in manifest.config.speakers]
    if held_out not in known:
        raise ContractError(f"unknown speaker {held_out!r}; manifest has {known}")
    train = replace(
        manifest,
        records=[r for r in manifest.records if r.speaker_id != held_out],
        train_speakers=[s for s in known if s != held_out],
        test_speakers=[],
    )
    test = replace(
        manifest,
        records=[r for r in manifest.records if r.speaker_id == held_out],
        train_speakers=[],
        test_speakers=[held_out],
    )
    return train, test


def save_manifest(manifest, path):
    write_document(path, MANIFEST_FORMAT, to_payload(manifest))


def load_manifest(path):
    return read_document(path, MANIFEST_FORMAT, partial(from_payload, DatasetManifest))
