"""Procedural dataset construction from an ICD code list.

Each code description is spoken by concatenating independently
synthesized word recordings.  With `repeats` recordings available per
word, a k-word description has repeats**k distinct combinations; codes
above the per-code cap get a seeded without-replacement sample of that
space.  A manifest stores generation parameters only: every spectrogram
is a pure function of (config, record), so audio is regenerated on
demand and reruns are bit-identical.
"""

import collections
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
    recording,
    speakable,
    stft_logmel,
    synthesize_word,
)
from .autodiff import mapped
from .errors import ContractError
from .lm import normalize_line
from .schema import (
    check_bounds, from_payload, read_document, read_lines, to_payload, within, write_document,
)
from .seeds import stable_seed

PAD, SOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ("<pad>", "<sos>", "<eos>", "<unk>")
MANIFEST_FORMAT = "manifest-v3"
# a sampled plan draws `cap` int64 indices at once: at most 800 kB
MAX_CAP = 100_000
# every planned record is kept in the manifest, and each is realized by `train` or `evaluate`
MAX_RECORDS = 1_000_000


@dataclass
class IcdCode:
    code: str
    words: list[str]

    def __post_init__(self):
        if not self.code or not self.words or not all(map(speakable, self.words)):
            raise ContractError(f"code {self.code!r} needs an id and a description of "
                                f"lowercase alphabetic words, got {self.words}")


def load_icd_list(path):
    """Parse a tab-separated "CODE<tab>Description" listing; a manifest refuses a repeated id."""
    codes = []
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        code_id, tab, description = line.partition("\t")
        if not tab:
            raise ContractError(f"{path}: line {lineno}: expected a tab between code "
                                f"and description")
        try:
            codes.append(IcdCode(code_id.strip(), normalize_line(description)))
        except ContractError as exc:
            raise ContractError(f"{path}: line {lineno}: {exc}") from None
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


def default_speakers():
    return [
        SpeakerProfile("spk0", base_pitch=140.0, rate=0.95, seed=101),
        SpeakerProfile("spk1", base_pitch=185.0, rate=1.0, seed=202),
        SpeakerProfile("spk2", base_pitch=230.0, rate=1.1, seed=303),
    ]


@dataclass
class DatasetConfig:
    seed: int = 0
    repeats: int = field(default=5, metadata=within(1))
    cap: int = field(default=50, metadata=within(1, MAX_CAP))
    gap_range: tuple[float, float] = (0.1, 0.3)
    room: RoomModel = field(default_factory=RoomModel)
    speakers: list[SpeakerProfile] = field(default_factory=default_speakers)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)

    def __post_init__(self):
        check_bounds(self)
        ids = [s.speaker_id for s in self.speakers]
        if not ids:
            raise ContractError("speakers must list at least one speaker")
        if len(set(ids)) != len(ids):
            raise ContractError(f"speakers repeat a speaker id: {ids}")
        low, high = self.gap_range
        if not 0 <= low <= high <= 2.0:  # every word gap is up to `high` s of zeros
            raise ContractError(f"gap_range {list(self.gap_range)} must satisfy "
                                f"0 <= low <= high <= 2 s")


@dataclass
class UtteranceRecord:
    """Everything needed to regenerate one utterance, minus the audio."""

    code: str
    speaker_id: str
    variation_index: int
    repeat_indices: tuple[int, ...]


@dataclass
class Utterance:
    spectrogram: np.ndarray  # normalized log-mel features, [frames, n_mels]: the encoder's input
    target: list
    code: str
    speaker_id: str
    variation_index: int


@dataclass
class DatasetManifest:
    """Settings, codes and planned records, checked whole when built, so realizing never fails."""

    config: DatasetConfig
    codes: list[IcdCode]
    records: list[UtteranceRecord]

    def __post_init__(self):  # also builds the vocabulary and the id -> words, speaker maps
        self.vocabulary = build_vocabulary(self.codes)
        self.words_of = {c.code: c.words for c in self.codes}
        self.speaker_of = {s.speaker_id: s for s in self.config.speakers}
        if len(self.words_of) != len(self.codes):
            listed = [c.code for c in self.codes]
            twice = next(code for code in listed if listed.count(code) > 1)
            raise ContractError(f"code {twice!r} is listed twice")
        if len(self.records) > MAX_RECORDS:
            raise ContractError(f"{len(self.records)} records, above {MAX_RECORDS}")
        span, seen = range(self.config.repeats), set()
        for r in self.records:
            name, words = f"{r.code}/{r.speaker_id}/{r.variation_index}", self.words_of.get(r.code)
            if words is None:
                broken = f"names code {r.code!r}, which the manifest does not list"
            elif r.speaker_id not in self.speaker_of:
                broken = f"names speaker {r.speaker_id!r}, which dataset.speakers does not list"
            elif (len(r.repeat_indices) != len(words)
                  or any(i not in span for i in r.repeat_indices)):
                broken = (f"needs one repeat index in [0, {self.config.repeats}) for each of its "
                          f"{len(words)} words, got {list(r.repeat_indices)}")
            elif name in seen:
                broken = "appears twice"
            else:
                seen.add(name)
                continue
            raise ContractError(f"record {name} {broken}")


def plan_variations(code, speaker, repeats, cap, seed):
    """Choose which repeat-index combinations a (code, speaker) pair gets; repeats, cap >= 1."""
    k = len(code.words)
    total = repeats**k
    if total > np.iinfo(np.int64).max:  # the sampled indices are int64
        raise ContractError(f"dataset.repeats {repeats}: {repeats}**{k} variations of "
                            f"{code.code!r} exceed 2**63 - 1")
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


def _uses(manifest, records):
    """How many words of `records` each (word, speaker, repeat) recording speaks."""
    return collections.Counter(
        (word, r.speaker_id, rep)
        for r in records for word, rep in zip(manifest.words_of[r.code], r.repeat_indices)
    )


def _word_waves(manifest, record, recordings, uses):
    """The target and word waveforms of `record`, synthesizing those `recordings` lacks into it.

    `uses` counts the words still to be drawn that speak each recording,
    this record's included; a recording leaves `recordings` at its last use.
    """
    words = manifest.words_of[record.code]
    speaker = manifest.speaker_of[record.speaker_id]
    waves = []
    for word, rep in zip(words, record.repeat_indices):
        key = (word, speaker.speaker_id, rep)
        wave = recordings.pop(key, None)
        if wave is None:
            wave = synthesize_word(word, speaker, rep,
                                   sample_rate=manifest.config.frontend.sample_rate)
        uses[key] -= 1
        if uses[key]:
            recordings[key] = wave
        waves.append(wave)
    return manifest.vocabulary.encode(words), waves


def realize_utterance(manifest, record, drawn=None):
    """Synthesize, degrade, record and featurize one planned utterance: the features are
    those of the far-field audio's 16-bit `recording`, as a wav of it gives them.

    `drawn` is the record's (target, word waveforms) from `_word_waves`, if
    the caller has drawn them; otherwise its words are synthesized here.
    """
    config = manifest.config
    if drawn is None:
        drawn = _word_waves(manifest, record, {}, _uses(manifest, [record]))
    target, waves = drawn
    gap_rng = np.random.default_rng(
        stable_seed("gaps", config.seed, record.code, record.speaker_id, record.variation_index)
    )
    gaps = gap_rng.uniform(*config.gap_range, size=len(waves) - 1)
    clean = concat_with_silence(waves, list(gaps))
    noise_seed = stable_seed(
        "noise", config.seed, record.code, record.speaker_id, record.variation_index
    )
    far = apply_far_field(clean, config.room, seed=noise_seed)
    return Utterance(
        spectrogram=stft_logmel(recording(far), cfg=config.frontend),
        target=target,
        code=record.code,
        speaker_id=record.speaker_id,
        variation_index=record.variation_index,
    )


def generate_dataset(codes, config):
    """Manifest covering every (code, speaker) pair under the config."""
    planned = len(config.speakers) * sum(min(config.cap, config.repeats ** len(c.words))
                                         for c in codes)
    if planned > MAX_RECORDS:
        raise ContractError(f"dataset.cap {config.cap} and dataset.repeats {config.repeats} "
                            f"plan {planned} records, above {MAX_RECORDS}")
    records = []
    for speaker in config.speakers:
        for code in codes:
            records.extend(plan_variations(code, speaker, config.repeats, config.cap, config.seed))
    return DatasetManifest(config=config, codes=list(codes), records=records)


def iter_utterances(manifest):
    """Realize every record in order, synthesizing each distinct word recording once.

    The calling thread draws each record, once: its target and word
    waveforms, synthesizing those the pass has not made yet, so it alone
    reads and writes the recordings.  The rest of a realization runs on
    whichever thread claims the drawn pair (`autodiff.mapped`).  The pass
    counts each recording's uses first and drops it from its cache at the
    last, so none outlives the last record that speaks it.
    """
    recordings, uses = {}, _uses(manifest, manifest.records)
    drawn = ((record, _word_waves(manifest, record, recordings, uses))
             for record in manifest.records)
    return mapped(lambda job: realize_utterance(manifest, *job), drawn)


def split_by_speaker(manifest, held_out):
    """Partition records into (train, test) by holding one speaker out."""
    known = [s.speaker_id for s in manifest.config.speakers]
    if held_out not in known:
        raise ContractError(f"unknown speaker {held_out!r}; manifest has {known}")
    train = replace(manifest, records=[r for r in manifest.records if r.speaker_id != held_out])
    test = replace(manifest, records=[r for r in manifest.records if r.speaker_id == held_out])
    return train, test


def save_manifest(manifest, path):
    write_document(path, MANIFEST_FORMAT, to_payload(manifest))


def load_manifest(path):
    """The manifest at `path`, which must hold every key `save_manifest` writes: a settings key
    left out would otherwise be realized with today's default, not the one it was made with."""
    return read_document(path, MANIFEST_FORMAT,
                         partial(from_payload, DatasetManifest, defaults=False))
