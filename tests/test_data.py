import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe.audio import FrontendConfig, RoomModel, SpeakerProfile, synthesize_word
from icdscribe.data import (
    EOS,
    PAD,
    SOS,
    UNK,
    DatasetConfig,
    IcdCode,
    Vocabulary,
    build_vocabulary,
    bundled_icd_path,
    corpus_from_codes,
    default_speakers,
    generate_dataset,
    iter_utterances,
    load_icd_list,
    load_manifest,
    plan_variations,
    realize_record,
    realize_utterance,
    save_manifest,
    split_by_speaker,
)
from icdscribe.errors import ContractError, ParseError, ValidationError

SPEAKER = SpeakerProfile("spk0", base_pitch=150.0, seed=5)


def small_config(**overrides):
    base = dict(
        seed=3,
        repeats=2,
        cap=4,
        room=RoomModel(distance=2.0, rt60=0.0, snr_db=30.0),
        speakers=[SPEAKER, SpeakerProfile("spk1", base_pitch=210.0, seed=6)],
        frontend=FrontendConfig(),
    )
    base.update(overrides)
    return DatasetConfig(**base)


def realize_all(code, repeats, cap, vocab=None):
    """Every planned utterance of one (code, SPEAKER) pair, realized."""
    config = DatasetConfig(repeats=repeats, cap=cap, speakers=[SPEAKER])
    vocab = vocab or build_vocabulary([code])
    plans = plan_variations(code, SPEAKER, repeats, cap, seed=0)
    return [realize_record(r, code, SPEAKER, config, vocab) for r in plans]


class TestLoadIcdList:
    def test_parses_code_and_words(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("R10.84\tGeneralized abdominal pain\n")
        codes = load_icd_list(path)
        assert len(codes) == 1
        assert codes[0].code == "R10.84"
        assert codes[0].words == ["generalized", "abdominal", "pain"]

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("")
        assert load_icd_list(path) == []

    def test_missing_tab_reports_line_number(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("R10.84\tGeneralized abdominal pain\nR06.4 Hyperventilation\n")
        with pytest.raises(ParseError, match="line 2"):
            load_icd_list(path)

    def test_duplicate_code_rejected(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("R06.4\tHyperventilation\nR06.4\tHyperventilation\n")
        with pytest.raises(ValidationError, match="R06.4"):
            load_icd_list(path)

    def test_blank_description_rejected(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("R06.4\t , ;\n")
        with pytest.raises(ParseError, match="line 1"):
            load_icd_list(path)

    def test_bundled_list(self):
        codes = load_icd_list(bundled_icd_path())
        assert len(codes) == 20
        by_id = {c.code: c.words for c in codes}
        assert by_id["R10.84"] == ["generalized", "abdominal", "pain"]
        assert by_id["S06.9X0"] == ["intracranial", "injury", "without", "loss", "of", "consciousness"]
        for words in by_id.values():
            assert all(w.isalpha() and w == w.lower() for w in words)


class TestVocabulary:
    def test_specials_occupy_fixed_ids(self):
        vocab = build_vocabulary([IcdCode("X", ["b", "a"])])
        assert (PAD, SOS, EOS, UNK) == (0, 1, 2, 3)
        assert vocab.word_of(0) == "<pad>"
        assert vocab.word_of(1) == "<sos>"
        assert vocab.word_of(2) == "<eos>"
        assert vocab.word_of(3) == "<unk>"

    def test_content_words_sorted_after_specials(self):
        vocab = build_vocabulary([IcdCode("X", ["a", "b"]), IcdCode("Y", ["b", "c"])])
        assert vocab.content_words == ["a", "b", "c"]
        assert [vocab.id_of(w) for w in "abc"] == [4, 5, 6]

    def test_unknown_word_maps_to_unk(self):
        vocab = build_vocabulary([IcdCode("X", ["pain"])])
        assert vocab.id_of("zebra") == UNK

    def test_round_trip_bijection(self):
        codes = load_icd_list(bundled_icd_path())
        vocab = build_vocabulary(codes)
        for w in vocab.content_words:
            assert vocab.word_of(vocab.id_of(w)) == w

    def test_size_matches_independent_count(self):
        codes = load_icd_list(bundled_icd_path())
        unique = {w for c in codes for w in c.words}
        assert len(build_vocabulary(codes)) == len(unique) + 4

    def test_encode_wraps_with_markers(self):
        vocab = build_vocabulary([IcdCode("X", ["low", "back", "pain"])])
        target = vocab.encode(["low", "back", "pain"])
        assert len(target) == 5
        assert target[0] == SOS and target[-1] == EOS
        assert PAD not in target and UNK not in target

    def test_decode_drops_specials(self):
        vocab = build_vocabulary([IcdCode("X", ["low", "back", "pain"])])
        ids = vocab.encode(["back", "pain"])
        assert vocab.decode(ids) == ["back", "pain"]

    def test_empty_code_list_rejected(self):
        with pytest.raises(ContractError):
            build_vocabulary([])

    def test_empty_description_rejected(self):
        with pytest.raises(ContractError):
            IcdCode("X", [])


class TestPlanVariations:
    def test_full_enumeration_below_cap(self):
        code = IcdCode("A", ["low", "back", "pain"])
        plans = plan_variations(code, SPEAKER, repeats=5, cap=1000, seed=0)
        assert len(plans) == 125
        assert len({p.repeat_indices for p in plans}) == 125

    def test_capped_sampling_above_cap(self):
        code = IcdCode("B", ["intracranial", "injury", "without", "loss", "of", "consciousness"])
        plans = plan_variations(code, SPEAKER, repeats=5, cap=1000, seed=0)
        assert len(plans) == 1000
        assert len({p.repeat_indices for p in plans}) == 1000

    def test_single_repeat_single_word(self):
        utterances = realize_all(IcdCode("C", ["pain"]), repeats=1, cap=10)
        assert len(utterances) == 1
        assert utterances[0].variation_index == 0

    def test_deterministic_given_seed(self):
        code = IcdCode("B", ["a", "b", "c", "d", "e", "f"])
        one = plan_variations(code, SPEAKER, repeats=4, cap=30, seed=9)
        two = plan_variations(code, SPEAKER, repeats=4, cap=30, seed=9)
        assert [p.repeat_indices for p in one] == [p.repeat_indices for p in two]

    def test_indices_in_range(self):
        code = IcdCode("B", ["a", "b", "c", "d"])
        for p in plan_variations(code, SPEAKER, repeats=3, cap=20, seed=1):
            assert len(p.repeat_indices) == 4
            assert all(0 <= r < 3 for r in p.repeat_indices)

    def test_bad_arguments_rejected(self):
        code = IcdCode("C", ["pain"])
        with pytest.raises(ContractError):
            plan_variations(code, SPEAKER, repeats=0, cap=5, seed=0)
        with pytest.raises(ContractError):
            plan_variations(code, SPEAKER, repeats=2, cap=0, seed=0)

    @given(
        k=st.integers(min_value=1, max_value=6),
        repeats=st.integers(min_value=1, max_value=6),
        cap=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_is_min_of_total_and_cap(self, k, repeats, cap, seed):
        code = IcdCode("P", ["pain"] * k)
        plans = plan_variations(code, SPEAKER, repeats=repeats, cap=cap, seed=seed)
        assert len(plans) == min(repeats**k, cap)
        assert [p.variation_index for p in plans] == list(range(len(plans)))


class TestRealization:
    def test_regeneration_is_bit_identical(self):
        codes = [IcdCode("R06.4", ["hyperventilation"]), IcdCode("M54.5", ["low", "back", "pain"])]
        manifest = generate_dataset(codes, small_config())
        record = manifest.records[-1]
        a = realize_utterance(manifest, record)
        b = realize_utterance(manifest, record)
        assert np.array_equal(a.spectrogram.values, b.spectrogram.values)
        assert a.target == b.target

    def test_target_matches_description(self):
        codes = [IcdCode("M54.5", ["low", "back", "pain"])]
        manifest = generate_dataset(codes, small_config())
        utt = realize_utterance(manifest, manifest.records[0])
        vocab = manifest.vocabulary
        assert utt.target == vocab.encode(["low", "back", "pain"])
        assert len(utt.target) == 5
        assert UNK not in utt.target

    def test_variations_differ_acoustically(self):
        utts = realize_all(IcdCode("C", ["pain"]), repeats=2, cap=10)
        assert len(utts) == 2
        a, b = utts
        if a.spectrogram.values.shape == b.spectrogram.values.shape:
            assert not np.array_equal(a.spectrogram.values, b.spectrogram.values)

    def test_out_of_vocabulary_word_rejected(self):
        vocab = build_vocabulary([IcdCode("X", ["fever"])])
        with pytest.raises(ValidationError, match="pain"):
            realize_all(IcdCode("C", ["pain"]), repeats=1, cap=5, vocab=vocab)


class TestIterUtterances:
    CODES = [
        IcdCode("M54.5", ["low", "back", "pain"]),
        IcdCode("R52", ["pain"]),
        IcdCode("M54.9", ["back", "pain", "pain"]),
    ]

    def manifest(self):
        room = RoomModel(distance=2.0, rt60=0.05, snr_db=30.0)
        return generate_dataset(self.CODES, small_config(room=room))

    def test_matches_realizing_each_record(self):
        manifest = self.manifest()
        for record, utt in zip(manifest.records, iter_utterances(manifest), strict=True):
            alone = realize_utterance(manifest, record)
            assert utt.spectrogram.values.tobytes() == alone.spectrogram.values.tobytes()
            assert (utt.target, utt.code, utt.speaker_id, utt.variation_index) == (
                alone.target, alone.code, alone.speaker_id, alone.variation_index
            )

    def test_each_word_recording_synthesized_once_per_pass(self, monkeypatch):
        manifest = self.manifest()
        calls = []

        def counted(word, profile, repeat_index, **kwargs):
            calls.append((word, profile.speaker_id, repeat_index))
            return synthesize_word(word, profile, repeat_index, **kwargs)

        monkeypatch.setattr("icdscribe.data.synthesize_word", counted)
        distinct = {
            (word, r.speaker_id, rep)
            for r in manifest.records
            for word, rep in zip(manifest.code_by_id(r.code).words, r.repeat_indices)
        }
        for _ in range(2):  # a second pass starts from an empty cache
            calls.clear()
            list(iter_utterances(manifest))
            assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("field, value", [("code", "Z99"), ("speaker_id", "spk9")])
    def test_unknown_code_or_speaker_rejected(self, field, value):
        manifest = self.manifest()
        manifest.records[1] = replace(manifest.records[1], **{field: value})
        with pytest.raises(ContractError, match=value):
            list(iter_utterances(manifest))


class TestGenerateDataset:
    def test_record_count_follows_formula(self):
        codes = load_icd_list(bundled_icd_path())
        config = small_config(repeats=5, cap=50, speakers=default_speakers())
        manifest = generate_dataset(codes, config)
        expected_per_speaker = sum(min(5 ** len(c.words), 50) for c in codes)
        assert len(manifest.records) == expected_per_speaker * 3

    def test_empty_codes_rejected(self):
        with pytest.raises(ContractError):
            generate_dataset([], small_config())

    def test_corpus_lines_match_descriptions(self):
        codes = [IcdCode("A", ["low", "back", "pain"]), IcdCode("B", ["fever"])]
        corpus = corpus_from_codes(codes)
        assert corpus.sentences == [["low", "back", "pain"], ["fever"]]


class TestSplitBySpeaker:
    def make_manifest(self):
        codes = [IcdCode("A", ["pain"]), IcdCode("B", ["fever", "unspecified"])]
        return generate_dataset(codes, small_config())

    def test_partition_is_clean(self):
        manifest = self.make_manifest()
        train, test = split_by_speaker(manifest, "spk1")
        assert {r.speaker_id for r in test.records} == {"spk1"}
        assert "spk1" not in {r.speaker_id for r in train.records}
        assert set(train.train_speakers) & set(test.test_speakers) == set()

    def test_union_restores_original_records(self):
        manifest = self.make_manifest()
        train, test = split_by_speaker(manifest, "spk0")
        combined = sorted(
            (r.code, r.speaker_id, r.variation_index) for r in train.records + test.records
        )
        original = sorted((r.code, r.speaker_id, r.variation_index) for r in manifest.records)
        assert combined == original

    def test_rotation_covers_every_record_once(self):
        manifest = self.make_manifest()
        speakers = [s.speaker_id for s in manifest.config.speakers]
        seen = []
        for held in speakers:
            _, test = split_by_speaker(manifest, held)
            seen.extend((r.code, r.speaker_id, r.variation_index) for r in test.records)
        assert sorted(seen) == sorted((r.code, r.speaker_id, r.variation_index) for r in manifest.records)

    def test_unknown_speaker_rejected(self):
        with pytest.raises(ContractError, match="spk9"):
            split_by_speaker(self.make_manifest(), "spk9")


class TestManifestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        codes = [IcdCode("A", ["pain"]), IcdCode("B", ["fever", "unspecified"])]
        manifest = generate_dataset(codes, small_config())
        path1 = tmp_path / "one.json"
        path2 = tmp_path / "two.json"
        save_manifest(manifest, path1)
        loaded = load_manifest(path1)
        save_manifest(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()
        assert loaded.records == manifest.records
        assert loaded.vocabulary == manifest.vocabulary
        assert loaded.config == manifest.config

    def test_infinite_snr_survives_round_trip(self, tmp_path):
        config = small_config(room=RoomModel(distance=1.0, rt60=0.0, snr_db=math.inf))
        manifest = generate_dataset([IcdCode("A", ["pain"])], config)
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        assert load_manifest(path).config.room.snr_db == math.inf

    def test_regeneration_from_loaded_manifest(self, tmp_path):
        codes = [IcdCode("M54.5", ["low", "back", "pain"])]
        manifest = generate_dataset(codes, small_config())
        original = realize_utterance(manifest, manifest.records[1])
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        regenerated = realize_utterance(load_manifest(path), load_manifest(path).records[1])
        assert np.array_equal(original.spectrogram.values, regenerated.spectrogram.values)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "manifest-v2"}')
        with pytest.raises(ParseError):
            load_manifest(path)
