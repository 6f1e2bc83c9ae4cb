import gc
import json
import math
import re
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from helpers import helper_thread
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe import data
from icdscribe.audio import FrontendConfig, RoomModel, SpeakerProfile, synthesize_word
from icdscribe.data import (
    EOS,
    PAD,
    SOS,
    UNK,
    DatasetConfig,
    DatasetManifest,
    IcdCode,
    Vocabulary,
    build_vocabulary,
    bundled_icd_path,
    default_speakers,
    generate_dataset,
    iter_utterances,
    load_icd_list,
    load_manifest,
    plan_variations,
    realize_utterance,
    save_manifest,
    split_by_speaker,
)
from icdscribe.errors import ContractError
from icdscribe.schema import to_payload

SPEAKER = SpeakerProfile("spk0", base_pitch=150.0, seed=5)


def small_config(**overrides):
    base = dict(
        seed=3,
        repeats=2,
        cap=4,
        room=RoomModel(rt60=0.0, snr_db=30.0),
        speakers=[SPEAKER, SpeakerProfile("spk1", base_pitch=210.0, seed=6)],
        frontend=FrontendConfig(),
    )
    base.update(overrides)
    return DatasetConfig(**base)


def realize_all(code, repeats, cap):
    """Every planned utterance of one (code, SPEAKER) pair, realized."""
    config = DatasetConfig(repeats=repeats, cap=cap, speakers=[SPEAKER])
    plans = plan_variations(code, SPEAKER, repeats, cap, seed=0)
    manifest = DatasetManifest(config, [code], plans)
    return [realize_utterance(manifest, r) for r in plans]


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
        with pytest.raises(ContractError, match="codes.tsv: line 2: "):
            load_icd_list(path)

    def test_duplicate_code_rejected(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("R06.4\tHyperventilation\nR06.4\tHyperventilation\n")
        with pytest.raises(ContractError, match="code 'R06.4' is listed twice"):
            generate_dataset(load_icd_list(path), small_config())

    def test_blank_description_rejected(self, tmp_path):
        path = tmp_path / "codes.tsv"
        path.write_text("R06.4\t , ;\n")
        with pytest.raises(ContractError, match="codes.tsv: line 1: "):
            load_icd_list(path)

    @pytest.mark.parametrize("description", ["acute pain (chest)", "type 2 diabetes", "café"])
    def test_unspeakable_word_reports_line_number(self, tmp_path, description):
        path = tmp_path / "codes.tsv"
        path.write_text(f"R06.4\tHyperventilation\nX1\t{description}\n", encoding="utf-8")
        with pytest.raises(ContractError, match="codes.tsv: line 2: "):
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

    @pytest.mark.parametrize("word", ["", "r10", "Pain", "ab cd", "café", "(chest)"])
    def test_word_that_synthesis_refuses_rejected(self, word):
        with pytest.raises(ContractError, match="lowercase alphabetic"):
            IcdCode("X", ["pain", word])


class TestDatasetConfig:
    def test_bad_repeats_and_cap_rejected(self):
        with pytest.raises(ContractError, match=re.escape("repeats 0 outside [1, inf)")):
            small_config(repeats=0, cap=5)
        with pytest.raises(ContractError, match=re.escape("cap 0 outside [1, 100000]")):
            small_config(repeats=2, cap=0)


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

    def test_variation_count_bounded_by_int64(self):
        # 2**63 - 1 one-word variations are drawn from; 3037000500**2 two-word ones,
        # just past that bound, are refused
        plans = plan_variations(IcdCode("C", ["pain"]), SPEAKER, repeats=2**63 - 1, cap=2, seed=0)
        assert len(plans) == 2 and all(0 <= p.repeat_indices[0] < 2**63 - 1 for p in plans)
        with pytest.raises(ContractError, match=r"dataset.repeats 3037000500: 3037000500\*\*2"):
            plan_variations(IcdCode("C", ["low", "pain"]), SPEAKER, repeats=3037000500, cap=2,
                            seed=0)

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
        assert np.array_equal(a.spectrogram, b.spectrogram)
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
        if a.spectrogram.shape == b.spectrogram.shape:
            assert not np.array_equal(a.spectrogram, b.spectrogram)


class TestIterUtterances:
    CODES = [
        IcdCode("M54.5", ["low", "back", "pain"]),
        IcdCode("R52", ["pain"]),
        IcdCode("M54.9", ["back", "pain", "pain"]),
    ]

    def manifest(self):
        room = RoomModel(rt60=0.05, snr_db=30.0)
        return generate_dataset(self.CODES, small_config(room=room))

    def test_matches_realizing_each_record(self):
        manifest = self.manifest()
        for record, utt in zip(manifest.records, iter_utterances(manifest), strict=True):
            alone = realize_utterance(manifest, record)
            assert utt.spectrogram.tobytes() == alone.spectrogram.tobytes()
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
            for word, rep in zip(manifest.words_of[r.code], r.repeat_indices)
        }
        for _ in range(2):  # a second pass starts from an empty cache
            calls.clear()
            list(iter_utterances(manifest))
            assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("on", [False, True])
    def test_every_synthesis_runs_on_the_calling_thread(self, monkeypatch, on):
        manifest = self.manifest()
        synthesized, drawn, realized = [], [], []
        realize, draw = data.realize_utterance, data._word_waves

        def spied(word, profile, repeat_index, **kwargs):
            synthesized.append(threading.current_thread())
            return synthesize_word(word, profile, repeat_index, **kwargs)

        def drawn_once(manifest, record, *args):
            drawn.append((record, threading.current_thread()))
            return draw(manifest, record, *args)

        def recorded(manifest, record, *args):
            realized.append(threading.current_thread())
            return realize(manifest, record, *args)

        monkeypatch.setattr(data, "synthesize_word", spied)
        monkeypatch.setattr(data, "_word_waves", drawn_once)
        monkeypatch.setattr(data, "realize_utterance", recorded)
        with helper_thread(on):
            utterances = list(iter_utterances(manifest))
        assert len(utterances) == len(realized) == len(manifest.records)
        assert [record for record, _ in drawn] == manifest.records
        assert all(t is threading.main_thread() for _, t in drawn)
        assert synthesized and all(t is threading.main_thread() for t in synthesized)
        assert on or all(t is threading.main_thread() for t in realized)

    @pytest.mark.parametrize("on", [False, True])
    def test_the_word_cache_is_freed_when_the_pass_ends(self, monkeypatch, on):
        waves = []

        def spied(word, profile, repeat_index, **kwargs):
            wave = synthesize_word(word, profile, repeat_index, **kwargs)
            waves.append(weakref.ref(wave))
            return wave

        monkeypatch.setattr(data, "synthesize_word", spied)
        gc.disable()  # freed by reference counting, not whenever the cycle collector runs
        try:
            with helper_thread(on):
                utterances = list(iter_utterances(self.manifest()))
            assert utterances and waves and all(ref() is None for ref in waves)
        finally:
            gc.enable()

    def last_users(self, manifest):
        """The index of the last record that speaks each (word, speaker, repeat) recording."""
        return {(word, r.speaker_id, rep): index
                for index, r in enumerate(manifest.records)
                for word, rep in zip(manifest.words_of[r.code], r.repeat_indices)}

    @pytest.mark.parametrize("on", [False, True])
    def test_the_cache_holds_each_recording_from_its_synthesis_to_its_last_use(self, monkeypatch,
                                                                                on):
        manifest = self.manifest()
        last_user, synthesized, cached = self.last_users(manifest), [], []
        draw = data._word_waves

        def counted(word, profile, repeat_index, **kwargs):
            synthesized.append((word, profile.speaker_id, repeat_index))
            return synthesize_word(word, profile, repeat_index, **kwargs)

        def drawn(manifest, record, recordings, *args):
            got = draw(manifest, record, recordings, *args)
            cached.append(set(recordings))
            return got

        monkeypatch.setattr(data, "synthesize_word", counted)
        monkeypatch.setattr(data, "_word_waves", drawn)
        with helper_thread(on):
            list(iter_utterances(manifest))
        assert sorted(synthesized) == sorted(last_user)  # each once, the M54.9 repeats included
        made = set()
        for index, (record, held) in enumerate(zip(manifest.records, cached, strict=True)):
            made |= {(word, record.speaker_id, rep)
                     for word, rep in zip(manifest.words_of[record.code], record.repeat_indices)}
            assert held == {key for key in made if last_user[key] > index}

    @pytest.mark.parametrize("on", [False, True])
    def test_each_recording_is_released_once_its_last_user_is_realized(self, monkeypatch, on):
        manifest = self.manifest()
        last_user, made = self.last_users(manifest), {}

        def spied(word, profile, repeat_index, **kwargs):
            wave = synthesize_word(word, profile, repeat_index, **kwargs)
            made[word, profile.speaker_id, repeat_index] = weakref.ref(wave)
            return wave

        # With the helper, the job it just finished, or the one `mapped` last looked at, may
        # still be referenced while the next utterance comes out.
        lag = 2 if on else 0
        monkeypatch.setattr(data, "synthesize_word", spied)
        gc.disable()  # freed by reference counting, not whenever the cycle collector runs
        checked = set()  # released before the pass ends
        try:
            with helper_thread(on):
                for index, _ in enumerate(iter_utterances(manifest)):
                    due = {key for key, user in last_user.items() if user <= index - lag}
                    assert [key for key in due if made[key]() is not None] == [], index
                    checked |= due if index < len(manifest.records) - 1 else set()
        finally:
            gc.enable()
        assert len(checked) > len(last_user) / 2

    @pytest.mark.parametrize("field, value", [("code", "Z99"), ("speaker_id", "spk9")])
    def test_unknown_code_or_speaker_rejected(self, field, value):
        """Refused when the manifest is built, so no record is realized."""
        manifest = self.manifest()
        records = list(manifest.records)
        records[1] = replace(records[1], **{field: value})
        with pytest.raises(ContractError, match=f"record .*{value}.* names .*'{value}', which"):
            replace(manifest, records=records)


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

    def record_plans(self, monkeypatch):
        """The (code, speaker) pairs planned from now on; each plan is left empty."""
        planned = []
        monkeypatch.setattr(data, "plan_variations", lambda code, speaker, *_: planned.append(
            (code.code, speaker.speaker_id)) or [])
        return planned

    def test_record_total_is_bounded_before_any_plan(self, monkeypatch):
        planned = self.record_plans(monkeypatch)
        codes = load_icd_list(bundled_icd_path())
        # each of 3 speakers: sum over the 20 codes of min(100,000, 10**words) records
        config = small_config(repeats=10, cap=100_000, speakers=default_speakers())
        with pytest.raises(ContractError, match=r"dataset\.cap 100000 and dataset\.repeats 10 "
                                                r"plan 1282560 records, above 1000000"):
            generate_dataset(codes, config)
        assert planned == []

    @pytest.mark.parametrize("speakers, allowed", [(10, True), (11, False)])
    def test_record_bound_is_inclusive(self, monkeypatch, speakers, allowed):
        planned = self.record_plans(monkeypatch)
        profiles = [SpeakerProfile(f"spk{i}", seed=i) for i in range(speakers)]
        config = small_config(repeats=10**6, cap=100_000, speakers=profiles)
        if allowed:  # 10 speakers x 100,000 records
            generate_dataset([IcdCode("C1", ["aa"])], config)
            assert len(planned) == speakers
        else:
            with pytest.raises(ContractError, match="plan 1100000 records"):
                generate_dataset([IcdCode("C1", ["aa"])], config)
            assert planned == []


class TestSplitBySpeaker:
    def make_manifest(self):
        codes = [IcdCode("A", ["pain"]), IcdCode("B", ["fever", "unspecified"])]
        return generate_dataset(codes, small_config())

    def test_partition_is_clean(self):
        manifest = self.make_manifest()
        train, test = split_by_speaker(manifest, "spk1")
        assert {r.speaker_id for r in test.records} == {"spk1"}
        assert "spk1" not in {r.speaker_id for r in train.records}
        assert {r.speaker_id for r in train.records} == {"spk0"}
        assert train.config == test.config == manifest.config

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


def key_paths(payload, path=()):
    """The path of each key in a JSON payload, parents first; a list's are its first item's."""
    if isinstance(payload, list) and payload:
        yield from key_paths(payload[0], path + (0,))
    elif isinstance(payload, dict):
        for key, value in payload.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))


def dotted(path):
    """The key a path names as a read error does: list items share their list's path."""
    return ".".join(key for key in path if isinstance(key, str))


SAVED_KEYS = list(key_paths(to_payload(
    generate_dataset([IcdCode("A", ["low", "back"])], small_config(cap=1)))))


class TestManifestSerialization:
    def test_every_written_key_is_checked(self):
        assert {"config.room.snr_db", "config.gap_range", "config.speakers.base_pitch",
                "config.frontend.n_mels", "records.repeat_indices"} <= set(map(dotted, SAVED_KEYS))

    @pytest.mark.parametrize("key", SAVED_KEYS, ids=dotted)
    def test_a_key_left_out_is_refused_naming_it(self, tmp_path, key):
        """A default would realize settings the file never held."""
        path = tmp_path / "m.json"
        save_manifest(generate_dataset([IcdCode("A", ["low", "back"])], small_config(cap=1)), path)
        load_manifest(path)  # intact, it loads
        payload = json.loads(path.read_text(encoding="utf-8"))
        *parents, last = key
        node = payload
        for step in parents:
            node = node[step]
        del node[last]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ContractError) as raised:
            load_manifest(path)
        assert str(raised.value) == f"{path}: missing key {dotted(key)!r}"

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
        config = small_config(room=RoomModel(rt60=0.0, snr_db=math.inf))
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
        assert np.array_equal(original.spectrogram, regenerated.spectrogram)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "manifest-v9"}')
        with pytest.raises(ContractError, match="manifest-v9"):
            load_manifest(path)


class TestManifestRules:
    """A manifest is checked whole whenever it is built; realizing it then never fails."""

    CODES = [IcdCode("A", ["pain"]), IcdCode("B", ["low", "back"])]

    def manifest(self):
        return generate_dataset(self.CODES, small_config(repeats=2, cap=2))

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            (lambda m: m["records"][-1].update(code="ZZZ"),
             "record ZZZ/spk1/1 names code 'ZZZ', which the manifest does not list"),
            (lambda m: m["records"][-1].update(speaker_id="spk9"),
             "record B/spk9/1 names speaker 'spk9', which dataset.speakers does not list"),
            (lambda m: m["records"][-1].update(repeat_indices=[0]),
             "record B/spk1/1 needs one repeat index in [0, 2) for each of its 2 words, got [0]"),
            (lambda m: m["records"][-1].update(repeat_indices=[0, 2]), "record B/spk1/1 needs"),
            (lambda m: m["records"][-1].update(repeat_indices=[-1, 0]), "record B/spk1/1 needs"),
            (lambda m: m["records"][-1].update(variation_index=0), "record B/spk1/0 appears twice"),
            (lambda m: m["codes"].append({"code": "A", "words": ["fever"]}),
             "code 'A' is listed twice"),
        ],
        ids=["code", "speaker", "too-few-repeats", "repeat-past-repeats", "negative-repeat",
             "duplicate-record", "duplicate-code"],
    )
    def test_load_refuses_each_broken_rule_naming_the_file(self, tmp_path, damage, fragment):
        path = tmp_path / "m.json"
        save_manifest(self.manifest(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        damage(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ContractError) as raised:
            load_manifest(path)
        assert str(raised.value).startswith(f"{path}: {fragment}")

    def test_record_bound(self, monkeypatch):
        manifest = self.manifest()
        monkeypatch.setattr(data, "MAX_RECORDS", len(manifest.records))
        replace(manifest)
        monkeypatch.setattr(data, "MAX_RECORDS", len(manifest.records) - 1)
        with pytest.raises(ContractError, match=f"{len(manifest.records)} records, above"):
            replace(manifest)

    def test_every_way_of_building_checks(self):
        manifest = self.manifest()
        manifest.records[0] = replace(manifest.records[0], code="ZZZ")  # past the constructor
        for build in (lambda: replace(manifest), lambda: split_by_speaker(manifest, "spk0"),
                      lambda: DatasetManifest(manifest.config, manifest.codes, manifest.records)):
            with pytest.raises(ContractError, match="record ZZZ/spk0/0 names code 'ZZZ'"):
                build()
        with pytest.raises(ContractError, match="code 'A' is listed twice"):
            generate_dataset(self.CODES + [IcdCode("A", ["fever"])], small_config())

    @given(index=st.integers(0, 7), damage=st.one_of(
        st.tuples(st.just("code"), st.sampled_from(["A", "B", "ZZZ", ""])),
        st.tuples(st.just("speaker_id"), st.sampled_from(["spk0", "spk1", "spk9"])),
        st.tuples(st.just("repeat_indices"), st.lists(st.integers(-1, 2), max_size=3)),
        st.tuples(st.just("variation_index"), st.integers(-2, 4)),
        st.tuples(st.just("codes"), st.sampled_from(["A", "B", "C"])),
    ))
    @settings(max_examples=40, deadline=None)
    def test_a_damaged_manifest_is_refused_or_realizes_whole(self, tmp_path_factory, index,
                                                              damage):
        path = tmp_path_factory.mktemp("damaged") / "m.json"
        save_manifest(self.manifest(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        key, value = damage
        if key == "codes":  # one more code, whose id may repeat one listed
            payload["codes"].append({"code": value, "words": ["fever"]})
        else:
            payload["records"][index][key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            manifest = load_manifest(path)
        except ContractError as exc:
            assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
            return
        utterances = list(iter_utterances(manifest))
        assert len(utterances) == len(manifest.records) == 8
        for record, utt in zip(manifest.records, utterances):
            assert utt.target == manifest.vocabulary.encode(manifest.words_of[record.code])
