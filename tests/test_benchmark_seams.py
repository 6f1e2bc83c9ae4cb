"""The package names that the benchmark harness in benchmarks/ reaches into.

benchmarks/run.py lists the functions its traced passes wrap, the
transcribe pass featurizes wavs through `audio.frontend_spectrogram`, and
`passes.write_wavs` captures each held-out recording (`audio.recording` of
the far-field waveform) by replacing `data.stft_logmel` with a stand-in that
takes the waveform as its only positional argument, and writes it as a wav
that featurizes to `evaluate`'s features bit for bit.  The train and
evaluate passes time a CLI command by wrapping module attributes:
`cli.train_with_scheduled_lm_sampling` and `fusion.adam_step`, and
`cli.evaluate_dataset` and `fusion.transcribe`.
The training loop is a generator, so a probe around it enters when `train`
creates it: after every utterance is realized and before the first update,
which keeps the train pass's set-up time apart from its steps.  Its exit
hook fires at creation too, so the pass's Tensor count covers only that.
`evaluate` hands `evaluate_dataset` a lazy iterator, so each utterance is
realized inside that probed call.  Records are realized on the calling
thread and the helper while earlier ones are transcribed, so when record
k + 1 or k + 2 is done relative to transcript k depends on thread timing;
the evaluate test pins only that each record is realized before its
transcript and that nothing runs further ahead.
The traced passes run the real benchmarks/tracer.py, which wraps
`autodiff.backward` and counts `autodiff.Tensor`s made while training.
A change that breaks one of these otherwise shows up only in a benchmark run.
"""

import ast
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from icdscribe import audio, cli, data, fusion
from icdscribe.audio import RoomModel
from icdscribe.data import DatasetConfig, IcdCode, generate_dataset, iter_utterances, load_manifest
from icdscribe.model import Seq2SeqModel

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def layer_names():
    """The LAYER_NAMES tuple of benchmarks/run.py, read without importing it."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no LAYER_NAMES")


class TestBenchmarkSeams:
    def test_every_layer_name_resolves(self):
        names = layer_names()
        assert names
        for name in names:
            module_name, attr = name.split(".")
            module = importlib.import_module(f"icdscribe.{module_name}")
            owner = Seq2SeqModel if module_name == "model" else module
            assert callable(getattr(owner, attr, None)), name

    def test_frontend_spectrogram_is_the_featurizer(self):
        assert audio.frontend_spectrogram is audio.stft_logmel

    def test_keyword_stand_in_sees_each_far_field_waveform(self, monkeypatch, tmp_path):
        codes = [IcdCode("R52", ["pain"]), IcdCode("M54.5", ["low", "back", "pain"])]
        config = DatasetConfig(seed=2, repeats=2, cap=2, room=RoomModel(rt60=0.05))
        manifest = generate_dataset(codes, config)
        real = [data.realize_utterance(manifest, r).spectrogram for r in manifest.records]

        degrade, featurize = data.apply_far_field, data.stft_logmel
        far_fields, captured = [], []

        def far_field(*args, **kwargs):
            far_fields.append(degrade(*args, **kwargs))
            return far_fields[-1]

        def stand_in(waveform, **kwargs):
            captured.append(waveform)
            return featurize(waveform, **kwargs)

        monkeypatch.setattr(data, "apply_far_field", far_field)
        monkeypatch.setattr(data, "stft_logmel", stand_in)
        for record, want in zip(manifest.records, real, strict=True):
            got = data.realize_utterance(manifest, record).spectrogram
            assert got.tobytes() == want.tobytes()
            (waveform,) = captured
            captured.clear()
            # the recording of the far-field audio, so the wav the benchmark writes carries it
            assert waveform.samples.tobytes() == audio.recording(far_fields[-1]).samples.tobytes()
            audio.write_wav(tmp_path / "utt.wav", waveform)
            again = audio.stft_logmel(audio.read_wav(tmp_path / "utt.wav"), config.frontend)
            assert again.shape == want.shape and again.tobytes() == want.tobytes()

    def test_held_out_surgery_loads_again(self, tmp_path):
        """passes.make_inputs keeps the first records of each code of a loaded test.json,
        assigning them to `records`, then saves that manifest and loads it again."""
        codes = [IcdCode("R52", ["pain"]), IcdCode("M54.5", ["low", "back", "pain"])]
        full = generate_dataset(codes, DatasetConfig(repeats=2, cap=4))
        data.save_manifest(data.split_by_speaker(full, "spk2")[1], tmp_path / "test.json")
        held_out = load_manifest(tmp_path / "test.json")
        by_code = {}
        for record in held_out.records:
            by_code.setdefault(record.code, []).append(record)
        held_out.records = [r for records in by_code.values() for r in records[:3]]
        data.save_manifest(held_out, tmp_path / "held-out.json")
        loaded = load_manifest(tmp_path / "held-out.json")
        assert loaded == held_out
        assert [r.code for r in loaded.records] == ["R52"] * 2 + ["M54.5"] * 3


TINY_CONFIG = {
    "dataset": {
        "repeats": 1,
        "cap": 2,
        "speakers": [
            {"speaker_id": "near", "base_pitch": 120.0, "rate": 0.9, "seed": 1},
            {"speaker_id": "far", "base_pitch": 200.0, "rate": 1.1, "seed": 2},
        ],
        "room": {"rt60": 0.0, "snr_db": None},
        "frontend": {"sample_rate": 16000, "window": 400, "hop": 160, "n_mels": 8},
    },
    "encoder": {"conv": [{"channels": 4, "stride": 3}], "layers": 1, "beta": 3, "hidden": 8},
    "decoder": {"embedding_dim": 4, "hidden": 8, "attention_dim": 4},
    "fusion": {"beam_width": 2, "max_decode_len": 6},
    "training": {"epochs": 2, "holdout_fraction": 0.0, "wer_every": 0},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny dataset, language model and checkpoint, made by the CLI."""
    root = tmp_path_factory.mktemp("seams")
    ws = SimpleNamespace(config=root / "config.json", data=root / "data", lm=root / "lm.json",
                         ckpt=root / "model.ckpt")
    ws.config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    codes = root / "codes.tsv"
    codes.write_text("C1\taa bb\nC2\tcc\n", encoding="utf-8")
    for argv in (
        ["generate-data", "--config", ws.config, "--codes", codes, "--output", ws.data],
        ["train-lm", "--corpus", ws.data / "corpus.txt", "--order", 2, "--output", ws.lm],
        ["train", "--config", ws.config, "--data", ws.data, "--lm", ws.lm, "--output", ws.ckpt],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    return ws


def count_calls(monkeypatch, owner, attr, calls, results=None):
    """Wrap `owner.attr` as the benchmark's probes do, appending `attr` to `calls` on entry."""
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        result = fn(*args, **kwargs)
        if results is not None:
            results.append(result)
        return result

    monkeypatch.setattr(owner, attr, counted)


class TestProbedCommands:
    def test_train_runs_one_loop_and_one_adam_step_per_update(self, pipeline, tmp_path,
                                                               monkeypatch):
        calls = []
        count_calls(monkeypatch, data, "realize_utterance", calls)
        count_calls(monkeypatch, cli, "train_with_scheduled_lm_sampling", calls)
        count_calls(monkeypatch, fusion, "adam_step", calls)
        assert cli.main(["train", "--config", str(pipeline.config), "--data", str(pipeline.data),
                         "--lm", str(pipeline.lm), "--output", str(tmp_path / "m.ckpt")]) == 0
        records = len(load_manifest(pipeline.data / "train.json").records)
        updates = TINY_CONFIG["training"]["epochs"] * records
        # the loop is entered once, after set-up and before the first update: setup_s ends there
        assert calls == (["realize_utterance"] * records + ["train_with_scheduled_lm_sampling"]
                         + ["adam_step"] * updates)

    def test_evaluate_transcribes_each_record_once_into_words(self, pipeline, tmp_path,
                                                              monkeypatch, capsys):
        calls, hypotheses = [], []
        manifest = load_manifest(pipeline.data / "test.json")
        index = {(r.code, r.variation_index): k for k, r in enumerate(manifest.records)}
        realize = data.realize_utterance

        def recorded(manifest, record, *args):  # logged when done, on whichever thread ran it
            utt = realize(manifest, record, *args)
            calls.append(("realized", index[record.code, record.variation_index]))
            return utt

        monkeypatch.setattr(data, "realize_utterance", recorded)
        count_calls(monkeypatch, cli, "evaluate_dataset", calls)
        count_calls(monkeypatch, fusion, "transcribe", calls, hypotheses)
        assert cli.main(["evaluate", "--ckpt", str(pipeline.ckpt), "--lm", str(pipeline.lm),
                         "--manifest", str(pipeline.data / "test.json"), "--resamples", "10"]) == 0
        # each utterance is realized inside the probed call, so set-up ends before any audio
        assert calls[0] == "evaluate_dataset" and calls.count("evaluate_dataset") == 1
        events = calls[1:]
        realized = [(event[1], i) for i, event in enumerate(events) if isinstance(event, tuple)]
        decoded = [i for i, event in enumerate(events) if event == "transcribe"]
        assert sorted(k for k, _ in realized) == list(range(len(manifest.records)))  # each once
        assert len(decoded) == len(manifest.records) == len(events) - len(realized)
        done = dict(realized)
        # record k is realized before its transcript starts, and k + 3 only after it has started
        assert all(done[k] < t for k, t in enumerate(decoded))
        assert all(done[k + 3] > t for k, t in enumerate(decoded[:-3]))
        words = set(manifest.vocabulary.content_words)
        assert all(isinstance(h, list) and set(h) <= words for h in hypotheses)


@pytest.fixture
def passes_module(monkeypatch):
    """benchmarks/passes.py, imported as benchmarks/run.py imports it."""
    monkeypatch.syspath_prepend(str(RUN_PY.parent))
    yield importlib.import_module("passes")
    sys.modules.pop("passes", None)


class TestOneRecording:
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_evaluate_and_transcribe_decode_the_same_recording(self, pipeline, tmp_path, capsys,
                                                              passes_module, split):
        manifest = load_manifest(pipeline.data / f"{split}.json")
        passes_module.write_wavs(manifest, tmp_path / "wav")
        entries = json.loads((tmp_path / "wav" / "list.json").read_text(encoding="utf-8"))
        for utt, entry in zip(iter_utterances(manifest), entries, strict=True):
            wav = audio.stft_logmel(audio.read_wav(entry["wav"]), manifest.config.frontend)
            assert wav.shape == utt.spectrogram.shape
            assert wav.tobytes() == utt.spectrogram.tobytes()
        decoding = ["--ckpt", str(pipeline.ckpt), "--lm", str(pipeline.lm)]
        report = tmp_path / "report.json"
        assert cli.main(["evaluate", "--manifest", str(pipeline.data / f"{split}.json"),
                         "--output", str(report), "--resamples", "1", *decoding]) == 0
        per_utterance = json.loads(report.read_text(encoding="utf-8"))["per_utterance"]
        assert [u["id"] for u in per_utterance] == [e["id"] for e in entries]
        for scored, entry in zip(per_utterance, entries):
            capsys.readouterr()
            assert cli.main(["transcribe", entry["wav"], *decoding]) == 0
            _, words, _ = capsys.readouterr().out.rstrip("\n").split("\t")
            assert words == scored["hypothesis"]


@pytest.fixture
def tracer_module(monkeypatch):
    """benchmarks/tracer.py, imported as the traced passes import it."""
    monkeypatch.syspath_prepend(str(RUN_PY.parent))
    yield importlib.import_module("tracer")
    for name in ("tracer", "run"):
        sys.modules.pop(name, None)


class TestTracer:
    def test_training_backpropagates_once_per_update_and_makes_no_tensor(self, pipeline, tmp_path,
                                                                        monkeypatch,
                                                                        tracer_module):
        train, made = cli.train_with_scheduled_lm_sampling, {}

        def probed(*args, **kwargs):  # as the train pass counts the Tensors made in training
            before = tracer.tensors["other"]
            try:
                yield from train(*args, **kwargs)
            finally:
                made["training"] = tracer.tensors["other"] - before

        monkeypatch.setattr(cli, "train_with_scheduled_lm_sampling", probed)
        with tracer_module.Tracer() as tracer:
            assert cli.main(["train", "--config", str(pipeline.config), "--data",
                             str(pipeline.data), "--lm", str(pipeline.lm),
                             "--output", str(tmp_path / "m.ckpt")]) == 0
        records = load_manifest(pipeline.data / "train.json").records
        updates = TINY_CONFIG["training"]["epochs"] * len(records)
        assert tracer.stats["autodiff.backward"][0] == updates
        assert tracer.stats["autodiff.adam_step"][0] == updates
        assert tracer.tensors["other"] > 0  # the model's parameters, made before training
        assert made == {"training": 0} and tracer.tensors["decode"] == 0
