import codecs
import contextlib
import dataclasses
import errno
import io
import json
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import fail_writes_after, forged_wav, helper_thread
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe.audio import (
    MAX_SAMPLE_RATE,
    MAX_WAV_FRAMES,
    MAX_WINDOW,
    FrontendConfig,
    SpeakerProfile,
    Waveform,
    synthesize_word,
    write_wav,
)
from icdscribe import autodiff, cli, fusion
from icdscribe import data as data_module
from icdscribe.checkpoint import Checkpoint, build_model, load_checkpoint
from icdscribe.cli import main
from icdscribe.config import load_run_config
from icdscribe.data import iter_utterances, load_icd_list, load_manifest
from icdscribe.errors import ContractError
from icdscribe.fusion import evaluate_dataset
from icdscribe.lm import load_lm, prob
from icdscribe.metrics import EvalReport
from icdscribe.model import MAX_DILATION, MAX_KERNEL
from icdscribe.schema import from_payload, to_payload, write_document

TINY_CONFIG = {
    "dataset": {
        "repeats": 2,
        "cap": 3,
        "speakers": [
            {"speaker_id": "near", "base_pitch": 120.0, "rate": 0.9, "seed": 1},
            {"speaker_id": "far", "base_pitch": 200.0, "rate": 1.1, "seed": 2},
        ],
        "room": {"rt60": 0.0, "snr_db": None},
        "frontend": {"sample_rate": 16000, "window": 400, "hop": 160, "n_mels": 8},
    },
    "encoder": {
        "conv": [{"channels": 4, "stride": 3, "dilation": 1, "kernel": 3}],
        "layers": 1,
        "beta": 3,
        "hidden": 8,
    },
    "decoder": {"embedding_dim": 4, "hidden": 8, "attention_dim": 4},
    "fusion": {"lm_sample_max": 0.0, "beam_width": 2, "max_decode_len": 6},
    "optimizer": {"lr": 0.005},
    "training": {"epochs": 2, "holdout_fraction": 0.0, "wer_every": 0},
}

CODES = "C1\taa bb\nC2\tcc\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generate-data / train-lm / train pass shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    codes = root / "codes.tsv"
    codes.write_text(CODES, encoding="utf-8")
    data = root / "data"

    assert main([
        "generate-data", "--config", str(config), "--codes", str(codes),
        "--output", str(data),
    ]) == 0

    lm = root / "lm.json"
    assert main(["train-lm", "--corpus", str(data / "corpus.txt"),
                 "--order", "2", "--output", str(lm)]) == 0

    ckpt = root / "model.json"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--lm", str(lm), "--output", str(ckpt)]) == 0

    wav = root / "sample.wav"
    write_wav(wav, synthesize_word("pain", SpeakerProfile("near", base_pitch=120.0, rate=0.9,
                                                          seed=1), repeat_index=0))
    return SimpleNamespace(
        root=root, config=config, codes=codes, data=data, lm=lm, ckpt=ckpt, wav=wav
    )


class TestGenerateData:
    def test_writes_all_artifacts(self, workspace, capsys):
        for name in ("config.json", "corpus.txt", "train.json", "test.json"):
            assert (workspace.data / name).exists()
        assert (workspace.data / "corpus.txt").read_text(encoding="utf-8") == "aa bb\ncc\n"

    def test_stats_printed(self, workspace, tmp_path, capsys):
        out = tmp_path / "again"
        assert main([
            "generate-data", "--config", str(workspace.config),
            "--codes", str(workspace.codes), "--output", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "codes: 2" in stdout
        assert "vocabulary: 3 words" in stdout
        assert "train utterances: 5 (speakers near)" in stdout
        assert "test utterances: 5 (speaker far)" in stdout

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "rerun"
        assert main([
            "generate-data", "--config", str(workspace.config),
            "--codes", str(workspace.codes), "--output", str(out),
        ]) == 0
        for name in ("train.json", "test.json", "config.json"):
            assert (out / name).read_bytes() == (workspace.data / name).read_bytes()

    def test_utterance_counts_follow_the_cap(self, workspace):
        # per speaker: min(2^2, 3) variations of "aa bb" plus min(2^1, 3) of "cc"
        train = json.loads((workspace.data / "train.json").read_text(encoding="utf-8"))
        test = json.loads((workspace.data / "test.json").read_text(encoding="utf-8"))
        assert len(train["records"]) == 5
        assert len(test["records"]) == 5

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"typo": 1}), encoding="utf-8")
        code = main(["generate-data", "--config", str(bad), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "typo" in capsys.readouterr().err

    def test_failed_corpus_write_keeps_the_old_file(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "data"
        out.mkdir()
        (out / "corpus.txt").write_bytes(b"an earlier corpus\n")
        # the corpus is 9 bytes ("aa bb\ncc\n"); the disk fills after 4
        fail_writes_after(monkeypatch, 4, OSError(errno.ENOSPC, "No space left on device"),
                          name="corpus.txt")
        code, err = run(["generate-data", "--config", workspace.config, "--codes", workspace.codes,
                         "--output", out])
        assert code == 3
        assert_one_line_error(err, "No space left")
        assert (out / "corpus.txt").read_bytes() == b"an earlier corpus\n"
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config.json", "corpus.txt", "test.json", "train.json"]

    def test_holdout_names_the_test_speaker(self, workspace, tmp_path, capsys):
        out = tmp_path / "near-held-out"
        assert main(["generate-data", "--config", str(workspace.config),
                     "--codes", str(workspace.codes), "--output", str(out),
                     "--holdout", "near"]) == 0
        stdout = capsys.readouterr().out
        assert "train utterances: 5 (speakers far)" in stdout
        assert "test utterances: 5 (speaker near)" in stdout
        # the same records as the default split, with the two speakers' roles swapped
        assert load_manifest(out / "train.json") == load_manifest(workspace.data / "test.json")
        assert load_manifest(out / "test.json") == load_manifest(workspace.data / "train.json")
        speakers = {r.speaker_id for r in load_manifest(out / "test.json").records}
        assert speakers == {"near"}

    def test_unknown_holdout_speaker_exits_2(self, workspace, tmp_path):
        out = tmp_path / "o"
        code, err = run(["generate-data", "--config", workspace.config, "--codes", workspace.codes,
                         "--output", out, "--holdout", "spk9"])
        assert code == 2
        assert_one_line_error(err, "unknown speaker 'spk9'", "near", "far")
        assert not out.exists()

    @pytest.mark.parametrize("description, word", [("acute pain (chest)", "'(chest)'"),
                                                   ("type 2 diabetes", "'2'")])
    def test_unspeakable_description_word_exits_2_before_writing(self, tmp_path, description,
                                                                 word):
        codes = tmp_path / "codes.tsv"
        codes.write_text(f"C1\taa bb\nC2\t{description}\n", encoding="utf-8")
        out = tmp_path / "out"
        code, err = run(["generate-data", "--codes", codes, "--output", out])
        assert code == 2
        assert_one_line_error(err, f"{codes}: line 2: ", "C2", word)
        assert not out.exists()

    def test_code_line_without_a_tab_exits_2_naming_the_file(self, tmp_path):
        codes = tmp_path / "bad.tsv"
        codes.write_text("C1\taa bb\nC2 cc\n", encoding="utf-8")
        out = tmp_path / "out"
        code, err = run(["generate-data", "--codes", codes, "--output", out])
        assert code == 2
        assert err == f"error: {codes}: line 2: expected a tab between code and description\n"
        assert not out.exists()

    def test_missing_codes_file_exits_3(self, tmp_path):
        assert main([
            "generate-data", "--codes", str(tmp_path / "nope.tsv"),
            "--output", str(tmp_path / "o"),
        ]) == 3


class TestTrainLm:
    def test_model_file_is_loadable(self, workspace):
        lm = load_lm(workspace.lm)
        assert lm.max_order == 2
        assert prob(lm, "bb", ["aa"]) > prob(lm, "cc", ["aa"])

    def test_prints_perplexity(self, workspace, tmp_path, capsys):
        out = tmp_path / "lm.json"
        assert main(["train-lm", "--corpus", str(workspace.data / "corpus.txt"),
                     "--output", str(out)]) == 0
        assert "training perplexity:" in capsys.readouterr().out

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        code = main(["train-lm", "--corpus", str(empty), "--output", str(tmp_path / "lm.json")])
        assert code == 2
        assert "no sentences" in capsys.readouterr().err

    def test_order_above_the_bound_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "lm.json"
        with deadline(0.5):
            code = main(["train-lm", "--corpus", str(workspace.data / "corpus.txt"),
                         "--order", "17", "--output", str(out)])
        assert code == 2 and not out.exists()
        assert_one_line_error(capsys.readouterr().err, "1..16", "got 17")


class TestTrain:
    def test_checkpoint_and_log_written(self, workspace):
        assert workspace.ckpt.exists()
        log_lines = (workspace.root / "model.log.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in log_lines]
        assert [r["epoch"] for r in records] == [0, 1]
        assert all("loss" in r for r in records)
        assert records[-1]["wer"] is not None

    def test_rerun_reproduces_checkpoint_bytes(self, workspace, tmp_path):
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(workspace.config), "--data", str(workspace.data),
                     "--lm", str(workspace.lm), "--output", str(out)]) == 0
        assert out.read_bytes() == workspace.ckpt.read_bytes()

    def test_resume_extends_the_run(self, workspace, tmp_path, capsys):
        out = tmp_path / "resumed.json"
        assert main(["train", "--data", str(workspace.data), "--lm", str(workspace.lm),
                     "--resume", str(workspace.ckpt), "--epochs", "3",
                     "--output", str(out)]) == 0
        assert "trained epochs 2..2" in capsys.readouterr().out
        assert load_checkpoint(out).step == 3

    def test_failed_checkpoint_write_keeps_old_bytes_and_exits_3(
        self, workspace, tmp_path, monkeypatch
    ):
        out = tmp_path / "model.json"
        before = workspace.ckpt.read_bytes()
        out.write_bytes(before)
        disk_full = OSError(errno.ENOSPC, "No space left on device")
        fail_writes_after(monkeypatch, len(before) // 2, disk_full)
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", out, "--epochs", "3", "--output", out])
        assert code == 3
        assert_one_line_error(err, "No space left")
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.log.jsonl"]

    def test_zero_adam_eps_exits_2_before_writing(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "optimizer": {"eps": 0.0}}), encoding="utf-8")
        code, err = run(["train", "--config", config, "--data", workspace.data,
                         "--lm", workspace.lm, "--output", tmp_path / "model.json"])
        assert code == 2
        assert_one_line_error(err, str(config), "optimizer")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_fresh_run_with_fewer_than_one_epoch_exits_2(self, workspace, tmp_path, epochs):
        code, err = run(["train", "--config", workspace.config, "--data", workspace.data,
                         "--lm", workspace.lm, "--epochs", epochs,
                         "--output", tmp_path / "model.json"])
        assert code == 2
        assert_one_line_error(err, f"epochs {epochs} outside [1, inf)")
        assert list(tmp_path.iterdir()) == []

    def test_fresh_run_takes_the_dataset_settings_of_its_manifest(self, workspace, tmp_path):
        dataset = {**TINY_CONFIG["dataset"],
                   "frontend": {**TINY_CONFIG["dataset"]["frontend"], "window": 512, "hop": 200}}
        made = tmp_path / "made.json"
        made.write_text(json.dumps({**TINY_CONFIG, "dataset": dataset}), encoding="utf-8")
        assert run(["generate-data", "--config", made, "--codes", workspace.codes,
                    "--output", tmp_path / "data"])[0] == 0
        # a run config without a dataset section: its defaults would featurize at 400/160
        trained = tmp_path / "trained.json"
        without = {k: v for k, v in TINY_CONFIG.items() if k != "dataset"}
        trained.write_text(json.dumps({**without, "training": {"epochs": 1, "wer_every": 0}}),
                           encoding="utf-8")
        assert run(["train", "--config", trained, "--data", tmp_path / "data",
                    "--lm", workspace.lm, "--output", tmp_path / "model.json"])[0] == 0
        stored = load_checkpoint(tmp_path / "model.json").config.dataset
        assert stored == load_manifest(tmp_path / "data" / "train.json").config
        assert (stored.frontend.window, stored.frontend.hop) == (512, 200)

    @pytest.mark.parametrize("flag", ["--seed", "--config"])
    def test_resume_with_a_setting_flag_exits_2_before_writing(self, workspace, tmp_path, flag):
        value = {"--seed": 3, "--config": workspace.config}[flag]
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", workspace.ckpt, "--epochs", 3, flag, value,
                         "--output", tmp_path / "resumed.json"])
        assert code == 2
        assert_one_line_error(err, flag, "--resume")
        assert list(tmp_path.iterdir()) == []

    def test_logged_wer_is_the_evaluate_corpus_wer_at_beam_width_1(self, workspace, tmp_path,
                                                                    monkeypatch):
        config = tmp_path / "config.json"
        training = {"epochs": 4, "holdout_fraction": 0.4, "wer_every": 1}
        config.write_text(json.dumps({**TINY_CONFIG, "optimizer": {"lr": 0.2},
                                      "training": training}), encoding="utf-8")
        held_out = list(iter_utterances(load_manifest(workspace.data / "train.json")))[-2:]
        real, scores = cli.train_with_scheduled_lm_sampling, []

        def scored_after_each_epoch(model, lm, vocab, utterances, config, *args, **kwargs):
            assert len(utterances) == 3  # the 5 records less int(5 * 0.4) held out
            greedy = dataclasses.replace(config.fusion, beam_width=1)
            for record in real(model, lm, vocab, utterances, config, *args, **kwargs):
                report = evaluate_dataset(model, lm, held_out, greedy, vocab, seed=0,
                                          resamples=1000)
                scores.append(report.corpus_wer)
                yield record

        monkeypatch.setattr(cli, "train_with_scheduled_lm_sampling", scored_after_each_epoch)
        out = tmp_path / "model.json"
        code, err = run(["train", "--config", config, "--data", workspace.data,
                         "--lm", workspace.lm, "--output", out])
        assert code == 0, err
        lines = out.with_suffix(".log.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["wer"] for line in lines] == scores
        assert len(scores) == 4

    def test_empty_manifest_exits_2_before_writing(self, workspace, tmp_path, monkeypatch):
        # with one speaker, that speaker is held out and train.json holds no record
        dataset = {**TINY_CONFIG["dataset"], "speakers": TINY_CONFIG["dataset"]["speakers"][:1]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "dataset": dataset}), encoding="utf-8")
        data = tmp_path / "data"
        assert run(["generate-data", "--config", config, "--codes", workspace.codes,
                    "--output", data])[0] == 0
        assert load_manifest(data / "train.json").records == []
        out = tmp_path / "run" / "model.json"
        loaded = []
        monkeypatch.setattr(cli, "load_lm", loaded.append)  # the manifest is read first
        assert_train_refused(workspace, monkeypatch, out,
                             ["train", "--config", config, "--data", data,
                              "--lm", tmp_path / "nope.json", "--output", out],
                             f"{data / 'train.json'} holds no utterances to train on")
        assert loaded == []

    def test_info_log_shows_each_epochs_time_and_memory_on_stderr_only(self, workspace,
                                                                       tmp_path):
        out = tmp_path / "model.json"
        env = dict(os.environ, ICDSCRIBE_LOG="INFO", PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-m", "icdscribe.cli", "train", "--config", str(workspace.config),
             "--data", str(workspace.data), "--lm", str(workspace.lm), "--output", str(out)],
            capture_output=True, text=True, env=env, check=True)
        lines = [line for line in done.stderr.splitlines() if line.startswith("epoch ")]
        assert len(lines) == TINY_CONFIG["training"]["epochs"], done.stderr
        rss = r"  peak rss [\d.]+ MB" if platform.system() != "Windows" else ""
        for epoch, line in enumerate(lines):
            assert re.fullmatch(rf"epoch {epoch}  loss [\d.]+  sample_p [\d.]+(  wer [\d.]+)?"
                                rf"  [\d.]+ s  [\d.]+ updates/s{rss}", line), line
        assert not [line for line in done.stdout.splitlines() if line.startswith("epoch ")]
        # the log and the checkpoint are those of a run without the log level
        assert out.read_bytes() == workspace.ckpt.read_bytes()
        assert (out.with_suffix(".log.jsonl").read_bytes()
                == (workspace.root / "model.log.jsonl").read_bytes())

    def test_freed_memory_goes_back_after_realization_and_before_the_first_update(
        self, workspace, tmp_path, monkeypatch
    ):
        events = []
        realize, update = data_module.realize_utterance, fusion.adam_step
        monkeypatch.setattr(data_module, "realize_utterance",
                            lambda *args: events.append("realize") or realize(*args))
        monkeypatch.setattr(fusion, "adam_step",
                            lambda *args: events.append("update") or update(*args))
        monkeypatch.setattr(cli, "_return_freed_memory", lambda: events.append("return"))
        assert run(["train", "--config", workspace.config, "--data", workspace.data,
                    "--lm", workspace.lm, "--output", tmp_path / "model.json"])[0] == 0
        records = len(load_manifest(workspace.data / "train.json").records)
        assert events[:records + 2] == ["realize"] * records + ["return", "update"]
        assert events.count("return") == 1

    def test_resume_past_the_horizon_exits_2(self, workspace, tmp_path, capsys):
        code = main(["train", "--data", str(workspace.data), "--lm", str(workspace.lm),
                     "--resume", str(workspace.ckpt), "--epochs", "2",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "already covers" in capsys.readouterr().err


class TestResumeThroughTheLog:
    """A run stopped after epoch k and resumed to N equals an uninterrupted N-epoch run."""

    EPOCHS = 6

    def write_config(self, tmp_path, lr, **sections):
        config = tmp_path / "config.json"
        training = {"epochs": self.EPOCHS, "holdout_fraction": 0.3, "wer_every": 1}
        config.write_text(json.dumps({**TINY_CONFIG, "optimizer": {"lr": lr}, "training": training,
                                      **sections}),
                          encoding="utf-8")
        return config

    def interrupt(self, monkeypatch, argv, k):
        """Run `argv` until epoch k - 1 is logged and checkpointed, then stop it."""
        real = cli.train_with_scheduled_lm_sampling

        def interrupted(*args, **kwargs):
            for record in real(*args, **kwargs):
                yield record  # train logs and checkpoints the record before asking for the next
                if record.epoch == k - 1:
                    raise KeyboardInterrupt

        monkeypatch.setattr(cli, "train_with_scheduled_lm_sampling", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(argv)
        monkeypatch.undo()

    @pytest.mark.parametrize("lr", [0.05, 0.2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_interrupted_run_resumes_byte_identically(self, workspace, tmp_path, monkeypatch, k, lr):
        train = ["train", "--config", self.write_config(tmp_path, lr), "--data", workspace.data,
                 "--lm", workspace.lm]
        straight = tmp_path / "straight.json"
        assert run(train + ["--output", straight])[0] == 0
        resumed = tmp_path / "resumed.json"
        self.interrupt(monkeypatch, train + ["--output", resumed], k)
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm, "--resume", resumed,
                         "--epochs", self.EPOCHS, "--output", resumed])
        assert code == 0, err
        assert resumed.read_bytes() == straight.read_bytes()
        log = resumed.with_suffix(".log.jsonl").read_bytes()
        assert log == straight.with_suffix(".log.jsonl").read_bytes()
        assert [json.loads(line)["epoch"] for line in log.splitlines()] == list(range(self.EPOCHS))

    @pytest.mark.parametrize("k", [1, 2])
    def test_epochs_flag_is_saved_so_a_plain_resume_continues_to_it(
        self, workspace, tmp_path, monkeypatch, k
    ):
        # the sampling ramp spans the run's epoch count, so each epoch's lm_sample_p depends on it
        config = self.write_config(tmp_path, 0.05, fusion={**TINY_CONFIG["fusion"],
                                                           "lm_sample_max": 0.5})
        train = ["train", "--config", config, "--data", workspace.data, "--lm", workspace.lm,
                 "--epochs", 3]
        straight = tmp_path / "straight.json"
        assert run(train + ["--output", straight])[0] == 0
        assert load_checkpoint(straight).config.training.epochs == 3
        resumed = tmp_path / "resumed.json"
        self.interrupt(monkeypatch, train + ["--output", resumed], k)
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", resumed, "--output", resumed])
        assert code == 0, err
        assert resumed.read_bytes() == straight.read_bytes()
        log = resumed.with_suffix(".log.jsonl").read_bytes()
        assert log == straight.with_suffix(".log.jsonl").read_bytes()
        assert [json.loads(line)["lm_sample_p"] for line in log.splitlines()] == [0.0, 0.25, 0.5]

    def test_plain_resume_of_a_finished_epochs_run_exits_2(self, workspace, tmp_path):
        out = tmp_path / "model.json"
        assert run(["train", "--config", self.write_config(tmp_path, 0.05), "--data",
                    workspace.data, "--lm", workspace.lm, "--epochs", 1, "--output", out])[0] == 0
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", out, "--output", out])
        assert code == 2
        assert_one_line_error(err, "already covers 1 epochs")

    def test_kill_after_the_checkpoint_write_keeps_the_log_record(
        self, workspace, tmp_path, monkeypatch
    ):
        train = ["train", "--config", self.write_config(tmp_path, 0.05), "--data", workspace.data,
                 "--lm", workspace.lm]
        straight = tmp_path / "straight.json"
        assert run(train + ["--output", straight])[0] == 0

        real = cli.save_checkpoint

        def save_then_die(*args, **kwargs):
            real(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_checkpoint", save_then_die)
        resumed = tmp_path / "resumed.json"
        with pytest.raises(KeyboardInterrupt):
            run(train + ["--output", resumed])
        monkeypatch.undo()
        assert load_checkpoint(resumed).step == 1
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm, "--resume", resumed,
                         "--epochs", self.EPOCHS, "--output", resumed])
        assert code == 0, err
        assert resumed.read_bytes() == straight.read_bytes()
        log = resumed.with_suffix(".log.jsonl").read_bytes()
        assert log == straight.with_suffix(".log.jsonl").read_bytes()

    def copy_of_the_run(self, workspace, tmp_path):
        out = tmp_path / "model.json"
        out.write_bytes(workspace.ckpt.read_bytes())
        log = workspace.ckpt.with_suffix(".log.jsonl").read_bytes()
        out.with_suffix(".log.jsonl").write_bytes(log)
        return out, log

    def test_resume_into_a_new_output_without_a_better_epoch_keeps_the_best(
        self, workspace, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "evaluate_dataset",
                            lambda *args, **kwargs: SimpleNamespace(corpus_wer=99.0))
        out = tmp_path / "resumed.json"
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", workspace.ckpt, "--epochs", "3", "--output", out])
        assert code == 0, err
        assert out.read_bytes() == workspace.ckpt.read_bytes()
        assert load_checkpoint(out).step == 2
        lines = out.with_suffix(".log.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0, 1, 2]

    def test_kept_records_are_on_disk_before_the_first_resumed_epoch_ends(
        self, workspace, tmp_path, monkeypatch
    ):
        out, before = self.copy_of_the_run(workspace, tmp_path)
        seen = []

        def evaluate_reading_the_log(*args, **kwargs):
            seen.append(out.with_suffix(".log.jsonl").read_bytes())
            return SimpleNamespace(corpus_wer=99.0)

        monkeypatch.setattr(cli, "evaluate_dataset", evaluate_reading_the_log)
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", out, "--epochs", "3", "--output", out])
        assert code == 0, err
        assert seen == [before]

    def test_a_log_without_the_gradient_fields_still_resumes(self, workspace, tmp_path):
        out, before = self.copy_of_the_run(workspace, tmp_path)
        added = ("grad_norm_mean", "grad_norm_max", "clipped_frac")
        older = [{k: v for k, v in json.loads(line).items() if k not in added}
                 for line in before.decode("utf-8").splitlines()]
        out.with_suffix(".log.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in older), encoding="utf-8")
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", out, "--epochs", "3", "--output", out])
        assert code == 0, err
        lines = out.with_suffix(".log.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert all(records[i][k] == 0.0 for i in (0, 1) for k in added)  # read as the default
        assert records[2]["grad_norm_max"] > 0

    def test_torn_last_line_is_skipped(self, workspace, tmp_path):
        out, before = self.copy_of_the_run(workspace, tmp_path)
        out.with_suffix(".log.jsonl").write_bytes(before + b'{"epoch": 2, "lo')
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", out, "--epochs", "3", "--output", out])
        assert code == 0, err
        log = out.with_suffix(".log.jsonl").read_bytes()
        assert log.startswith(before)
        assert [json.loads(line)["epoch"] for line in log.splitlines()] == [0, 1, 2]

    @pytest.mark.parametrize("line, fragment", [
        ("not json", "not valid JSON"),
        ('{"epoch": "zero", "loss": 1.0, "lm_sample_p": 0.0, "wer": null}', "'epoch' must be int"),
        ('{"epoch": 0, "lm_sample_p": 0.0, "wer": 0.5}', "missing key 'loss'"),
        ("[0, 1.0]", "must be a mapping"),
    ], ids=["not-json", "epoch-not-int", "missing-loss", "not-a-mapping"])
    def test_malformed_log_exits_2_and_is_kept(self, workspace, tmp_path, line, fragment):
        out = tmp_path / "model.json"
        out.write_bytes(workspace.ckpt.read_bytes())
        log = out.with_suffix(".log.jsonl")
        log.write_text(line + "\n", encoding="utf-8")
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm, "--resume", out,
                         "--epochs", "3", "--output", out])
        assert code == 2
        assert_one_line_error(err, "model.log.jsonl", fragment)
        assert log.read_text(encoding="utf-8") == line + "\n"
        assert out.read_bytes() == workspace.ckpt.read_bytes()


class TestEvaluate:
    def test_report_printed_and_serialized(self, workspace, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["evaluate", "--ckpt", str(workspace.ckpt), "--lm", str(workspace.lm),
                     "--manifest", str(workspace.data / "test.json"),
                     "--resamples", "50", "--output", str(report)]) == 0
        stdout = capsys.readouterr().out
        assert "WER" in stdout and "BLEU" in stdout and "errors: S=" in stdout
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert 0.0 <= payload["corpus_wer"]
        assert payload["utterances"] == 5
        for key in ("substitutions", "deletions", "insertions"):
            assert key in payload

    def test_same_seed_gives_identical_reports(self, workspace, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["evaluate", "--ckpt", str(workspace.ckpt), "--lm", str(workspace.lm),
                         "--manifest", str(workspace.data / "test.json"),
                         "--resamples", "50", "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_resamples_below_one_exits_2_before_decoding(self, workspace, monkeypatch, count):
        def no_decode(*args):
            raise AssertionError("an utterance was decoded")

        monkeypatch.setattr("icdscribe.fusion.transcribe", no_decode)
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                         "--manifest", workspace.data / "test.json", "--resamples", count])
        assert code == 2
        assert_one_line_error(err, f"resamples {count} outside [1, 10000]")

    def test_resamples_above_ten_thousand_exit_2_before_decoding(self, workspace, monkeypatch):
        def no_decode(*args):
            raise AssertionError("an utterance was decoded")

        monkeypatch.setattr("icdscribe.fusion.transcribe", no_decode)
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                         "--manifest", workspace.data / "test.json", "--resamples", "10001"])
        assert code == 2
        assert_one_line_error(err, "resamples 10001 outside [1, 10000]")

    def test_missing_checkpoint_exits_3(self, workspace, tmp_path):
        assert main(["evaluate", "--ckpt", str(tmp_path / "nope.json"),
                     "--lm", str(workspace.lm),
                     "--manifest", str(workspace.data / "test.json")]) == 3

    def test_report_names_each_utterance_with_its_transcript(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                         "--manifest", workspace.data / "test.json", "--resamples", "20",
                         "--output", report])
        assert code == 0, err
        payload = json.loads(report.read_text(encoding="utf-8"))
        ckpt = load_checkpoint(workspace.ckpt)
        model, lm, vocab = build_model(ckpt), load_lm(workspace.lm), ckpt.vocabulary
        cfg = ckpt.config.fusion
        assert (payload["lambda_lm"], payload["beam_width"]) == (cfg.lambda_lm, cfg.beam_width)
        utterances = list(iter_utterances(load_manifest(workspace.data / "test.json")))
        for entry, utt in zip(payload["per_utterance"], utterances, strict=True):
            assert entry["id"] == f"{utt.code}/{utt.speaker_id}/{utt.variation_index}"
            assert entry["reference"] == " ".join(vocab.decode(utt.target))
            hypothesis = fusion.transcribe(model, lm, utt.spectrogram, cfg, vocab)
            assert entry["hypothesis"] == " ".join(hypothesis)

    def test_missing_lm_with_positive_weight_exits_2(self, workspace):
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--manifest",
                         workspace.data / "test.json"])
        assert code == 2
        assert err == "error: --lm is required unless --lambda-lm 0 disables fusion\n"

    def test_lm_weight_zero_needs_no_lm(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--manifest",
                         workspace.data / "test.json", "--lambda-lm", "0", "--beam", "1",
                         "--resamples", "20", "--output", report])
        assert code == 0, err
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert (payload["lambda_lm"], payload["beam_width"]) == (0.0, 1)

    def test_table_names_the_decode_settings(self, workspace, capsys):
        cfg = load_checkpoint(workspace.ckpt).config.fusion
        argv = ["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                "--manifest", workspace.data / "test.json", "--resamples", "20"]
        tables = []
        for flags in ([], ["--lambda-lm", "0", "--beam", "1"]):
            assert main([str(a) for a in argv + flags]) == 0
            tables.append(capsys.readouterr().out)
        assert f"decoding: beam width {cfg.beam_width}, lambda_lm {cfg.lambda_lm:g}\n" in tables[0]
        assert "decoding: beam width 1, lambda_lm 0\n" in tables[1]
        assert tables[0] != tables[1]

    def test_written_report_round_trips_through_schema(self, workspace, tmp_path):
        report, again = tmp_path / "report.json", tmp_path / "again.json"
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                         "--manifest", workspace.data / "test.json", "--resamples", "20",
                         "--output", report])
        assert code == 0, err
        read = from_payload(EvalReport, json.loads(report.read_text(encoding="utf-8")))
        assert len(read.per_utterance) == read.utterances == 5
        write_document(again, None, to_payload(read))
        assert again.read_bytes() == report.read_bytes()

    def test_info_log_shows_the_pass_time_and_memory_and_changes_no_report_byte(
        self, workspace, tmp_path
    ):
        path = os.pathsep.join(p for p in (str(Path(cli.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH")) if p)
        env = {k: v for k, v in os.environ.items() if k != "ICDSCRIBE_LOG"}
        reports, errs = [], []
        for level in (None, "INFO"):
            report = tmp_path / f"report-{level}.json"
            done = subprocess.run(
                [sys.executable, "-m", "icdscribe.cli", "evaluate", "--ckpt", str(workspace.ckpt),
                 "--lm", str(workspace.lm), "--manifest", str(workspace.data / "test.json"),
                 "--resamples", "20", "--output", str(report)],
                capture_output=True, text=True, check=True,
                env={**env, "PYTHONPATH": path, **({"ICDSCRIBE_LOG": level} if level else {})})
            reports.append(report.read_bytes())
            errs.append(done.stderr)
        assert reports[0] == reports[1]
        assert errs[0] == ""
        rss = r"  peak rss [\d.]+ MB" if platform.system() != "Windows" else ""
        assert re.fullmatch(rf"evaluated 5 utterances  [\d.]+ s  [\d.]+ utterances/s{rss}\n",
                            errs[1]), errs[1]

    def test_flags_that_repeat_the_checkpoint_change_no_byte(self, workspace, tmp_path):
        cfg = load_checkpoint(workspace.ckpt).config.fusion
        reports = [tmp_path / "plain.json", tmp_path / "flagged.json"]
        for report, flags in zip(reports, [[], ["--lambda-lm", cfg.lambda_lm,
                                                "--beam", cfg.beam_width]]):
            code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                             "--manifest", workspace.data / "test.json", "--resamples", "20",
                             "--output", report] + flags)
            assert code == 0, err
        assert reports[0].read_bytes() == reports[1].read_bytes()


class TestDecodingFlags:
    """`evaluate` and `transcribe` apply their fusion flags through one helper, so alike."""

    COMMANDS = {
        "evaluate": lambda w: ["evaluate", "--ckpt", w.ckpt, "--manifest", w.data / "test.json"],
        "transcribe": lambda w: ["transcribe", w.wav, "--ckpt", w.ckpt],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_beam_above_the_bound_exits_2(self, workspace, command):
        code, err = run(self.COMMANDS[command](workspace) + ["--lambda-lm", "0",
                                                             "--beam", "100000"])
        assert code == 2
        assert err == "error: beam_width 100000 outside [1, 64]\n"


class TestTranscribe:
    @pytest.mark.parametrize("name", ["test.json", "notes.txt", "ghost.json", "noext"])
    def test_input_that_is_not_a_wav_exits_2_naming_evaluate(self, workspace, tmp_path,
                                                             monkeypatch, name):
        path = workspace.data / name if name == "test.json" else tmp_path / name
        if name == "notes.txt":
            path.write_text("not audio\n", encoding="utf-8")

        def no_read(*args):
            raise AssertionError("a file was read")

        asked = []
        monkeypatch.setattr(cli, "load_checkpoint", no_read)
        monkeypatch.setattr(cli, "load_lm", no_read)
        monkeypatch.setattr(autodiff, "_helper", lambda: asked.append("helper"))
        out = tmp_path / "out"
        out.mkdir()
        before = threading.active_count()
        code, err = run(["transcribe", path, "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                         "--output", out / "lines.tsv"])
        assert code == 2
        assert_one_line_error(err, str(path), "evaluate --manifest")
        assert list(out.iterdir()) == [] and asked == [] and threading.active_count() == before

    def test_lm_weight_zero_skips_the_lm(self, workspace, capsys):
        assert main(["transcribe", str(workspace.wav),
                     "--ckpt", str(workspace.ckpt), "--lambda-lm", "0"]) == 0
        assert capsys.readouterr().out.strip()

    def test_acoustic_weight_is_no_option(self, workspace, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["transcribe", str(workspace.wav), "--ckpt", str(workspace.ckpt),
                  "--lambda-lm", "0", "--lambda-acoustic", "1"])
        assert stop.value.code == 2
        assert "--lambda-acoustic" in capsys.readouterr().err

    def test_missing_lm_with_positive_weight_exits_2(self, workspace, capsys):
        code = main(["transcribe", str(workspace.wav), "--ckpt", str(workspace.ckpt)])
        assert code == 2
        assert "--lm" in capsys.readouterr().err

    def test_wav_input_starts_no_thread(self, workspace, tmp_path, monkeypatch):
        # one wav has nothing to realize ahead, so it never asks for the helper
        wav = tmp_path / "sample.wav"
        write_wav(wav, synthesize_word("pain", SpeakerProfile("near", seed=1), repeat_index=0))
        asked = []
        monkeypatch.setattr(autodiff, "_helper", lambda: asked.append("helper"))
        before = threading.active_count()
        code, _ = run(["transcribe", wav, "--ckpt", workspace.ckpt, "--lm", workspace.lm])
        assert code == 0 and threading.active_count() == before and asked == []

    def test_wav_input_decodes(self, workspace, tmp_path, capsys):
        speaker = SpeakerProfile("near", base_pitch=120.0, rate=0.9, seed=1)
        wav = tmp_path / "sample.wav"
        write_wav(wav, synthesize_word("pain", speaker, repeat_index=0))
        assert main(["transcribe", str(wav), "--ckpt", str(workspace.ckpt),
                     "--lm", str(workspace.lm)]) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        uid, words, score = line.split("\t")
        assert uid == "sample" and set(words.split()) <= {"aa", "bb", "cc"}
        float(score)

    def test_wav_at_another_sample_rate_exits_2(self, workspace, tmp_path):
        speaker = SpeakerProfile("near", base_pitch=120.0, rate=0.9, seed=1)
        wav = tmp_path / "cd.wav"
        write_wav(wav, synthesize_word("aa", speaker, repeat_index=0, sample_rate=44100))
        code, err = run(["transcribe", wav, "--ckpt", workspace.ckpt, "--lm", workspace.lm])
        assert code == 2
        assert_one_line_error(err, "44100 Hz", "16000 Hz")

    def test_unreadable_input_exits_3(self, workspace, tmp_path):
        assert main(["transcribe", str(tmp_path / "ghost.wav"),
                     "--ckpt", str(workspace.ckpt), "--lambda-lm", "0"]) == 3

    def test_output_file_written(self, workspace, tmp_path, capsys):
        out = tmp_path / "lines.tsv"
        assert main(["transcribe", str(workspace.wav),
                     "--ckpt", str(workspace.ckpt), "--lm", str(workspace.lm),
                     "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == printed and printed.count("\n") == 1

    def test_failed_output_write_keeps_the_old_file(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "lines.tsv"
        out.write_bytes(b"an earlier transcript\n")
        fail_writes_after(monkeypatch, 10, OSError(errno.ENOSPC, "No space left on device"))
        code, err = run(["transcribe", workspace.wav, "--ckpt", workspace.ckpt,
                         "--lm", workspace.lm, "--output", out])
        assert code == 3
        assert_one_line_error(err, "No space left")
        assert out.read_bytes() == b"an earlier transcript\n"
        assert [p.name for p in tmp_path.iterdir()] == ["lines.tsv"]


class TestOutputInAMissingDirectory:
    """An output that cannot be written is refused first: exit 3, one line naming it."""

    @pytest.mark.parametrize("command", ["train", "evaluate", "transcribe"])
    def test_refused_before_anything_is_read(self, workspace, tmp_path, monkeypatch, command):
        out = tmp_path / "nodir" / "out.json"
        argv = {
            "train": ["train", "--config", workspace.config, "--data", workspace.data],
            "evaluate": ["evaluate", "--ckpt", workspace.ckpt,
                         "--manifest", workspace.data / "test.json"],
            "transcribe": ["transcribe", workspace.wav, "--ckpt", workspace.ckpt],
        }[command] + ["--lm", workspace.lm, "--output", out]
        read = []
        for name in ("load_manifest", "load_checkpoint", "load_lm", "read_wav"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: read.append(name))
        code, err = run(argv)
        assert code == 3
        assert_one_line_error(err, f"'{out}'", "no directory")
        assert ".tmp" not in err and read == []
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_names_the_file_asked_for(self, tmp_path):
        out = tmp_path / "nodir" / "r.json"
        with pytest.raises(FileNotFoundError) as caught:
            write_document(out, None, {})
        assert caught.value.filename == str(out)
        assert list(tmp_path.iterdir()) == []


class TestRealizedOnTheHelper:
    """`evaluate` realizes utterances on the caller and the helper."""

    @staticmethod
    def command(workspace, out):
        return ["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                "--manifest", workspace.data / "test.json", "--resamples", "20",
                "--output", out / "report.json"]

    def test_starts_at_most_the_one_helper(self, workspace, tmp_path):
        before = set(threading.enumerate())
        code, err = run(self.command(workspace, tmp_path))
        assert code == 0, err
        started = set(threading.enumerate()) - before
        assert len(started) <= 1
        assert all(t.name.startswith("icdscribe-helper") for t in started)

    def test_output_is_byte_identical_with_and_without_the_helper(self, workspace, tmp_path):
        runs = []
        for on in (False, True):
            out = tmp_path / str(on)
            out.mkdir()
            stdout = io.StringIO()
            with helper_thread(on), contextlib.redirect_stdout(stdout):
                assert main([str(a) for a in self.command(workspace, out)]) == 0
            runs.append((stdout.getvalue().replace(str(out), "OUT"),
                         (out / "report.json").read_bytes()))
        assert runs[0] == runs[1]

    def test_a_realization_error_exits_2_as_on_one_thread(self, workspace, monkeypatch):
        # the failing record is realized on the helper or on the caller, by thread timing
        realize, threads = data_module.realize_utterance, []
        records = load_manifest(workspace.data / "test.json").records

        def third_fails(manifest, record, *args):
            threads.append(threading.current_thread())
            if record == records[2]:
                raise ContractError(f"record {record.code}/{record.variation_index} "
                                    f"cannot be realized")
            return realize(manifest, record, *args)

        monkeypatch.setattr(data_module, "realize_utterance", third_fails)
        errors = []
        for on in (False, True):
            threads.clear()
            with helper_thread(on):
                code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", workspace.lm,
                                 "--manifest", workspace.data / "test.json"])
            assert code == 2 and 3 <= len(threads) <= 3 + autodiff.MAP_WINDOW
            assert on or all(t is threading.main_thread() for t in threads)
            assert_one_line_error(err, "cannot be realized")
            errors.append(err)
        assert errors[0] == errors[1]


class TestLmWithoutDecoderWords:
    """Fused decoding with an LM that lacks decoder words exits 2, as training does."""

    @pytest.fixture
    def partial_lm(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("aa bb\n", encoding="utf-8")
        lm = tmp_path / "lm.json"
        assert run(["train-lm", "--corpus", corpus, "--order", "2", "--output", lm])[0] == 0
        return lm

    @pytest.mark.parametrize(
        "command",
        [
            lambda w, lm: ["evaluate", "--ckpt", w.ckpt, "--lm", lm,
                           "--manifest", w.data / "test.json"],
            lambda w, lm: ["transcribe", w.wav, "--ckpt", w.ckpt, "--lm", lm],
        ],
        ids=["evaluate", "transcribe"],
    )
    def test_fused_decoding_exits_2(self, workspace, partial_lm, command):
        code, err = run(command(workspace, partial_lm))
        assert code == 2
        assert_one_line_error(err, "absent from the language model corpus", "'cc'")

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    def test_training_exits_2_before_writing(self, workspace, partial_lm, tmp_path, monkeypatch,
                                             resume):
        out = tmp_path / "run" / "model.json"
        argv = ["train", "--data", workspace.data, "--lm", partial_lm, "--output", out]
        argv += ["--resume", out, "--epochs", "3"] if resume else ["--config", workspace.config]
        assert_train_refused(workspace, monkeypatch, out, argv,
                             "absent from the language model corpus", "'cc'")

    def test_zero_lm_weight_still_decodes(self, workspace, partial_lm):
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--manifest",
                         workspace.data / "test.json", "--lm", partial_lm, "--lambda-lm", "0"])
        assert code == 0, err


def assert_train_refused(workspace, monkeypatch, out, argv, *fragments):
    """`train` exits 2 with one line before it realizes an utterance or writes a file.

    The directory of `out` holds the workspace's log, and on a resume its checkpoint at `out`.
    """
    out.parent.mkdir()
    out.with_suffix(".log.jsonl").write_bytes((workspace.root / "model.log.jsonl").read_bytes())
    if "--resume" in argv:
        out.write_bytes(workspace.ckpt.read_bytes())
    before = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    realized = []
    monkeypatch.setattr(data_module, "realize_utterance", lambda *args: realized.append(args))
    code, err = run(argv)
    assert code == 2
    assert_one_line_error(err, *fragments)
    assert {p.name: p.read_bytes() for p in out.parent.iterdir()} == before
    assert realized == []


def run(argv):
    """main() with its output captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_one_line_error(err, *fragments):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, err


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test from a timer signal once `seconds` have passed inside the block."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestMalformedInputs:
    """Each bad input exits 2 with a one-line error naming the key, or the file."""

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"optimizer": {"lr": None}}, "optimizer.lr"),
            ({"training": {"epochs": "3"}}, "training.epochs"),
            ({"training": {"epochs": True}}, "training.epochs"),
            ({"optimizer": {"lr": float("nan")}}, "optimizer.lr"),
            ({"dataset": {"gap_range": [0.1]}}, "dataset.gap_range"),
            ({"dataset": {"speakers": []}}, "speakers"),
            ({"dataset": {"speakers": [{"speaker_id": "a"}, {"speaker_id": "a"}]}}, "speakers"),
            ({"decoder": {"max_decode_len": 6}}, "decoder.max_decode_len"),
            ({"dataset": {"room": {"seed": 1}}}, "dataset.room.seed"),
            ({"format": "config-v1"}, "config-v1"),
            ({"dataset": {"gap_range": [-0.5, -0.1]}}, "dataset: gap_range"),
            ({"dataset": {"gap_range": [0.3, 0.1]}}, "dataset: gap_range"),
            ({"dataset": {"frontend": {"n_mels": -1}}}, "dataset.frontend: n_mels"),
            ({"dataset": {"frontend": {"n_mels": 0}}}, "dataset.frontend: n_mels"),
            ({"dataset": {"frontend": {"sample_rate": 0}}}, "dataset.frontend: sample_rate"),
            ({"dataset": {"speakers": [{"speaker_id": "a", "pitch_jitter": -3}]}},
             "dataset.speakers: pitch_jitter"),
            ({"dataset": {"speakers": [{"speaker_id": "a", "pitch_jitter": 30}]}},
             "dataset.speakers: pitch_jitter"),
            ({"dataset": {"repeats": 100000, "cap": 2}}, "dataset.repeats"),
            ({"dataset": {"speakers": [{"speaker_id": "a", "pitch_jitter": 0.51}]}},
             "dataset.speakers: pitch_jitter"),
            ({"dataset": {"speakers": [{"speaker_id": "a", "pitch_jitter": 0.99}]}},
             "dataset.speakers: pitch_jitter"),
            ({"dataset": {"room": {"rt60": 2.001}}}, "dataset.room: rt60"),
            ({"dataset": {"gap_range": [0.1, 2.001]}}, "dataset: gap_range"),
            ({"dataset": {"cap": 100_001}}, "dataset: cap"),
            ({"fusion": {"lambda_acoustic": 1.0}}, "fusion.lambda_acoustic"),
            ({"format": "config-v2", "fusion": {"lambda_acoustic": 1.0}}, "'config-v2'"),
            ({"fusion": {"beam_width": 65}}, "fusion: beam_width 65 outside [1, 64]"),
            ({"fusion": {"max_decode_len": 0}}, "fusion: max_decode_len 0 outside [1, 256]"),
            ({"fusion": {"max_decode_len": 257}}, "fusion: max_decode_len 257 outside [1, 256]"),
            ({"seed": -1}, "seed -1 outside [0, inf)"),
            ({"dataset": {"repeats": 0}}, "dataset: repeats 0 outside [1, inf)"),
            ({"dataset": {"room": {"distance": 3.6}}}, "dataset.room.distance"),
            ({"format": "config-v3", "dataset": {"room": {"distance": 3.6}}}, "'config-v3'"),
        ],
    )
    def test_config(self, tmp_path, payload, fragment):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["generate-data", "--config", path, "--output", tmp_path / "out"])
        assert code == 2
        assert_one_line_error(err, fragment)

    @pytest.mark.parametrize(
        "command, fragment",
        [
            (lambda w, d: ["generate-data", "--output", d / "out"], "seed -1 outside [0, inf)"),
            (lambda w, d: ["train", "--data", w.data, "--lm", w.lm, "--output", d / "model.ckpt"],
             "seed -1 outside [0, inf)"),
            (lambda w, d: ["evaluate", "--ckpt", w.ckpt, "--lm", w.lm, "--manifest",
                           w.data / "test.json", "--output", d / "report.json"],
             "seed -1 outside [0, inf)"),
        ],
        ids=["generate-data", "train", "evaluate"],
    )
    def test_negative_seed_exits_2_before_any_work(self, workspace, tmp_path, monkeypatch,
                                                   command, fragment):
        realized = []
        monkeypatch.setattr(data_module, "realize_utterance", lambda *args: realized.append(args))
        code, err = run(command(workspace, tmp_path) + ["--seed", "-1"])
        assert code == 2
        assert_one_line_error(err, fragment)
        assert realized == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "room, fragment",
        [
            # noise at 10**350 times the signal: `apply_far_field`'s gain overflowed in `train`
            ({"snr_db": -7000.0}, "dataset.room: snr_db -7000.0 outside [-100, inf]"),
        ],
        ids=["snr_db"],
    )
    def test_room_knob_past_its_bound_exits_2_before_any_work(self, workspace, tmp_path,
                                                              monkeypatch, room, fragment):
        realized = []
        monkeypatch.setattr(data_module, "realize_utterance", lambda *args: realized.append(args))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": {"room": room}}), encoding="utf-8")
        for argv in (["generate-data", "--config", config, "--output", tmp_path / "out"],
                     ["train", "--config", config, "--data", workspace.data, "--lm", workspace.lm,
                      "--output", tmp_path / "model.ckpt"]):
            code, err = run(argv)
            assert code == 2
            assert_one_line_error(err, fragment)
        assert realized == [] and [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @given(knob=st.sampled_from(["sample_rate", "window", "n_mels", "kernel", "dilation"]),
           excess=st.integers(1, 10**12))
    @settings(max_examples=30, deadline=None)
    def test_knob_past_its_bound_exits_2_at_read(self, workspace, knob, excess):
        """Nothing the size of the knob is built: the config read refuses it."""
        bound = {"sample_rate": MAX_SAMPLE_RATE, "window": MAX_WINDOW,
                 "n_mels": FrontendConfig().n_fft // 2 + 1, "kernel": MAX_KERNEL,
                 "dilation": MAX_DILATION}[knob]
        if knob in ("kernel", "dilation"):
            key, payload = "encoder.conv", {"encoder": {"conv": [{knob: bound + excess}]}}
        else:
            key, payload = "dataset.frontend", {"dataset": {"frontend": {knob: bound + excess}}}
        path = workspace.root / "past-a-bound.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        tracemalloc.start()
        try:
            code, err = run(["generate-data", "--config", path,
                             "--output", workspace.root / "past-a-bound"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert_one_line_error(err, f"{key}: ", knob, str(bound + excess))
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda m, mp: m["config"].update(bogus=1), "config.bogus"),
            (lambda m, mp: m.pop("records"), "records"),
            (lambda m, mp: m["records"][0].update(repeat_indices=[]), "repeat index"),
            # test.json holds far's records C1/far/0..2, then C2/far/0..1
            (lambda m, mp: m["records"][-1].update(code="ZZZ"),
             "record ZZZ/far/1 names code 'ZZZ', which the manifest does not list"),
            (lambda m, mp: m["records"][-1].update(speaker_id="near2"),
             "record C2/near2/1 names speaker 'near2'"),
            (lambda m, mp: m["records"][0].update(repeat_indices=[0, 2]),
             "record C1/far/0 needs one repeat index in [0, 2)"),
            (lambda m, mp: m["records"][-1].update(variation_index=0),
             "record C2/far/0 appears twice"),
            (lambda m, mp: m["codes"].append(m["codes"][0]), "code 'C1' is listed twice"),
            (lambda m, mp: mp.setattr(data_module, "MAX_RECORDS", 4), "5 records, above 4"),
            (lambda m, mp: m["records"].clear(), "holds no utterances to evaluate"),
            (lambda m, mp: m["config"]["room"].pop("snr_db"), "missing key 'config.room.snr_db'"),
            (lambda m, mp: m["config"].pop("gap_range"), "missing key 'config.gap_range'"),
        ],
    )
    def test_manifest(self, workspace, tmp_path, monkeypatch, mutate, fragment):
        """Refused when read, before the checkpoint is loaded or any record realized."""
        payload = json.loads((workspace.data / "test.json").read_text(encoding="utf-8"))
        mutate(payload, monkeypatch)
        path = tmp_path / "test.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        called = []
        for owner, name in ((data_module, "realize_utterance"), (cli, "load_checkpoint")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: called.append(name))
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--manifest", path,
                         "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, str(path), fragment)
        assert called == []

    def test_manifest_with_an_unspeakable_word(self, workspace, tmp_path):
        payload = json.loads((workspace.data / "train.json").read_text(encoding="utf-8"))
        payload["codes"][0]["words"][0] = "a2"
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.json").write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["train", "--config", workspace.config, "--data", data,
                         "--lm", workspace.lm, "--output", tmp_path / "model.json"])
        assert code == 2
        assert_one_line_error(err, str(data / "train.json"), "'a2'")
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    def test_lm_without_lambdas(self, workspace, tmp_path):
        """An lm-v2 document stripped of its `lambdas` is still lm-v2: its tag decides."""
        payload = json.loads(workspace.lm.read_text(encoding="utf-8"))
        payload["format"] = "lm-v2"
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", path,
                         "--manifest", workspace.data / "test.json"])
        assert code == 2
        assert_one_line_error(err, str(path), '"lm-v2"', "lm-v3")

    def test_lm_with_lambdas(self, workspace, tmp_path):
        payload = json.loads(workspace.lm.read_text(encoding="utf-8"))
        payload["lambdas"] = [0.5, 0.5]  # the weights follow from the order
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", path,
                         "--manifest", workspace.data / "test.json"])
        assert code == 2
        assert_one_line_error(err, str(path), "unknown key 'lambdas'")

    def test_lm_with_a_huge_max_order(self, workspace, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(lm_v1(load_lm(workspace.lm), max_order=10**12)),
                        encoding="utf-8")
        # `train` loads the LM first; a loader that allocates per declared order runs out of time
        with deadline(0.5):
            code, err = run(["train", "--data", workspace.data, "--lm", path,
                             "--output", tmp_path / "model.json"])
        assert code == 2
        assert_one_line_error(err, str(path), '"lm-v1"', "lm-v3")

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p["counts"].append([]), "the orders count ["),
            (lambda p: p["counts"][1][0][0].append("aa"), "order 2"),
            (lambda p: p["counts"][0][0].__setitem__(1, 0), "count below 1"),
            (lambda p: p["counts"].extend([[]] * 15), "17 orders exceed the largest, 16"),
            (lambda p: p.update(counts=[[[["a"], 1], [["a"], 5], [["b"], 1]]]),
             "order 1 lists ['a'] twice or out of sorted order"),
            (lambda p: p["counts"][1].insert(0, p["counts"][1].pop()), "order 2 lists"),
            (lambda p: p["counts"][0][0].__setitem__(1, 99), "the orders count ["),
            (lambda p: p["counts"][1][-1][0].__setitem__(1, "zz"), "order 2 predicts 'zz'"),
        ],
        ids=["extra-order", "gram-length", "zero-count", "seventeen-orders", "duplicate-gram",
             "out-of-order", "unequal-orders", "unknown-next-word"],
    )
    def test_lm_v2(self, workspace, tmp_path, mutate, fragment):
        payload = json.loads(workspace.lm.read_text(encoding="utf-8"))
        mutate(payload)
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["evaluate", "--ckpt", workspace.ckpt, "--lm", path,
                         "--manifest", workspace.data / "test.json"])
        assert code == 2
        assert_one_line_error(err, str(path), fragment)

    @pytest.mark.parametrize(
        "command",
        [
            lambda w, d: ["train", "--data", d, "--lm", w.lm, "--resume", w.ckpt,
                          "--epochs", "3", "--output", d / "resumed.json"],
            lambda w, d: ["evaluate", "--ckpt", w.ckpt, "--lm", w.lm,
                          "--manifest", d / "train.json"],
        ],
        ids=["resume", "evaluate"],
    )
    def test_manifest_of_another_frontend(self, workspace, tmp_path, command):
        payload = json.loads((workspace.data / "train.json").read_text(encoding="utf-8"))
        payload["config"]["frontend"]["hop"] = 200
        (tmp_path / "train.json").write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(command(workspace, tmp_path))
        assert code == 2
        assert_one_line_error(err, "dataset.frontend", "hop=200", "hop=160")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    @pytest.mark.parametrize(
        "damage",
        [lambda wav: b"these bytes are not a wav file\n" * 4, lambda wav: wav[:30],
         lambda wav: wav[:-1000]],
        ids=["not-a-wav", "truncated-header", "truncated-data"],
    )
    def test_wav(self, workspace, tmp_path, damage):
        good = tmp_path / "good.wav"
        write_wav(good, synthesize_word("aa", SpeakerProfile("near", seed=1), repeat_index=0))
        path = tmp_path / "bad.wav"
        path.write_bytes(damage(good.read_bytes()))
        code, err = run(["transcribe", path, "--ckpt", workspace.ckpt, "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, str(path), "not a readable wav")

    @pytest.mark.parametrize("samples, fragment", [
        (np.zeros(16000), "no variance across its log-mel frames"),  # 1 s of digital silence
        (np.ones(16000), "no variance across its log-mel frames"),  # 1 s of full-scale DC
        (np.random.default_rng(0).uniform(-0.5, 0.5, 400), "gives 1 log-mel frames"),
    ], ids=["silence", "dc", "one-window"])
    def test_wav_that_holds_no_speech(self, workspace, tmp_path, samples, fragment):
        path = tmp_path / "empty.wav"
        write_wav(path, Waveform(samples, 16000))
        code, err = run(["transcribe", path, "--ckpt", workspace.ckpt, "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, str(path), fragment)

    @given(frames=st.integers(1, 20), extra=st.integers(0, 159))
    @settings(max_examples=15, deadline=None)
    def test_wav_shorter_than_one_encoder_state(self, workspace, frames, extra):
        # the tiny model's one conv layer has stride 3 and its one pyramid layer beta 3
        span = 3 * 3
        path = workspace.root / "short.wav"
        noise = np.random.default_rng(frames).uniform(-0.5, 0.5, 400 + 160 * (frames - 1) + extra)
        write_wav(path, Waveform(noise, 16000))
        code, err = run(["transcribe", path, "--ckpt", workspace.ckpt, "--lambda-lm", "0"])
        if frames < span:
            assert code == 2
            assert_one_line_error(err, str(path), f"gives {frames} log-mel frames",
                                  f"fewer than the {span} that one encoder state spans")
        else:
            assert code == 0, err

    def test_model_above_the_size_bound(self, workspace, tmp_path):
        config = tmp_path / "huge.json"  # about 4e10 values: 320 GB for the parameters alone
        huge = {**TINY_CONFIG, "encoder": {**TINY_CONFIG["encoder"], "hidden": 100_000}}
        config.write_text(json.dumps(huge), encoding="utf-8")
        code, err = run(["train", "--config", config, "--data", workspace.data,
                         "--lm", workspace.lm, "--output", tmp_path / "model.ckpt"])
        assert code == 2
        assert_one_line_error(err, "parameters is above the bound of 25,000,000")
        assert list(tmp_path.iterdir()) == [config]

    def test_wav_declaring_more_frames_than_the_bound(self, workspace, tmp_path):
        path = tmp_path / "forged.wav"  # 20 bytes of samples behind a 4 GB header
        forged_wav(path, 2**31 - 20)
        code, err = run(["transcribe", path, "--ckpt", workspace.ckpt, "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, str(path), f"declares {2**31 - 20} frames",
                              f"more than the {MAX_WAV_FRAMES}")

    @pytest.mark.parametrize(
        "command, flag", [("generate-data", "--codes"), ("train-lm", "--corpus")]
    )
    def test_text_that_is_not_utf8(self, tmp_path, command, flag):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"C1\tcaf\xe9 au lait\n")
        code, err = run([command, flag, path, "--output", tmp_path / "out"])
        assert code == 2
        assert_one_line_error(err, str(path), "not valid UTF-8")

    def test_deeply_nested_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, err = run(["generate-data", "--config", path, "--output", tmp_path / "out"])
        assert code == 2
        assert_one_line_error(err, str(path), "not valid JSON")

    def test_noiseless_room_still_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": {"room": {"snr_db": None}}}), encoding="utf-8")
        code, _ = run(["generate-data", "--config", path, "--output", tmp_path / "out"])
        assert code == 0
        written = json.loads((tmp_path / "out" / "config.json").read_text(encoding="utf-8"))
        assert written["dataset"]["room"]["snr_db"] is None


def lm_v1(lm, max_order):
    """`lm` as an lm-v1 document, which also stored the order, the vocabulary and block orders."""
    orders = [{"order": k, "counts": [[list(gram), c] for gram, c in sorted(table.items())]}
              for k, table in enumerate(lm.grams, start=1)]
    lambdas = [1 / lm.max_order] * lm.max_order
    return {"format": "lm-v1", "max_order": max_order, "lambdas": lambdas,
            "vocabulary": lm.words, "orders": orders}


def json_paths(node, prefix=()):
    """Key and index paths of a JSON tree, visiting at most two items of each list."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[:2]
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


class TestByteOrderMark:
    """A text artifact saved with a leading UTF-8 byte-order mark loads as the plain file does."""

    @staticmethod
    def seen(loaded):  # what a load gives, in a form that compares by value
        if isinstance(loaded, Checkpoint):
            moments = Path(loaded.path).read_bytes()[loaded.moments_at:]  # Adam's m and v
            return (loaded.config, loaded.vocabulary, loaded.parameters, loaded.step,
                    loaded.optimizer, loaded.blob.tobytes(), moments)
        return to_payload(loaded) if dataclasses.is_dataclass(loaded) else loaded

    @pytest.mark.parametrize("artifact, load", [
        ("codes", load_icd_list),
        ("config", load_run_config),
        ("manifest", load_manifest),
        ("lm", load_lm),
        ("ckpt", load_checkpoint),
        ("log", lambda path: cli._log_before(path, 10)),
    ])
    def test_loads_equal_to_the_plain_file(self, workspace, tmp_path, artifact, load):
        plain = {"codes": workspace.codes, "config": workspace.config,
                 "manifest": workspace.data / "test.json", "lm": workspace.lm,
                 "ckpt": workspace.ckpt, "log": workspace.ckpt.with_suffix(".log.jsonl")}[artifact]
        marked = tmp_path / plain.name
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert self.seen(load(marked)) == self.seen(load(plain))

    def test_corpus_trains_the_same_lm(self, workspace, tmp_path):
        marked = tmp_path / "corpus.txt"
        marked.write_bytes(codecs.BOM_UTF8 + (workspace.data / "corpus.txt").read_bytes())
        for corpus, out in ((workspace.data / "corpus.txt", "plain.json"), (marked, "bom.json")):
            assert run(["train-lm", "--corpus", corpus, "--output", tmp_path / out])[0] == 0
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "bom.json").read_bytes()


class TestHostileArtifacts:
    """A mutated or truncated artifact exits 0, 2 or 3 with no traceback.

    Each example deletes one key or list item, replaces one value with
    null, a string or a list, or cuts the file short, then runs a command
    that loads the artifact.  In a checkpoint the mutation edits the JSON
    header line and keeps the float64 blob; a cut falls inside the header
    or inside the blob.
    """

    COMMANDS = {
        "config": lambda w, m: ["generate-data", "--config", m, "--codes", w.codes,
                                "--output", w.root / "mutant-out"],
        "manifest": lambda w, m: ["evaluate", "--ckpt", w.ckpt, "--manifest", m,
                                  "--lambda-lm", "0"],
        "lm": lambda w, m: ["evaluate", "--ckpt", w.ckpt, "--manifest", w.data / "test.json",
                            "--lm", m],
        "checkpoint": lambda w, m: ["transcribe", w.wav, "--ckpt", m, "--lambda-lm", "0"],
    }

    def source(self, workspace, artifact):
        return {"config": workspace.data / "config.json", "manifest": workspace.data / "test.json",
                "lm": workspace.lm, "checkpoint": workspace.ckpt}[artifact]

    @pytest.mark.parametrize("artifact", ["config", "manifest", "lm", "checkpoint"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_mutation_never_crashes(self, workspace, artifact, data):
        raw = self.source(workspace, artifact).read_bytes()
        if artifact == "checkpoint":
            head, newline, blob = raw.partition(b"\n")
            cuts = st.one_of(st.integers(0, len(head)), st.integers(len(head) + 1, len(raw) - 1))
        else:
            head, newline, blob = raw, b"", b""
            cuts = st.integers(0, len(raw) - 1)
        payload = json.loads(head)
        action = data.draw(st.sampled_from(["delete", "replace", "truncate"]))
        if action == "truncate":
            mutant = raw[: data.draw(cuts)]
        else:
            path = data.draw(st.sampled_from(list(json_paths(payload))))
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(st.sampled_from([None, "oops", [], [None]]))
            mutant = json.dumps(payload).encode("utf-8") + newline + blob
        target = workspace.root / f"mutant-{artifact}.json"
        target.write_bytes(mutant)
        code, err = run(self.COMMANDS[artifact](workspace, target))
        assert code in (0, 2, 3)
        if code:
            assert_one_line_error(err)

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            (lambda head, blob: head + b"\n" + np.float64(np.nan).tobytes() + blob[8:],
             "non-finite"),
            (lambda head, blob: head + b"\n" + blob[:8] + np.float64(-np.inf).tobytes()
             + blob[16:], "non-finite"),
            (lambda head, blob: head + b"\n" + blob + np.float64(1.0).tobytes(), "blob holds"),
            (lambda head, blob: head + blob, "not valid JSON"),
            (lambda head, blob: head.replace(b'"vocabulary":["', b'"vocabulary":["\xff')
             + b"\n" + blob, "can't decode byte 0xff"),
            (lambda head, blob: b"[" * 100_000 + b"\n" + blob, "not valid JSON"),
        ],
        ids=["nan", "inf", "extra-float", "no-newline", "non-utf8-header", "deep-header"],
    )
    def test_damaged_checkpoint_exits_2(self, workspace, tmp_path, damage, fragment):
        head, _, blob = workspace.ckpt.read_bytes().partition(b"\n")
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damage(head, blob))
        code, err = run(["transcribe", workspace.wav, "--ckpt", path, "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, str(path), fragment)

    def test_a_frontend_whose_spectrogram_passes_the_bound_exits_2_before_allocating_it(
        self, workspace, tmp_path
    ):
        head, _, blob = workspace.ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["config"]["dataset"]["frontend"].update(sample_rate=48000, window=4096, hop=1)
        path = tmp_path / "hostile.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        wav = tmp_path / "long.wav"
        write_wav(wav, Waveform(0.1 * np.sin(np.arange(3 * 48000) / 9.0), 48000))
        tracemalloc.start()
        try:
            code, err = run(["transcribe", wav, "--ckpt", path, "--lambda-lm", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        frames = 3 * 48000 - 4096 + 1
        assert_one_line_error(err, f"{frames} frames of 2049 frequency bins", "a spectrogram")
        # the windowed frames alone would take 4.6 GB; the wav and the model take a few MB
        assert peak < 16 << 20

    @pytest.mark.parametrize("key, value", [("beta1", 1.0), ("lr", -1), ("eps", 0), ("step", -1),
                                            ("step", None)])
    def test_out_of_range_adam_header_exits_2(self, workspace, tmp_path, key, value):
        head, _, blob = workspace.ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        if key == "step":
            header["optimizer"] = value
        else:
            header["config"]["optimizer"][key] = value
        path = tmp_path / "adam.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        for argv in (
            ["transcribe", workspace.wav, "--ckpt", path, "--lambda-lm", "0"],
            ["train", "--data", workspace.data, "--lm", workspace.lm, "--resume", path,
             "--epochs", "3", "--output", tmp_path / "resumed.json"],
        ):
            code, err = run(argv)
            assert code == 2
            assert_one_line_error(err, str(path), "optimizer")

    @pytest.mark.parametrize("edit", [lambda words: words[:1] + words, lambda words: words[::-1]],
                             ids=["repeated-word", "out-of-order"])
    def test_vocabulary_not_strictly_ascending_exits_2(self, workspace, tmp_path, edit):
        head, _, blob = workspace.ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["vocabulary"] = edit(header["vocabulary"])
        path = tmp_path / "vocabulary.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        code, err = run(["evaluate", "--manifest", workspace.data / "test.json", "--ckpt", path,
                         "--lm", workspace.lm, "--resamples", "1"])
        assert code == 2
        assert_one_line_error(err, str(path), "vocabulary must be strictly ascending")

    def test_negative_epoch_count_exits_2_writing_nothing(self, workspace, tmp_path):
        head, _, blob = workspace.ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["step"] = -1
        path = tmp_path / "negative.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        output = tmp_path / "out" / "result.ckpt"
        for argv in (
            ["transcribe", workspace.wav, "--ckpt", path, "--lambda-lm", "0",
             "--output", output],
            ["train", "--data", workspace.data, "--lm", workspace.lm, "--resume", path,
             "--epochs", "3", "--output", output],
        ):
            output.parent.mkdir()
            code, err = run(argv)
            assert code == 2
            assert_one_line_error(err, f"{path}: step -1 outside [0, inf)")
            assert list(output.parent.iterdir()) == []
            output.parent.rmdir()

    def test_non_finite_adam_state_fails_only_a_resume(self, workspace, tmp_path):
        raw = workspace.ckpt.read_bytes()
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(raw[:-8] + np.float64(np.nan).tobytes())  # the last value of Adam's v
        code, err = run(["transcribe", workspace.wav, "--ckpt", path, "--lambda-lm", "0"])
        assert code == 0, err
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm, "--resume", path,
                         "--epochs", "3", "--output", tmp_path / "resumed.json"])
        assert code == 2
        assert_one_line_error(err, str(path), "non-finite")

    def test_whole_file_json_checkpoint_exits_2(self, workspace, tmp_path):
        ckpt = load_checkpoint(workspace.ckpt)
        named = build_model(ckpt).named_parameters()
        config = json.loads(workspace.config.read_text(encoding="utf-8"))
        v1 = {
            "format": "ckpt-v1",
            "config": {"format": "config-v2", **config},
            "vocabulary": ckpt.vocabulary.content_words,
            "step": ckpt.step,
            "parameters": [
                {"name": name, "shape": list(t.shape), "values": t.values.ravel().tolist()}
                for name, t in named.items()
            ],
            "optimizer": None,
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(v1, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        code, err = run(["transcribe", workspace.wav, "--ckpt", path, "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, str(path), "not valid JSON")

    def earlier_document(self, workspace, artifact):
        """The workspace's `artifact` written in the format before this one."""
        if artifact == "lm":
            payload = json.loads(workspace.lm.read_text(encoding="utf-8"))
            payload.update(format="lm-v2", lambdas=[0.5, 0.5])
            return json.dumps(payload).encode("utf-8")
        if artifact == "manifest":
            payload = json.loads((workspace.data / "test.json").read_text(encoding="utf-8"))
            payload["config"]["room"]["distance"] = 3.6
            payload.update(format="manifest-v2")
            return json.dumps(payload).encode("utf-8")
        head, _, blob = workspace.ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["config"]["dataset"]["room"]["distance"] = 3.6
        header.update(format="ckpt-v4")
        return json.dumps(header).encode("utf-8") + b"\n" + blob

    @pytest.mark.parametrize(
        "artifact, fragments",
        [
            ("manifest", ['"manifest-v2"', "manifest-v3"]),
            ("lm", ['"lm-v2"', "lm-v3"]),
            ("checkpoint", ['"ckpt-v4"', "ckpt-v5"]),
        ],
    )
    def test_earlier_format_exits_2_naming_it(self, workspace, tmp_path, artifact, fragments):
        path = tmp_path / f"old-{artifact}"
        path.write_bytes(self.earlier_document(workspace, artifact))
        inputs = {"manifest": workspace.data / "test.json", "lm": workspace.lm,
                  "checkpoint": workspace.ckpt, artifact: path}
        code, err = run(["evaluate", "--manifest", inputs["manifest"],
                         "--ckpt", inputs["checkpoint"], "--lm", inputs["lm"]])
        assert code == 2
        assert_one_line_error(err, str(path), *fragments)
