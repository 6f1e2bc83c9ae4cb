import contextlib
import errno
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe.audio import SpeakerProfile, synthesize_word, write_wav
from icdscribe.cli import main
from icdscribe.lm import load_lm, prob

TINY_CONFIG = {
    "dataset": {
        "repeats": 2,
        "cap": 3,
        "speakers": [
            {"speaker_id": "near", "base_pitch": 120.0, "rate": 0.9, "seed": 1},
            {"speaker_id": "far", "base_pitch": 200.0, "rate": 1.1, "seed": 2},
        ],
        "room": {"distance": 1.0, "rt60": 0.0, "snr_db": None},
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

    return SimpleNamespace(
        root=root, config=config, codes=codes, data=data, lm=lm, ckpt=ckpt
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
        assert json.loads(out.read_text(encoding="utf-8"))["step"] == 3

    def test_failed_checkpoint_write_keeps_old_bytes_and_exits_3(
        self, workspace, tmp_path, monkeypatch
    ):
        out = tmp_path / "model.json"
        out.write_bytes(workspace.ckpt.read_bytes())

        def disk_full(payload, fh, **kwargs):
            text = json.dumps(payload, **kwargs)
            fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", disk_full)
        code, err = run(["train", "--data", workspace.data, "--lm", workspace.lm,
                         "--resume", out, "--epochs", "3", "--output", out])
        assert code == 3
        assert_one_line_error(err, "No space left")
        assert out.read_bytes() == workspace.ckpt.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.log.jsonl"]

    def test_resume_past_the_horizon_exits_2(self, workspace, tmp_path, capsys):
        code = main(["train", "--data", str(workspace.data), "--lm", str(workspace.lm),
                     "--resume", str(workspace.ckpt), "--epochs", "2",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "already covers" in capsys.readouterr().err


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
        assert_one_line_error(err, "at least 1 resample", count)

    def test_missing_checkpoint_exits_3(self, workspace, tmp_path):
        assert main(["evaluate", "--ckpt", str(tmp_path / "nope.json"),
                     "--lm", str(workspace.lm),
                     "--manifest", str(workspace.data / "test.json")]) == 3


class TestTranscribe:
    def test_manifest_lines_have_three_fields(self, workspace, capsys):
        assert main(["transcribe", str(workspace.data / "test.json"),
                     "--ckpt", str(workspace.ckpt), "--lm", str(workspace.lm)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            uid, _, score = line.split("\t")
            assert uid.count("/") == 2
            float(score)

    def test_greedy_equals_beam_width_one(self, workspace, capsys):
        args = ["transcribe", str(workspace.data / "test.json"),
                "--ckpt", str(workspace.ckpt), "--lm", str(workspace.lm)]
        assert main(args + ["--greedy"]) == 0
        greedy_out = capsys.readouterr().out
        assert main(args + ["--beam", "1"]) == 0
        assert capsys.readouterr().out == greedy_out

    def test_lm_weight_zero_skips_the_lm(self, workspace, capsys):
        assert main(["transcribe", str(workspace.data / "test.json"),
                     "--ckpt", str(workspace.ckpt), "--lambda-lm", "0"]) == 0
        assert capsys.readouterr().out.strip()

    def test_missing_lm_with_positive_weight_exits_2(self, workspace, capsys):
        code = main(["transcribe", str(workspace.data / "test.json"),
                     "--ckpt", str(workspace.ckpt)])
        assert code == 2
        assert "--lm" in capsys.readouterr().err

    def test_wav_input_decodes(self, workspace, tmp_path, capsys):
        speaker = SpeakerProfile("near", base_pitch=120.0, rate=0.9, seed=1)
        wav = tmp_path / "sample.wav"
        write_wav(wav, synthesize_word("aa", speaker, repeat_index=0))
        assert main(["transcribe", str(wav), "--ckpt", str(workspace.ckpt),
                     "--lm", str(workspace.lm)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sample\t")

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

    def test_output_file_written(self, workspace, tmp_path):
        out = tmp_path / "lines.tsv"
        assert main(["transcribe", str(workspace.data / "test.json"),
                     "--ckpt", str(workspace.ckpt), "--lm", str(workspace.lm),
                     "--output", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5


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
        ],
    )
    def test_config(self, tmp_path, payload, fragment):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["generate-data", "--config", path, "--output", tmp_path / "out"])
        assert code == 2
        assert_one_line_error(err, fragment)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda m: m["config"].update(bogus=1), "config.bogus"),
            (lambda m: m.pop("records"), "records"),
            (lambda m: m["records"][0].update(repeat_indices=[]), "repeat index"),
        ],
    )
    def test_manifest(self, workspace, tmp_path, mutate, fragment):
        payload = json.loads((workspace.data / "test.json").read_text(encoding="utf-8"))
        mutate(payload)
        path = tmp_path / "test.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["transcribe", path, "--ckpt", workspace.ckpt, "--lambda-lm", "0"])
        assert code == 2
        assert_one_line_error(err, fragment)

    def test_lm_without_lambdas(self, workspace, tmp_path):
        payload = json.loads(workspace.lm.read_text(encoding="utf-8"))
        del payload["lambdas"]
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run(["transcribe", workspace.data / "test.json",
                         "--ckpt", workspace.ckpt, "--lm", path])
        assert code == 2
        assert_one_line_error(err, str(path), "lambdas")

    def test_noiseless_room_still_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": {"room": {"snr_db": None}}}), encoding="utf-8")
        code, _ = run(["generate-data", "--config", path, "--output", tmp_path / "out"])
        assert code == 0
        written = json.loads((tmp_path / "out" / "config.json").read_text(encoding="utf-8"))
        assert written["dataset"]["room"]["snr_db"] is None


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


class TestHostileArtifacts:
    """A mutated or truncated artifact exits 0, 2 or 3 with no traceback.

    Each example deletes one key or list item, replaces one value with
    null, a string or a list, or cuts the file short, then runs a command
    that loads the artifact.
    """

    COMMANDS = {
        "config": lambda w, m: ["generate-data", "--config", m, "--codes", w.codes,
                                "--output", w.root / "mutant-out"],
        "manifest": lambda w, m: ["transcribe", m, "--ckpt", w.ckpt, "--lambda-lm", "0"],
        "lm": lambda w, m: ["transcribe", w.data / "test.json", "--ckpt", w.ckpt, "--lm", m],
        "checkpoint": lambda w, m: ["transcribe", w.data / "test.json", "--ckpt", m,
                                    "--lambda-lm", "0"],
    }

    def source(self, workspace, artifact):
        return {"config": workspace.data / "config.json", "manifest": workspace.data / "test.json",
                "lm": workspace.lm, "checkpoint": workspace.ckpt}[artifact]

    @pytest.mark.parametrize("artifact", ["config", "manifest", "lm", "checkpoint"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_mutation_never_crashes(self, workspace, artifact, data):
        text = self.source(workspace, artifact).read_text(encoding="utf-8")
        payload = json.loads(text)
        action = data.draw(st.sampled_from(["delete", "replace", "truncate"]))
        if action == "truncate":
            mutant = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            path = data.draw(st.sampled_from(list(json_paths(payload))))
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(st.sampled_from([None, "oops", [], [None]]))
            mutant = json.dumps(payload)
        target = workspace.root / f"mutant-{artifact}.json"
        target.write_text(mutant, encoding="utf-8")
        code, err = run(self.COMMANDS[artifact](workspace, target))
        assert code in (0, 2, 3)
        if code:
            assert_one_line_error(err)
