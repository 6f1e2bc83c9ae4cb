import json
from types import SimpleNamespace

import numpy as np
import pytest

from icdscribe.audio import FrontendConfig
from icdscribe.autodiff import AdamState
from icdscribe.checkpoint import (
    build_model,
    fresh_model,
    load_checkpoint,
    restore_optimizer,
    save_checkpoint,
)
from icdscribe.config import DecoderSettings, RunConfig, TrainingConfig
from icdscribe.data import EOS, SOS, DatasetConfig, IcdCode, build_vocabulary
from icdscribe.errors import ParseError, ValidationError
from icdscribe.fusion import FusionConfig, train_with_scheduled_lm_sampling
from icdscribe.lm import Corpus, train_lm
from icdscribe.model import ConvSpec, EncoderConfig

VOCAB = build_vocabulary([IcdCode("X", ["aa", "bb"])])
LM = train_lm(Corpus([["aa", "bb"], ["bb", "aa"]]), max_order=2)


def run_config(seed=3):
    return RunConfig(
        seed=seed,
        dataset=DatasetConfig(frontend=FrontendConfig(n_mels=5)),
        encoder=EncoderConfig(
            conv=(ConvSpec(channels=3, stride=2, dilation=1, kernel=2),),
            layers=1, beta=2, hidden=6,
        ),
        decoder=DecoderSettings(embedding_dim=4, hidden=6, attention_dim=3),
        training=TrainingConfig(epochs=5),
    )


def fake_utterances():
    rng = np.random.default_rng(8)
    specs = [rng.normal(size=(18, 5)), rng.normal(size=(14, 5))]
    targets = [[SOS, 4, 5, EOS], [SOS, 5, EOS]]
    return [
        SimpleNamespace(spectrogram=SimpleNamespace(values=s), target=t)
        for s, t in zip(specs, targets)
    ]


def touched_optimizer(model):
    """Optimizer whose moments are nonzero, so serialization is exercised."""
    params = model.parameters()
    state = AdamState(params, lr=2e-3)
    for i, p in enumerate(params):
        p.grad = np.full_like(p.values, 0.01 * (i + 1))
    from icdscribe.autodiff import adam_step

    adam_step(params, state)
    return state


class TestRoundTrip:
    def test_parameters_bitwise_identical(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=0)

        loaded = load_checkpoint(path)
        rebuilt = build_model(loaded)
        for name, tensor in model.named_parameters().items():
            assert np.array_equal(rebuilt.named_parameters()[name].values, tensor.values)
        assert loaded.step == 0
        assert loaded.vocabulary == VOCAB
        assert loaded.config.to_dict() == config.to_dict()

    def test_resave_is_byte_identical(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, model, VOCAB, config, step=2)
        save_checkpoint(b, build_model(load_checkpoint(a)), VOCAB, config, step=2)
        assert a.read_bytes() == b.read_bytes()

    def test_optimizer_state_round_trips(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        state = touched_optimizer(model)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=1, optimizer=state)

        loaded = load_checkpoint(path)
        rebuilt = build_model(loaded)
        restored = restore_optimizer(loaded, rebuilt.parameters())
        assert restored.step == state.step
        assert restored.lr == state.lr
        for got, want in zip(restored.m, state.m):
            assert np.array_equal(got, want)
        for got, want in zip(restored.v, state.v):
            assert np.array_equal(got, want)

    def test_missing_optimizer_state_is_explicit(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=0)
        loaded = load_checkpoint(path)
        with pytest.raises(ValidationError, match="optimizer"):
            restore_optimizer(loaded, build_model(loaded).parameters())


class TestAtomicWrite:
    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_interrupted_overwrite_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, failure):
        config = run_config()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, fresh_model(config, VOCAB), VOCAB, config, step=1)
        before = path.read_bytes()

        def interrupted(payload, fh, **kwargs):
            fh.write(json.dumps(payload, **kwargs)[:1000])
            raise failure

        monkeypatch.setattr(json, "dump", interrupted)
        with pytest.raises(type(failure)):
            save_checkpoint(path, fresh_model(run_config(seed=4), VOCAB), VOCAB, config, step=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


class TestRejection:
    def write_tampered(self, tmp_path, mutate):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=0)
        payload = json.loads(path.read_text(encoding="utf-8"))
        mutate(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_version_mismatch_rejected(self, tmp_path):
        path = self.write_tampered(tmp_path, lambda p: p.update(format="ckpt-v0"))
        with pytest.raises(ParseError, match="ckpt-v0"):
            load_checkpoint(path)

    def test_truncated_parameter_rejected(self, tmp_path):
        def chop(payload):
            payload["parameters"][0]["values"] = payload["parameters"][0]["values"][:-1]

        with pytest.raises(ValidationError):
            load_checkpoint(self.write_tampered(tmp_path, chop))

    def test_renamed_parameter_rejected(self, tmp_path):
        def rename(payload):
            payload["parameters"][0]["name"] = "mystery.w"

        with pytest.raises(ValidationError, match="mystery"):
            build_model(load_checkpoint(self.write_tampered(tmp_path, rename)))


class TestResume:
    def test_trajectory_continues_exactly(self, tmp_path):
        """Training 3 epochs, checkpointing, and finishing matches one 5-epoch run."""
        config = run_config(seed=4)
        utts = fake_utterances()
        # ramp spans = round(5 * 0.4) = round(3 * 2/3) = 2 epochs in both runs,
        # so the sampling schedule agrees epoch for epoch across the split.
        full_cfg = FusionConfig(lm_sample_max=0.5, ramp_frac=0.4)
        leg1_cfg = FusionConfig(lm_sample_max=0.5, ramp_frac=2 / 3)

        straight = fresh_model(config, VOCAB)
        opt = AdamState(straight.parameters(), lr=2e-3)
        wanted = train_with_scheduled_lm_sampling(
            straight, LM, VOCAB, utts, full_cfg, epochs=5, optimizer=opt, seed=7
        )

        first = fresh_model(config, VOCAB)
        opt1 = AdamState(first.parameters(), lr=2e-3)
        leg1 = train_with_scheduled_lm_sampling(
            first, LM, VOCAB, utts, leg1_cfg, epochs=3, optimizer=opt1, seed=7
        )
        path = tmp_path / "partial.json"
        save_checkpoint(path, first, VOCAB, config, step=3, optimizer=opt1)

        loaded = load_checkpoint(path)
        second = build_model(loaded)
        opt2 = restore_optimizer(loaded, second.parameters())
        leg2 = train_with_scheduled_lm_sampling(
            second, LM, VOCAB, utts, full_cfg, epochs=5, optimizer=opt2, seed=7,
            start_epoch=loaded.step,
        )

        assert [e.mean_loss for e in leg1] == [e.mean_loss for e in wanted[:3]]
        assert [e.mean_loss for e in leg2] == [e.mean_loss for e in wanted[3:]]
        for name, tensor in straight.named_parameters().items():
            assert np.array_equal(second.named_parameters()[name].values, tensor.values)
