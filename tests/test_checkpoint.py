import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import fail_writes_after

from icdscribe.audio import FrontendConfig
from icdscribe.autodiff import AdamState, OptimizerConfig, adam_step
from icdscribe.checkpoint import (
    build_model,
    fresh_model,
    load_checkpoint,
    restore_optimizer,
    save_checkpoint,
)
from icdscribe.config import RunConfig, TrainingConfig
from icdscribe.data import EOS, SOS, DatasetConfig, IcdCode, build_vocabulary
from icdscribe.errors import ContractError
from icdscribe.fusion import FusionConfig, train_with_scheduled_lm_sampling
from icdscribe.lm import Corpus, train_lm
from icdscribe.model import ConvSpec, DecoderConfig, EncoderConfig
from icdscribe.schema import to_payload

VOCAB = build_vocabulary([IcdCode("X", ["aa", "bb"])])
LM = train_lm(Corpus([["aa", "bb"], ["bb", "aa"]]), max_order=2)
ADAM = OptimizerConfig(lr=2e-3)


def run_config(seed=3):
    return RunConfig(
        seed=seed,
        dataset=DatasetConfig(frontend=FrontendConfig(n_mels=5)),
        encoder=EncoderConfig(
            conv=(ConvSpec(channels=3, stride=2, dilation=1, kernel=2),),
            layers=1, beta=2, hidden=6,
        ),
        decoder=DecoderConfig(embedding_dim=4, hidden=6, attention_dim=3),
        optimizer=ADAM,
        training=TrainingConfig(epochs=5),
    )


def fake_utterances():
    rng = np.random.default_rng(8)
    specs = [rng.normal(size=(18, 5)), rng.normal(size=(14, 5))]
    targets = [[SOS, 4, 5, EOS], [SOS, 5, EOS]]
    return [
        SimpleNamespace(spectrogram=s, target=t)
        for s, t in zip(specs, targets)
    ]


def fresh_optimizer(model):
    return AdamState(model.values.size)


def touched_optimizer(model):
    """Optimizer whose moments are nonzero, so serialization is exercised."""
    state = AdamState(model.values.size)
    for i, p in enumerate(model.named_parameters().values()):
        p.grad[...] = 0.01 * (i + 1)
    adam_step(model.values, model.grads, state, ADAM)
    return state


class TestRoundTrip:
    def test_parameters_bitwise_identical(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=0, optimizer=fresh_optimizer(model))

        loaded = load_checkpoint(path)
        rebuilt = build_model(loaded)
        for name, tensor in model.named_parameters().items():
            assert np.array_equal(rebuilt.named_parameters()[name].values, tensor.values)
        assert loaded.step == 0
        assert loaded.vocabulary == VOCAB
        assert to_payload(loaded.config) == to_payload(config)

    def test_build_model_adopts_the_blob_and_draws_nothing(self, tmp_path, monkeypatch):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, VOCAB, config, step=0, optimizer=touched_optimizer(model))
        loaded = load_checkpoint(path)

        def no_rng(*args):
            raise AssertionError("build_model made an RNG to draw initial weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        rebuilt = build_model(loaded)
        assert np.array_equal(rebuilt.values, model.values)
        assert rebuilt.values.flags.writeable and rebuilt.values is loaded.blob

    def test_resave_is_byte_identical(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, model, VOCAB, config, step=2, optimizer=touched_optimizer(model))
        loaded = load_checkpoint(a)
        rebuilt = build_model(loaded)
        save_checkpoint(b, rebuilt, VOCAB, config, step=2,
                        optimizer=restore_optimizer(loaded, rebuilt))
        assert a.read_bytes() == b.read_bytes()

    def test_file_is_a_header_line_and_raw_float64s(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        state = touched_optimizer(model)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, VOCAB, config, step=1, optimizer=state)

        raw = path.read_bytes()
        header = raw[: raw.index(b"\n") + 1]
        payload = json.loads(header)
        compact = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert header == compact.encode("ascii") + b"\n"
        assert payload["format"] == "ckpt-v5"
        assert payload["optimizer"] == state.step == 1
        assert payload["config"]["optimizer"] == to_payload(ADAM)
        params = model.values.size
        assert len(raw) == len(header) + 8 * (params + 2 * params)
        arrays = [p.values for p in model.named_parameters().values()] + [state.m, state.v]
        want = np.concatenate([a.ravel() for a in arrays]).astype("<f8").tobytes()
        assert raw[len(header):] == want

    def test_optimizer_state_round_trips(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        state = touched_optimizer(model)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=1, optimizer=state)

        loaded = load_checkpoint(path)
        rebuilt = build_model(loaded)
        restored = restore_optimizer(loaded, rebuilt)
        assert restored.step == state.step
        assert np.array_equal(restored.m, state.m)
        assert np.array_equal(restored.v, state.v)

    def test_restored_moments_are_views_of_one_buffer(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, VOCAB, config, step=1, optimizer=touched_optimizer(model))
        loaded = load_checkpoint(path)
        restored = restore_optimizer(loaded, build_model(loaded))
        buffer = restored.m.base
        assert buffer is not None and restored.v.base is buffer
        assert buffer.size == 2 * model.values.size
        for moments in (restored.m, restored.v):
            assert moments.flags.writeable and moments.flags.c_contiguous
            assert moments.size == model.values.size
        restored.m[0] = 1.5  # adopted, not copied: writes reach the buffer
        assert buffer[0] == 1.5

    def test_per_parameter_layout_loads_bit_for_bit(self, tmp_path):
        """A file packed one parameter array at a time, then each m, then each v, still loads."""
        config = run_config()
        named = fresh_model(config, VOCAB).named_parameters()
        rng = np.random.default_rng(12)
        arrays = {
            kind: [rng.normal(size=t.shape) ** power for t in named.values()]
            for kind, power in (("values", 1), ("m", 1), ("v", 2))
        }
        header = {
            "format": "ckpt-v5",
            "config": to_payload(config),
            "vocabulary": VOCAB.content_words,
            "step": 3,
            "parameters": [{"name": name, "shape": list(t.shape)} for name, t in named.items()],
            "optimizer": 7,
        }
        blob = b"".join(
            a.astype("<f8").tobytes() for kind in ("values", "m", "v") for a in arrays[kind]
        )
        path = tmp_path / "packed.ckpt"
        path.write_bytes(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n" + blob
        )

        loaded = load_checkpoint(path)
        rebuilt = build_model(loaded)
        for (name, tensor), want in zip(rebuilt.named_parameters().items(), arrays["values"]):
            assert np.array_equal(tensor.values, want), name
        state = restore_optimizer(loaded, rebuilt)
        assert state.step == 7
        assert loaded.config.optimizer == OptimizerConfig(0.002, 0.9, 0.999, 1e-8)
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in arrays["m"]]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in arrays["v"]]))
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, rebuilt, VOCAB, loaded.config, step=3, optimizer=state)
        assert resaved.read_bytes() == path.read_bytes()

    def test_missing_optimizer_state_is_explicit(self, tmp_path):
        """A header without Adam's update count, whose blob holds only the parameters, is refused."""
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, VOCAB, config, step=0, optimizer=fresh_optimizer(model))
        header, _, blob = path.read_bytes().partition(b"\n")
        payload = json.loads(header)
        payload["optimizer"] = None
        path.write_bytes(json.dumps(payload).encode("utf-8") + b"\n" + blob[: model.values.nbytes])
        with pytest.raises(ContractError, match="'optimizer' must be int, got null"):
            load_checkpoint(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_interrupted_overwrite_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, failure):
        config = run_config()
        path = tmp_path / "ckpt.json"
        model = fresh_model(config, VOCAB)
        save_checkpoint(path, model, VOCAB, config, step=1, optimizer=fresh_optimizer(model))
        before = path.read_bytes()
        inside_blob = before.index(b"\n") + 1 + 800
        assert inside_blob < len(before)

        fail_writes_after(monkeypatch, inside_blob, failure)
        with pytest.raises(type(failure)):
            other = fresh_model(run_config(seed=4), VOCAB)
            save_checkpoint(path, other, VOCAB, config, step=2, optimizer=fresh_optimizer(other))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


class TestRejection:
    def write_tampered(self, tmp_path, mutate=lambda payload: None, cut=lambda blob: blob):
        """A saved checkpoint, its header passed through `mutate` and its blob through `cut`."""
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, VOCAB, config, step=0, optimizer=fresh_optimizer(model))
        header, _, blob = path.read_bytes().partition(b"\n")
        payload = json.loads(header)
        mutate(payload)
        path.write_bytes(json.dumps(payload).encode("utf-8") + b"\n" + cut(blob))
        return path

    def test_version_mismatch_rejected(self, tmp_path):
        path = self.write_tampered(tmp_path, lambda p: p.update(format="ckpt-v0"))
        with pytest.raises(ContractError, match="ckpt-v0"):
            load_checkpoint(path)

    def test_truncated_parameter_rejected(self, tmp_path):
        path = self.write_tampered(tmp_path, cut=lambda blob: blob[8:])
        with pytest.raises(ContractError, match=f"{path}: blob holds"):
            load_checkpoint(path)

    def test_renamed_parameter_rejected(self, tmp_path):
        def rename(payload):
            payload["parameters"][0]["name"] = "mystery.w"

        with pytest.raises(ContractError, match="mystery"):
            build_model(load_checkpoint(self.write_tampered(tmp_path, rename)))

    def test_reordered_parameters_rejected(self, tmp_path):
        def swap(payload):
            entries = payload["parameters"]
            entries[0], entries[1] = entries[1], entries[0]

        with pytest.raises(ContractError, match="another order"):
            build_model(load_checkpoint(self.write_tampered(tmp_path, swap)))

    def test_optimizer_of_another_model_rejected(self, tmp_path):
        config = run_config()
        model = fresh_model(config, VOCAB)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, VOCAB, config, step=1, optimizer=touched_optimizer(model))
        wider = replace(config, decoder=DecoderConfig(embedding_dim=5, hidden=6, attention_dim=3))
        with pytest.raises(ContractError, match="optimizer state covers"):
            restore_optimizer(load_checkpoint(path), fresh_model(wider, VOCAB))

    def test_negative_dimension_rejected(self, tmp_path):
        def negate(payload):
            payload["parameters"][0]["shape"][0] *= -1

        with pytest.raises(ContractError, match="negative dimension"):
            load_checkpoint(self.write_tampered(tmp_path, negate))

    def test_repeated_parameter_rejected(self, tmp_path):
        first = fresh_model(run_config(), VOCAB).named_parameters()["conv0.w"].values

        def repeat(payload):
            payload["parameters"].append(payload["parameters"][0])

        path = self.write_tampered(tmp_path, repeat, cut=lambda blob: blob + blob[: 3 * first.nbytes])
        with pytest.raises(ContractError, match="appears twice"):
            load_checkpoint(path)


class TestResume:
    def test_trajectory_continues_exactly(self, tmp_path):
        """Training 3 epochs, checkpointing, and finishing matches one 5-epoch run."""
        config = run_config(seed=4)
        utts = fake_utterances()
        # ramp spans = round(5 * 0.4) = round(3 * 2/3) = 2 epochs in both runs,
        # so the sampling schedule agrees epoch for epoch across the split.
        full = replace(config, seed=7, fusion=FusionConfig(lm_sample_max=0.5, ramp_frac=0.4),
                       training=replace(config.training, epochs=5))
        leg1_run = replace(full, fusion=FusionConfig(lm_sample_max=0.5, ramp_frac=2 / 3),
                           training=replace(config.training, epochs=3))

        straight = fresh_model(config, VOCAB)
        opt = AdamState(straight.values.size)
        wanted = list(train_with_scheduled_lm_sampling(straight, LM, VOCAB, utts, full, opt))

        first = fresh_model(config, VOCAB)
        opt1 = AdamState(first.values.size)
        leg1 = list(train_with_scheduled_lm_sampling(first, LM, VOCAB, utts, leg1_run, opt1))
        path = tmp_path / "partial.json"
        save_checkpoint(path, first, VOCAB, config, step=3, optimizer=opt1)

        loaded = load_checkpoint(path)
        second = build_model(loaded)
        opt2 = restore_optimizer(loaded, second)
        leg2 = list(train_with_scheduled_lm_sampling(second, LM, VOCAB, utts, full, opt2,
                                                     start_epoch=loaded.step))

        assert [e.loss for e in leg1] == [e.loss for e in wanted[:3]]
        assert [e.loss for e in leg2] == [e.loss for e in wanted[3:]]
        for name, tensor in straight.named_parameters().items():
            assert np.array_equal(second.named_parameters()[name].values, tensor.values)
