import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_grad_close, finite_difference_grad
from icdscribe.autodiff import backward, softmax, softmax_cross_entropy
from icdscribe.data import EOS, SOS
from icdscribe.errors import ContractError
from icdscribe.model import (
    ConvSpec,
    DecoderConfig,
    EncoderConfig,
    Seq2SeqModel,
    standardize_spectrogram,
)

N_MELS = 6


def no_conv_model(layers, beta=2, hidden=3, seed=0):
    enc = EncoderConfig(conv=(), layers=layers, beta=beta, hidden=hidden)
    dec = DecoderConfig(vocab_size=5, embedding_dim=3, hidden=4, attention_dim=2)
    return Seq2SeqModel(enc, dec, input_dim=N_MELS, seed=seed)


def small_model(vocab_size=7, seed=0):
    enc = EncoderConfig(
        conv=(ConvSpec(channels=4, stride=2, dilation=1, kernel=3),), layers=1, beta=2, hidden=5
    )
    dec = DecoderConfig(vocab_size=vocab_size, embedding_dim=3, hidden=4, attention_dim=3)
    return Seq2SeqModel(enc, dec, input_dim=N_MELS, seed=seed)


def spectrogram(frames, seed=0, channels=N_MELS):
    return np.random.default_rng(seed).normal(size=(frames, channels))


class TestPyramidArithmetic:
    def test_three_layers_divide_sixty_four(self):
        model = no_conv_model(layers=3)
        assert model.encode(spectrogram(64)).reduced_steps == 8

    def test_odd_length_rounds_up(self):
        model = no_conv_model(layers=1)
        assert model.encode(spectrogram(5)).reduced_steps == 3

    def test_conv_stride_compounds_with_pyramid(self):
        enc = EncoderConfig(
            conv=(ConvSpec(channels=3, stride=2), ConvSpec(channels=3, stride=2)),
            layers=2,
            beta=2,
            hidden=3,
        )
        dec = DecoderConfig(vocab_size=5, embedding_dim=2, hidden=3, attention_dim=2)
        model = Seq2SeqModel(enc, dec, input_dim=N_MELS)
        assert model.encode(spectrogram(16)).reduced_steps == 1

    @given(
        frames=st.integers(min_value=1, max_value=40),
        beta=st.sampled_from([2, 3]),
        layers=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduction_formula(self, frames, beta, layers):
        model = no_conv_model(layers=layers, beta=beta)
        expected = math.ceil(frames / beta**layers)
        assert model.encode(spectrogram(frames)).reduced_steps == expected


class TestEncoder:
    def test_empty_spectrogram_rejected(self):
        model = small_model()
        with pytest.raises(ContractError):
            model.encode(np.zeros((0, N_MELS)))

    def test_channel_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(ContractError):
            model.encode(np.zeros((10, N_MELS + 1)))

    def test_zero_weights_give_constant_states(self):
        model = no_conv_model(layers=2)
        for p in model.parameters():
            p.values[:] = 0.0
        hidden = model.encode(spectrogram(12)).hidden.values
        assert np.allclose(hidden, hidden[0])

    def test_deterministic(self):
        model = small_model()
        x = spectrogram(20)
        a = model.encode(x).hidden.values
        b = model.encode(x).hidden.values
        assert np.array_equal(a, b)

    def test_truncation_preserves_early_states(self):
        enc = EncoderConfig(
            conv=(ConvSpec(channels=4, stride=2, dilation=1), ConvSpec(channels=4, stride=2, dilation=2)),
            layers=2,
            beta=2,
            hidden=5,
        )
        dec = DecoderConfig(vocab_size=5, embedding_dim=3, hidden=4, attention_dim=2)
        model = Seq2SeqModel(enc, dec, input_dim=N_MELS, seed=3)
        x = spectrogram(32, seed=9)
        full = model.encode(x).hidden.values
        truncated = model.encode(x[:16]).hidden.values
        assert full.shape[0] == 2 and truncated.shape[0] == 1
        assert np.allclose(truncated[0], full[0], atol=1e-12)


    def test_padding_fills_only_the_final_group(self):
        # 7 frames at beta 3 group as (0-2)(3-5)(6+pad): the first two states
        # must equal those of the unpadded 6-frame prefix
        model = no_conv_model(layers=1, beta=3)
        x = spectrogram(7, seed=4)
        full = model.encode(x).hidden.values
        prefix = model.encode(x[:6]).hidden.values
        assert full.shape[0] == 3 and prefix.shape[0] == 2
        np.testing.assert_array_equal(full[:2], prefix)


class TestAttention:
    def test_single_step_gets_all_weight(self):
        model = no_conv_model(layers=1, beta=2, hidden=3)
        encoded = model.encode(spectrogram(2))
        assert encoded.reduced_steps == 1
        s0 = model.start_state()[0]
        alpha, context = model.attend(s0, encoded)
        assert alpha.values.shape == (1, 1)
        assert alpha.values[0, 0] == pytest.approx(1.0)
        assert np.allclose(context.values, encoded.hidden.values[0])

    def test_equal_scores_give_uniform_weights(self):
        model = small_model()
        for name in ("attn.query", "attn.keys", "attn.b", "attn.score"):
            model.named_parameters()[name].values[:] = 0.0
        encoded = model.encode(spectrogram(24))
        alpha, _ = model.attend(model.start_state()[0], encoded)
        u = encoded.reduced_steps
        assert u > 1
        assert np.allclose(alpha.values, 1.0 / u, atol=1e-12)

    def test_score_shift_leaves_weights_unchanged(self):
        model = small_model(seed=4)
        encoded = model.encode(spectrogram(24, seed=2))
        scores = model.attention_scores(model.start_state()[0], encoded)
        base = softmax(scores).values
        shifted = softmax(scores + np.full(scores.shape, 17.3)).values
        assert np.allclose(base, shifted, atol=1e-12)

    def test_weights_nonnegative_and_normalized(self):
        model = small_model(seed=8)
        encoded = model.encode(spectrogram(30, seed=5))
        state = model.start_state()
        for token in (SOS, 4, 5):
            alpha, context = model.attend(state[0], encoded)
            assert np.all(alpha.values >= 0)
            assert alpha.values.sum() == pytest.approx(1.0, abs=1e-9)
            state, _ = model.decode_step(token, state, context)


class TestDecodeStep:
    def test_pure_function_of_inputs(self):
        model = small_model()
        encoded = model.encode(spectrogram(10))
        state = model.start_state()
        _, context = model.attend(state[0], encoded)
        _, logits_a = model.decode_step(SOS, state, context)
        _, logits_b = model.decode_step(SOS, state, context)
        assert np.array_equal(logits_a.values, logits_b.values)

    @pytest.mark.parametrize("vocab_size", [5, 145])
    def test_logits_cover_vocabulary(self, vocab_size):
        model = small_model(vocab_size=vocab_size)
        encoded = model.encode(spectrogram(10))
        state = model.start_state()
        _, context = model.attend(state[0], encoded)
        _, logits = model.decode_step(SOS, state, context)
        assert logits.shape == (1, vocab_size)
        assert softmax(logits).values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_invalid_token_rejected(self):
        model = small_model(vocab_size=5)
        encoded = model.encode(spectrogram(10))
        state = model.start_state()
        _, context = model.attend(state[0], encoded)
        with pytest.raises(IndexError):
            model.decode_step(5, state, context)
        with pytest.raises(IndexError):
            model.decode_step(-1, state, context)


class TestForwardTeacherForced:
    def test_row_per_predicted_position(self):
        model = small_model()
        logits = model.forward_teacher_forced(spectrogram(12), [SOS, 4, EOS])
        assert logits.shape == (2, 7)

    @pytest.mark.parametrize(
        "target",
        [[4, 5, EOS], [SOS, 4, 5], [SOS], [], [SOS, 0, EOS]],
    )
    def test_bad_framing_rejected(self, target):
        model = small_model()
        with pytest.raises(ContractError):
            model.forward_teacher_forced(spectrogram(12), target)

    def test_input_override_length_checked(self):
        model = small_model()
        with pytest.raises(ContractError):
            model.forward_teacher_forced(spectrogram(12), [SOS, 4, EOS], input_tokens=[SOS])

    def test_input_override_changes_predictions(self):
        model = small_model(seed=2)
        x = spectrogram(12)
        forced = model.forward_teacher_forced(x, [SOS, 4, 5, EOS])
        swapped = model.forward_teacher_forced(x, [SOS, 4, 5, EOS], input_tokens=[SOS, 6, 6])
        assert forced.shape == swapped.shape
        assert not np.allclose(forced.values[1:], swapped.values[1:])

    def test_initial_loss_near_uniform(self):
        model = small_model(vocab_size=145, seed=11)
        target = [SOS, 9, 23, 77, EOS]
        logits = model.forward_teacher_forced(spectrogram(40, seed=1), target)
        loss = softmax_cross_entropy(logits, target[1:]).item()
        assert math.log(145) - 1 <= loss <= math.log(145) + 1


class TestGradients:
    def tiny_setup(self, layers=1, beta=2, frames=8):
        enc = EncoderConfig(
            conv=(ConvSpec(channels=2, stride=2, dilation=1, kernel=2),),
            layers=layers, beta=beta, hidden=4,
        )
        dec = DecoderConfig(vocab_size=5, embedding_dim=3, hidden=4, attention_dim=2)
        model = Seq2SeqModel(enc, dec, input_dim=3, seed=7)
        x = np.random.default_rng(13).normal(size=(frames, 3))
        target = [SOS, 4, 3, EOS]
        return model, x, target

    def test_full_model_matches_finite_differences(self):
        model, x, target = self.tiny_setup()
        assert model.encode(x).reduced_steps == 2
        self.check_against_finite_differences(model, x, target)

    def test_stacked_padded_pyramid_matches_finite_differences(self):
        # 20 frames -> 10 conv rows -> 4 steps (3+3+3+1) -> 2 steps (3+1): both
        # layers pad a short final group, and the second feeds on the first
        model, x, target = self.tiny_setup(layers=2, beta=3, frames=20)
        assert model.encode(x).reduced_steps == 2
        self.check_against_finite_differences(model, x, target)

    def check_against_finite_differences(self, model, x, target):
        def loss_value():
            logits = model.forward_teacher_forced(x, target)
            return softmax_cross_entropy(logits, target[1:]).item()

        loss = softmax_cross_entropy(model.forward_teacher_forced(x, target), target[1:])
        backward(loss)
        for name, p in model.named_parameters().items():
            numeric = finite_difference_grad(loss_value, p.values, h=1e-5)
            assert_grad_close(p.grad, numeric, rtol=1e-3)
            p.zero_grad()

    def test_no_dead_parameters_at_init(self):
        model = small_model(seed=21)
        x = spectrogram(16, seed=3)
        target = [SOS, 4, 5, 6, EOS]
        loss = softmax_cross_entropy(model.forward_teacher_forced(x, target), target[1:])
        backward(loss)
        for name, p in model.named_parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), name


class TestStandardization:
    def test_zero_mean_unit_variance(self):
        out = standardize_spectrogram(spectrogram(30, seed=2) * 3.0 + 5.0)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_is_safe(self):
        out = standardize_spectrogram(np.full((4, 3), 2.5))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 0.0)


class TestConfigValidation:
    def test_beta_below_two_rejected(self):
        with pytest.raises(ContractError):
            EncoderConfig(beta=1)

    def test_bad_conv_rejected(self):
        with pytest.raises(ContractError):
            ConvSpec(stride=0)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ContractError):
            DecoderConfig(vocab_size=4)
