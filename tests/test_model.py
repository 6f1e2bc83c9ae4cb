import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Tensor,
    add,
    assert_grad_close,
    backward,
    finite_difference_grad,
    graph_attend,
    graph_attention_scores,
    graph_decode_step,
    graph_encode,
    graph_teacher_forced,
    loss_value,
    softmax,
    softmax_cross_entropy,
    sweep_node,
    update_gradients,
    weighted_sum,
    zeros,
)
from icdscribe.autodiff import MAX_PARAMETERS
from icdscribe.data import EOS, SOS
from icdscribe.errors import ContractError
from icdscribe.model import (
    ConvSpec,
    DecoderConfig,
    EncoderConfig,
    Seq2SeqModel,
)

N_MELS = 6


def no_conv_model(layers, beta=2, hidden=3, seed=0):
    enc = EncoderConfig(conv=(), layers=layers, beta=beta, hidden=hidden)
    dec = DecoderConfig(embedding_dim=3, hidden=4, attention_dim=2)
    return Seq2SeqModel(enc, dec, 5, input_dim=N_MELS, seed=seed)


def small_model(vocab_size=7, seed=0):
    enc = EncoderConfig(
        conv=(ConvSpec(channels=4, stride=2, dilation=1, kernel=3),), layers=1, beta=2, hidden=5
    )
    dec = DecoderConfig(embedding_dim=3, hidden=4, attention_dim=3)
    return Seq2SeqModel(enc, dec, vocab_size, input_dim=N_MELS, seed=seed)


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
        dec = DecoderConfig(embedding_dim=2, hidden=3, attention_dim=2)
        model = Seq2SeqModel(enc, dec, 5, input_dim=N_MELS)
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

    @given(
        strides=st.lists(st.integers(min_value=1, max_value=4), max_size=3),
        beta=st.integers(min_value=2, max_value=4),
        layers=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_state_span_is_the_frames_of_exactly_one_state(self, strides, beta, layers):
        enc = EncoderConfig(conv=tuple(ConvSpec(channels=2, stride=s, kernel=2) for s in strides),
                            layers=layers, beta=beta, hidden=2)
        model = Seq2SeqModel(enc, DecoderConfig(2, 2, 2), 5, input_dim=N_MELS)
        span = enc.state_span
        assert model.encode(spectrogram(span)).reduced_steps == 1
        assert model.encode(spectrogram(span + 1)).reduced_steps == 2


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
        model.values[:] = 0.0
        hidden = model.encode(spectrogram(12)).hidden
        assert np.allclose(hidden, hidden[0])

    def test_deterministic(self):
        model = small_model()
        x = spectrogram(20)
        a = model.encode(x).hidden
        b = model.encode(x).hidden
        assert np.array_equal(a, b)

    def test_truncation_preserves_early_states(self):
        enc = EncoderConfig(
            conv=(ConvSpec(channels=4, stride=2, dilation=1), ConvSpec(channels=4, stride=2, dilation=2)),
            layers=2,
            beta=2,
            hidden=5,
        )
        dec = DecoderConfig(embedding_dim=3, hidden=4, attention_dim=2)
        model = Seq2SeqModel(enc, dec, 5, input_dim=N_MELS, seed=3)
        x = spectrogram(32, seed=9)
        full = model.encode(x).hidden
        truncated = model.encode(x[:16]).hidden
        assert full.shape[0] == 2 and truncated.shape[0] == 1
        assert np.allclose(truncated[0], full[0], atol=1e-12)


    def test_padding_fills_only_the_final_group(self):
        # 7 frames at beta 3 group as (0-2)(3-5)(6+pad): the first two states
        # must equal those of the unpadded 6-frame prefix
        model = no_conv_model(layers=1, beta=3)
        x = spectrogram(7, seed=4)
        full = model.encode(x).hidden
        prefix = model.encode(x[:6]).hidden
        assert full.shape[0] == 3 and prefix.shape[0] == 2
        np.testing.assert_array_equal(full[:2], prefix)


class TestAttention:
    def test_single_step_gets_all_weight(self):
        model = no_conv_model(layers=1, beta=2, hidden=3)
        encoded = model.encode(spectrogram(2))
        assert encoded.reduced_steps == 1
        s0 = model.start_state()[0]
        alpha, context = model.attend(s0, encoded)
        assert alpha.shape == (1, 1)
        assert alpha[0, 0] == pytest.approx(1.0)
        assert np.allclose(context, encoded.hidden[0])

    def test_equal_scores_give_uniform_weights(self):
        model = small_model()
        for name in ("attn.query", "attn.keys", "attn.b", "attn.score"):
            model.named_parameters()[name].values[:] = 0.0
        encoded = model.encode(spectrogram(24))
        alpha, _ = model.attend(model.start_state()[0], encoded)
        u = encoded.reduced_steps
        assert u > 1
        assert np.allclose(alpha, 1.0 / u, atol=1e-12)

    def test_score_shift_leaves_weights_unchanged(self):
        model = small_model(seed=4)
        encoded = graph_encode(model, spectrogram(24, seed=2))
        scores = graph_attention_scores(model, Tensor(model.start_state()[0]), encoded)
        base = softmax(scores).values
        shifted = softmax(add(scores, Tensor(np.full(scores.shape, 17.3)))).values
        assert np.allclose(base, shifted, atol=1e-12)

    def test_weights_nonnegative_and_normalized(self):
        model = small_model(seed=8)
        encoded = model.encode(spectrogram(30, seed=5))
        state = model.start_state()
        for token in (SOS, 4, 5):
            alpha, context = model.attend(state[0], encoded)
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            state, _ = model.decode_step(token, state, context)


class TestDecodeStep:
    def test_pure_function_of_inputs(self):
        model = small_model()
        encoded = model.encode(spectrogram(10))
        state = model.start_state()
        _, context = model.attend(state[0], encoded)
        _, logits_a = model.decode_step(SOS, state, context)
        _, logits_b = model.decode_step(SOS, state, context)
        assert np.array_equal(logits_a, logits_b)

    @pytest.mark.parametrize("vocab_size", [5, 145])
    def test_logits_cover_vocabulary(self, vocab_size):
        model = small_model(vocab_size=vocab_size)
        encoded = model.encode(spectrogram(10))
        state = model.start_state()
        _, context = model.attend(state[0], encoded)
        _, logits = model.decode_step(SOS, state, context)
        assert logits.shape == (1, vocab_size)
        assert softmax(Tensor(logits)).values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_invalid_token_rejected(self):
        model = small_model(vocab_size=5)
        encoded = model.encode(spectrogram(10))
        state = model.start_state()
        _, context = model.attend(state[0], encoded)
        with pytest.raises(IndexError):
            model.decode_step(5, state, context)
        with pytest.raises(IndexError):
            model.decode_step(-1, state, context)

    def test_bit_identical_to_the_graph_step(self):
        # beam search steps on these arrays; they must be the per-step graph's values bit for bit
        default = Seq2SeqModel(EncoderConfig(), DecoderConfig(), 40, input_dim=N_MELS, seed=5)
        for model in (small_model(seed=3), default):
            n = model.decoder_cfg.hidden
            x = spectrogram(60, seed=1)
            encoded, graph_encoded = model.encode(x), graph_encode(model, x)
            state, graph_state = model.start_state(), (zeros((1, n)), zeros((1, n)))
            for token in (SOS, 4, 6, 4):
                alpha, context = model.attend(state[0], encoded)
                graph_alpha, graph_context = graph_attend(model, graph_state[0], graph_encoded)
                assert np.array_equal(alpha, graph_alpha.values)
                assert np.array_equal(context, graph_context.values)
                state, logits = model.decode_step(token, state, context)
                graph_state, graph_logits = graph_decode_step(model, token, graph_state,
                                                              graph_context)
                assert np.array_equal(logits, graph_logits.values)
                for got, want in zip(state, graph_state, strict=True):
                    assert np.array_equal(got, want.values)


class TestTeacherForcedOp:
    """The whole-target decoder and its reverse pass against the per-step graph."""

    @given(
        steps=st.integers(min_value=1, max_value=8),
        units=st.integers(min_value=1, max_value=20),
        sizes=st.tuples(*[st.integers(min_value=1, max_value=4)] * 4),
        vocab_size=st.integers(min_value=5, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_step_graph(self, steps, units, sizes, vocab_size, seed):
        embedding, hidden, attention, encoder_hidden = sizes
        enc = EncoderConfig(conv=(), layers=1, beta=2, hidden=encoder_hidden)
        dec = DecoderConfig(embedding_dim=embedding, hidden=hidden, attention_dim=attention)
        model = Seq2SeqModel(enc, dec, vocab_size, input_dim=N_MELS, seed=seed)
        rng = np.random.default_rng(seed)
        x = spectrogram(2 * units, seed=seed % 1000)
        inputs = [SOS] + rng.integers(0, vocab_size, size=steps - 1).tolist()
        targets = rng.integers(0, vocab_size, size=steps)
        assert model.encode(x).reduced_steps == units
        results = []
        def nodes():
            encoded = model.encode(x)
            logits, decoder_sweep = model._decode_teacher_forced(encoded, inputs)
            return sweep_node(logits, lambda g: model._encoder_sweep(encoded, decoder_sweep(g)))

        for forward in (nodes, lambda: graph_teacher_forced(model, graph_encode(model, x), inputs)):
            model.grads[:] = 0.0
            loss = softmax_cross_entropy(forward(), targets)
            backward(loss)
            results.append((loss.item(), model.grads.copy()))
        (loss, grads), (want_loss, want_grads) = results
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        # relative to the largest entry: a leaf whose own gradient nearly cancels
        # (softmax adjoints sum to zero) keeps only the rounding of its terms
        scale = np.abs(want_grads).max()
        start = 0
        for name, p in model.named_parameters().items():
            stop = start + p.values.size
            assert np.abs(grads[start:stop] - want_grads[start:stop]).max() <= 1e-12 * scale, name
            start = stop


class TestEncoderNode:
    """The encoder and its reverse pass against the per-op graph encoder."""

    @given(
        convs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
                                 st.integers(1, 3)), max_size=2),
        layers=st.integers(min_value=1, max_value=3),
        beta=st.integers(min_value=2, max_value=3),
        hidden=st.integers(min_value=1, max_value=4),
        frames=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_the_graph_encoder(self, convs, layers, beta, hidden, frames, seed):
        # frame counts cover final pyramid groups short of beta rows and lengths that
        # no conv stride divides
        enc = EncoderConfig(conv=tuple(ConvSpec(*c) for c in convs), layers=layers, beta=beta,
                            hidden=hidden)
        dec = DecoderConfig(embedding_dim=2, hidden=3, attention_dim=2)
        model = Seq2SeqModel(enc, dec, 5, input_dim=N_MELS, seed=seed)
        x = spectrogram(frames, seed=seed % 1000)
        encoded, graph = model.encode(x), graph_encode(model, x)
        grads = []
        for hidden_node in (sweep_node(encoded.hidden, partial(model._encoder_sweep, encoded)),
                            graph.hidden):
            model.grads[:] = 0.0
            backward(weighted_sum(hidden_node, seed=seed % 1000))
            grads.append(model.grads.copy())
        assert np.any(grads[1])
        got = (encoded.hidden, encoded.keys, grads[0])
        want = (graph.hidden.values, graph.keys.values, grads[1])
        if hidden > 1:  # every product and sum runs in the graph's order
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
            return
        # at width 1 the graph's `narrow` then `reshape` feeds the next layer a strided
        # view, which numpy multiplies outside BLAS: the last bits may differ
        for a, b in zip(got, want, strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestForwardTeacherForced:
    def test_row_per_predicted_position(self):
        model = small_model()
        logits, _ = model.forward_teacher_forced(spectrogram(12), [SOS, 4, EOS])
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
        forced, _ = model.forward_teacher_forced(x, [SOS, 4, 5, EOS])
        swapped, _ = model.forward_teacher_forced(x, [SOS, 4, 5, EOS], input_tokens=[SOS, 6, 6])
        assert forced.shape == swapped.shape
        assert not np.allclose(forced[1:], swapped[1:])

    def test_initial_loss_near_uniform(self):
        model = small_model(vocab_size=145, seed=11)
        target = [SOS, 9, 23, 77, EOS]
        loss = loss_value(model, spectrogram(40, seed=1), target)
        assert math.log(145) - 1 <= loss <= math.log(145) + 1


class TestGradients:
    def tiny_setup(self, layers=1, beta=2, frames=8):
        enc = EncoderConfig(
            conv=(ConvSpec(channels=2, stride=2, dilation=1, kernel=2),),
            layers=layers, beta=beta, hidden=4,
        )
        dec = DecoderConfig(embedding_dim=3, hidden=4, attention_dim=2)
        model = Seq2SeqModel(enc, dec, 5, input_dim=3, seed=7)
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
        update_gradients(model, x, target)
        for name, p in model.named_parameters().items():
            numeric = finite_difference_grad(lambda: loss_value(model, x, target), p.values, h=1e-5)
            assert_grad_close(p.grad, numeric, rtol=1e-3)

    def test_no_dead_parameters_at_init(self):
        model = small_model(seed=21)
        x = spectrogram(16, seed=3)
        target = [SOS, 4, 5, 6, EOS]
        update_gradients(model, x, target)
        for name, p in model.named_parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), name

    def test_parameters_are_views_of_the_flat_vectors(self):
        model = small_model(seed=21)
        target = [SOS, 4, 5, 6, EOS]
        update_gradients(model, spectrogram(16, seed=3), target)
        start = 0
        for name, p in model.named_parameters().items():
            stop = start + p.values.size
            assert np.shares_memory(p.values, model.values[start:stop]), name
            assert np.shares_memory(p.grad, model.grads[start:stop]), name
            assert np.array_equal(p.values.ravel(), model.values[start:stop]), name
            assert np.array_equal(p.grad.ravel(), model.grads[start:stop]), name
            start = stop
        assert start == model.values.size == model.grads.size
        assert np.any(model.grads != 0.0)


class TestConfigValidation:
    def test_beta_below_two_rejected(self):
        with pytest.raises(ContractError):
            EncoderConfig(beta=1)

    def test_bad_conv_rejected(self):
        with pytest.raises(ContractError):
            ConvSpec(stride=0)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ContractError):
            Seq2SeqModel(EncoderConfig(), DecoderConfig(), 4, input_dim=N_MELS)

    # encoder.hidden 1,221 is the first width whose default model tops 25,000,000 values;
    # at 1,250,000 each LSTM bias alone would take 40 MB if it were built before the check
    @pytest.mark.parametrize("hidden, count", [(1221, "25,035,628"),
                                               (1_250_000, "25,001,087,619,902")])
    def test_a_model_above_the_size_bound_is_refused_before_any_allocation(self, hidden, count):
        tracemalloc.start()
        try:
            with pytest.raises(ContractError) as refused:
                Seq2SeqModel(EncoderConfig(hidden=hidden), DecoderConfig(), 30, input_dim=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{count} parameters" in str(refused.value)
        assert f"bound of {MAX_PARAMETERS:,}" in str(refused.value) and MAX_PARAMETERS == 25_000_000
        assert peak < 1 << 20  # its parameter vector alone would take 200 MB
