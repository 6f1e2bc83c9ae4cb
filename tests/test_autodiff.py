import functools
import math
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icdscribe import autodiff as ad
from icdscribe.data import EOS, SOS
from icdscribe.errors import ContractError
from icdscribe.model import ConvSpec, DecoderConfig, EncoderConfig, EncoderOutput, Seq2SeqModel
from icdscribe.seeds import stable_seed

import helpers as ops
from helpers import assert_grad_close, finite_difference_grad, weighted_sum


def square_norm(x):
    """sum_i x_i^2 as the [1, 1] product of x as a row and x as a column."""
    return ops.matmul(ops.reshape(x, (1, -1)), ops.reshape(x, (-1, 1)))


class TestForwardValues:
    def test_matmul_identity(self):
        eye = ops.Tensor(np.eye(2))
        m = ops.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ops.matmul(eye, m).values, m.values)

    def test_matmul_inner_product(self):
        a = ops.Tensor([[1.0, 2.0]])
        b = ops.Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).values, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        a = ops.Tensor(np.zeros((2, 3)))
        b = ops.Tensor(np.zeros((4, 2)))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 2\)"):
            ops.matmul(a, b)

    def test_tanh_odd(self):
        assert ops.tanh(ops.Tensor([0.0])).values[0] == 0.0

    def test_lstm_extreme_gates_stay_finite(self):
        # pre-activations of +-710 overflow a naive exp; gates must saturate
        # to exactly 0 or 1 and the state stays finite
        n = 2
        wx = ops.Tensor(np.zeros((1, 4 * n)))
        wh = ops.Tensor(np.zeros((n, 4 * n)))
        h0 = ops.Tensor(np.zeros((1, n)))
        c0 = ops.Tensor(np.full((1, n), 3.0))
        # i and g open, f shut, o open: c = 1, h = tanh(1)
        b = ops.Tensor(np.repeat([710.0, -710.0, 710.0, 710.0], n))
        out = ops.lstm(ops.Tensor(np.zeros((1, 1))), h0, c0, wx, wh, b).values
        np.testing.assert_array_equal(out, [[math.tanh(1.0)] * n + [1.0] * n])
        # i shut, f open: the cell carries c0 through unchanged
        b = ops.Tensor(np.repeat([-710.0, 710.0, -710.0, 710.0], n))
        out = ops.lstm(ops.Tensor(np.zeros((3, 1))), h0, c0, wx, wh, b).values
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:, n:], 3.0)

    def test_lstm_matches_per_step_reference(self):
        # oracle: the textbook cell, one step at a time, with sigmoid via exp
        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        rng = np.random.default_rng(3)
        steps, d, n = 6, 3, 4
        x, wx, wh = rng.normal(size=(steps, d)), rng.normal(size=(d, 4 * n)), rng.normal(size=(n, 4 * n))
        b, h, c = rng.normal(size=4 * n), rng.normal(size=n), rng.normal(size=n)
        out = ops.lstm(*(ops.Tensor(v) for v in (x, h[None, :], c[None, :], wx, wh, b))).values
        for t in range(steps):
            z = x[t] @ wx + h @ wh + b
            i, f, o = sigmoid(z[:n]), sigmoid(z[n : 2 * n]), sigmoid(z[3 * n :])
            c = f * c + i * np.tanh(z[2 * n : 3 * n])
            h = o * np.tanh(c)
            np.testing.assert_allclose(out[t], np.concatenate([h, c]), rtol=0, atol=1e-12)

    def test_lstm_shape_error_names_shapes(self):
        n = 2
        with pytest.raises(ContractError, match=r"wx \(3, 8\)"):
            ops.lstm(ops.Tensor(np.zeros((4, 2))), ops.zeros((1, n)), ops.zeros((1, n)),
                     ops.Tensor(np.zeros((3, 4 * n))), ops.Tensor(np.zeros((n, 4 * n))),
                     ops.Tensor(np.zeros(4 * n)))

    def test_concat_last_axis(self):
        out = ops.concat([ops.Tensor([1.0, 2.0]), ops.Tensor([3.0])])
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_concat_mismatch(self):
        with pytest.raises(ContractError, match=r"\(2, 2\), \(3, 3\) do not agree off axis 1"):
            ops.concat([ops.Tensor(np.zeros((2, 2))), ops.Tensor(np.zeros((3, 3)))], axis=1)
        with pytest.raises(ContractError, match=r"\(2,\), \(2, 1\)"):
            ops.concat([ops.Tensor(np.zeros(2)), ops.Tensor(np.zeros((2, 1)))], axis=0)

    def test_add_broadcast_mismatch(self):
        with pytest.raises(ContractError):
            ops.add(ops.Tensor(np.zeros((2, 3))), ops.Tensor(np.zeros((2, 4))))

    def test_cross_entropy_uniform(self):
        loss = ad.backward(np.zeros((1, 4)), [2], lambda d_logits: None)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_cross_entropy_peaked(self):
        # direct evaluation: -log softmax([10,0,0])[0] = log(1 + 2 e^-10)
        loss = ad.backward(np.array([[10.0, 0.0, 0.0]]), [0], lambda d_logits: None)
        assert loss == pytest.approx(math.log1p(2.0 * math.exp(-10.0)), abs=1e-12)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.backward(np.zeros((1, 3)), [3], lambda d_logits: None)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ops.Tensor(rng.normal(size=(6, 9)) * 30.0)
        out = ops.softmax(x).values
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out >= 0.0)

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            a = ops.Tensor(rng.normal(size=(4, 4)))
            b = ops.Tensor(rng.normal(size=(4, 4)))
            return ops.softmax(ops.tanh(ops.matmul(a, b))).values

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestLoss:
    """`autodiff.backward`: the cross entropy of an update and the adjoint it hands the sweep."""

    def test_sweep_gets_softmax_minus_onehot_over_n(self):
        logits = np.random.default_rng(4).normal(size=(3, 5)) * 4.0
        adjoints = []
        loss = ad.backward(logits, [1, 4, 1], adjoints.append)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert type(loss) is float
        assert loss == pytest.approx(-np.log(probs[[0, 1, 2], [1, 4, 1]]).mean(), abs=1e-12)
        (d_logits,) = adjoints
        probs[[0, 1, 2], [1, 4, 1]] -= 1.0
        np.testing.assert_allclose(d_logits, probs / 3.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("logits, targets, error", [
        (np.zeros(3), [0], ContractError),
        (np.zeros((2, 3)), [0], ContractError),
        (np.zeros((2, 3)), [[0, 1]], ContractError),
        (np.zeros((0, 3)), [], ContractError),
        (np.zeros((1, 3)), [-1], IndexError),
    ], ids=["logits0-targets0-Shape-1d-logits", "logits1-targets1-Shape-too-few-targets",
            "logits2-targets2-Shape-2d-targets", "logits3-targets3-ContractError",
            "logits4-targets4-IndexError"])
    def test_malformed_input_is_rejected_before_the_sweep(self, logits, targets, error):
        swept = []
        with pytest.raises(error):
            ad.backward(logits, targets, swept.append)
        assert not swept


class TestBackward:
    def test_sum_gradient(self):
        x = ops.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ops.backward(weighted_sum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = ops.Tensor([2.0], requires_grad=True)
        ops.backward(square_norm(x))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_shared_subexpression_sums_adjoints(self):
        # loss = x.x + sum(x) has three paths into x; d/dx = 2x + 1 by hand
        x = ops.Tensor([3.0, -1.0], requires_grad=True)
        loss = ops.add(square_norm(x), weighted_sum(x))
        ops.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.values + 1.0, atol=1e-12)

    def test_repeated_backward_accumulates(self):
        x = ops.Tensor([1.0, 4.0], requires_grad=True)
        loss = square_norm(x)
        ops.backward(loss)
        ops.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.values, atol=1e-12)

    def test_only_leaves_keep_a_gradient(self):
        x = ops.Tensor([1.0, 2.0], requires_grad=True)
        row = ops.reshape(x, (1, -1))
        square = ops.matmul(row, ops.reshape(x, (-1, 1)))
        ops.backward(square)
        assert row.grad is None and square.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_backward_rejects_non_scalar(self):
        x = ops.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ops.backward(ops.tanh(x))

    def test_deep_chain_does_not_recurse(self):
        # the graph walk is iterative: a chain far deeper than the
        # interpreter recursion limit still gets every adjoint
        x = ops.Tensor([1.0], requires_grad=True)
        node = x
        for _ in range(5000):
            node = ops.add(node, x)
        ops.backward(node)
        np.testing.assert_array_equal(x.grad, [5001.0])

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w1 = ops.Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True)
        w2 = ops.Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
        x = ops.Tensor(rng.normal(size=(2, 5)))
        targets = [0, 2]

        def forward():
            hidden = ops.tanh(ops.matmul(x, w1))
            return ops.softmax_cross_entropy(ops.matmul(hidden, w2), targets).item()

        loss = ops.softmax_cross_entropy(ops.matmul(ops.tanh(ops.matmul(x, w1)), w2), targets)
        ops.backward(loss)
        for p in (w1, w2):
            assert_grad_close(p.grad, finite_difference_grad(forward, p.values), rtol=1e-4)


OPS_UNDER_TEST = ["matmul", "add", "tanh", "relu", "concat", "softmax", "narrow", "reshape",
                  "cross_entropy", "conv1d", "lstm", "encoder", "attention_decoder"]


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op against the central-difference oracle."""

    @pytest.mark.parametrize("op", OPS_UNDER_TEST)
    @pytest.mark.parametrize("trial", range(3))
    def test_op_gradient(self, op, trial):
        rng = np.random.default_rng(stable_seed("op-gradient", op, trial))
        m, k, n = rng.integers(1, 9, size=3)
        if op == "matmul":
            a = ops.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            b = ops.Tensor(rng.normal(size=(k, n)), requires_grad=True)
            build = lambda: ops.matmul(a, b)
            leaves = [a, b]
        elif op == "add":
            a = ops.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            b = ops.Tensor(rng.normal(size=(1, n)), requires_grad=True)  # broadcast path
            build = lambda: ops.add(a, b)
            leaves = [a, b]
        elif op in ("tanh", "relu"):
            fn = getattr(ops, op)
            a = ops.Tensor(rng.normal(size=(m, n)) + 0.05, requires_grad=True)
            build = lambda: fn(a)
            leaves = [a]
        elif op == "concat":
            a = ops.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            b = ops.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            build = lambda: ops.concat([a, b], axis=-1)
            leaves = [a, b]
        elif op == "softmax":
            a = ops.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            build = lambda: ops.softmax(a)  # the seeded weighted sum breaks symmetry
            leaves = [a]
        elif op == "narrow":
            a = ops.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            start = int(rng.integers(0, n))
            length = int(rng.integers(1, n - start + 1))
            build = lambda: ops.narrow(a, 1, start, length)
            leaves = [a]
        elif op == "reshape":
            a = ops.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            build = lambda: ops.reshape(a, (int(n), int(m)))
            leaves = [a]
        elif op == "cross_entropy":
            a = ops.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            targets = rng.integers(0, n, size=m)
            build = lambda: ops.softmax_cross_entropy(a, targets)
            leaves = [a]
        elif op == "conv1d":
            kernel = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            dilation = int(rng.integers(1, 3))
            c_out = int(rng.integers(1, 5))
            x = ops.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            w = ops.Tensor(rng.normal(size=(kernel, int(k), c_out)), requires_grad=True)
            bias = ops.Tensor(rng.normal(size=c_out), requires_grad=True)
            build = lambda: ops.conv1d(x, w, bias, stride=stride, dilation=dilation)
            leaves = [x, w, bias]
        elif op == "lstm":
            # m steps of width k, n hidden units; h0 and c0 are leaves too
            x = ops.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            h0 = ops.Tensor(rng.normal(size=(1, n)), requires_grad=True)
            c0 = ops.Tensor(rng.normal(size=(1, n)), requires_grad=True)
            wx = ops.Tensor(rng.normal(size=(k, 4 * n)), requires_grad=True)
            wh = ops.Tensor(rng.normal(size=(n, 4 * n)), requires_grad=True)
            bias = ops.Tensor(rng.normal(size=4 * n), requires_grad=True)
            build = lambda: ops.lstm(x, h0, c0, wx, wh, bias)
            leaves = [x, h0, c0, wx, wh, bias]
        elif op == "encoder":
            # the model's encoder sweep: a padded two-layer pyramid over two conv layers, m + 8 frames
            model = Seq2SeqModel(EncoderConfig(conv=(ConvSpec(2, 2, 1, 2), ConvSpec(3, 1, 2, 2)),
                                               layers=2, beta=3, hidden=int(n)),
                                 DecoderConfig(embedding_dim=2, hidden=3, attention_dim=2),
                                 6, input_dim=int(k), seed=trial)
            # no zero biases: a conv row that reads only zeros would sit on its ReLU's kink
            model.values[:] = rng.normal(scale=0.5, size=model.values.size)
            x = rng.normal(size=(m + 8, k))

            def build():
                encoded = model.encode(x)
                return ops.sweep_node(encoded.hidden, partial(model._encoder_sweep, encoded))

            leaves = [p for name, p in model.named_parameters().items()
                      if name.startswith(("conv", "enc"))]
        elif op == "attention_decoder":
            # the model's teacher-forced decoder: m steps over k encoder states of width n,
            # read from a leaf of hidden states; its sweep forms the keys' share
            model = Seq2SeqModel(EncoderConfig(conv=(), layers=1, hidden=int(n)),
                                 DecoderConfig(embedding_dim=2, hidden=3, attention_dim=2),
                                 6, input_dim=1, seed=trial)
            hidden = ops.Tensor(rng.normal(size=(k, n)), requires_grad=True)
            keys = model.named_parameters()["attn.keys"].values
            inputs = rng.integers(0, 6, size=m).tolist()

            def build():
                encoded = EncoderOutput(hidden.values, hidden.values @ keys, [], [])
                return ops.sweep_node(*model._decode_teacher_forced(encoded, inputs), into=hidden)

            leaves = [hidden] + [p for name, p in model.named_parameters().items()
                                 if name.startswith(("dec", "attn", "out"))]
        else:
            raise AssertionError(op)

        def forward():
            out = build()
            return out if out.size == 1 else weighted_sum(ops.tanh(out), seed=trial)

        ops.backward(forward())

        for leaf in leaves:
            fd = finite_difference_grad(lambda: forward().item(), leaf.values)
            assert_grad_close(leaf.grad, fd, rtol=1e-4)


class TestNoGrad:
    def test_ops_on_constants_record_no_graph(self):
        x = ops.Tensor(np.eye(2))
        out = ops.matmul(ops.tanh(x), x)
        assert not out.requires_grad and out._parents == () and out._backprop is None


def assert_within_1e12(actual, expected):
    """Equal to 1e-12 relative, measured against the largest entry near zero."""
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestStackedWeightGradients:
    """A leaf weight's product terms are summed by one stacked matmul when backward reaches it."""

    H = 3

    def loss(self, weights):
        """A scalar reaching a [H, 4H] weight through seven uses; weights[i] serves use i.

        Uses 0-2 are matmuls with the weight as the right operand, 3 one with
        it as the left, 4 and 5 a T = 1 lstm step's wx and wh, 6 an add.
        """
        rng = np.random.default_rng(5)
        h = self.H
        outs = [ops.matmul(ops.Tensor(rng.normal(size=(rows, h))), weights[i])
                for i, rows in enumerate((1, 1, 2))]
        outs.append(ops.matmul(weights[3], ops.Tensor(rng.normal(size=(4 * h, 2)))))
        state = [ops.Tensor(rng.normal(size=(1, h))) for _ in range(3)]
        outs.append(ops.lstm(*state, weights[4], weights[5], ops.Tensor(rng.normal(size=4 * h))))
        outs.append(ops.add(weights[6], ops.Tensor(rng.normal(size=(h, 4 * h)))))
        total = weighted_sum(ops.tanh(outs[0]))
        for out in outs[1:]:
            total = ops.add(total, weighted_sum(ops.tanh(out)))
        return total

    def weight(self):
        return np.random.default_rng(6).normal(size=(self.H, 4 * self.H)) * 0.5

    def test_shared_weight_equals_the_per_term_sum(self):
        w = ops.Tensor(self.weight(), requires_grad=True)
        assert w.grad is None  # a plain leaf, not a parameter-vector view
        ops.backward(self.loss([w] * 7))
        # reference: one copy per use, so each copy's grad is exactly one term
        copies = [ops.Tensor(self.weight(), requires_grad=True) for _ in range(7)]
        ops.backward(self.loss(copies))
        reference = sum(c.grad for c in copies)
        assert_within_1e12(w.grad, reference)
        fd = finite_difference_grad(lambda: self.loss([w] * 7).item(), w.values)
        assert_grad_close(w.grad, fd, rtol=1e-4)

    def test_repeated_backward_accumulates(self):
        w = ops.Tensor(self.weight(), requires_grad=True)
        loss = self.loss([w] * 7)
        ops.backward(loss)
        once = w.grad.copy()
        ops.backward(loss)
        assert_within_1e12(w.grad, 2.0 * once)

    def test_parameter_leaf_adds_into_its_gradient_view(self):
        layout = {"w": ((self.H, 4 * self.H), self.H)}
        _, grads, params = ad.parameter_vectors(layout, None, values=self.weight().ravel())
        w = ops.graph_leaf(params["w"])
        ops.backward(self.loss([w] * 7))
        plain = ops.Tensor(self.weight(), requires_grad=True)
        ops.backward(self.loss([plain] * 7))
        assert np.shares_memory(w.grad, grads)
        np.testing.assert_array_equal(grads, plain.grad.ravel())

    def test_non_leaf_right_operand_passes_its_product_upstream(self):
        # attention's matmul(alpha, hidden): hidden is an op output, and w
        # reaches the loss only through it
        rng = np.random.default_rng(8)
        x, query = ops.Tensor(rng.normal(size=(4, 3))), ops.Tensor(rng.normal(size=(1, 5)))
        w = ops.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        keys = ops.Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def forward():
            hidden = ops.tanh(ops.matmul(x, w))
            alpha = ops.softmax(ops.matmul(query, keys))
            return weighted_sum(ops.tanh(ops.matmul(alpha, hidden)))

        ops.backward(forward())
        for leaf in (w, keys):
            fd = finite_difference_grad(lambda: forward().item(), leaf.values)
            assert_grad_close(leaf.grad, fd, rtol=1e-4)

    def test_scalar_loss_that_is_a_leaf(self):
        x = ops.Tensor(2.0, requires_grad=True)
        ops.backward(x)
        np.testing.assert_array_equal(x.grad, 1.0)
        constant = ops.Tensor(2.0)
        ops.backward(constant)
        assert constant.grad is None


class TestOneAdjointPerTensor:
    def test_non_leaf_gets_its_dense_and_product_terms_summed(self):
        # hidden is an op output with one dense term (through add) and three
        # product terms (as the right operand of matmul(alpha_i, hidden))
        rng = np.random.default_rng(12)
        x = ops.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = ops.Tensor(rng.normal(size=(3, 5)))
        shift = ops.Tensor(rng.normal(size=(4, 5)))
        alphas = [rng.normal(size=(1, 4)) for _ in range(3)]
        captured = []

        def forward(capture=False):
            hidden = ops.tanh(ops.matmul(x, w))
            if capture:
                backprop = hidden._backprop
                hidden._backprop = lambda g, terms: (captured.append(g.copy()), backprop(g, terms))
            total = weighted_sum(ops.add(hidden, shift))
            for i, alpha in enumerate(alphas):
                total = ops.add(total, weighted_sum(ops.matmul(ops.Tensor(alpha), hidden), seed=i))
            return total

        ops.backward(forward(capture=True))
        columns = [np.random.default_rng(i).normal(size=(5, 1)) for i in range(3)]
        want = np.ones((4, 5)) + sum(a.T @ c.T for a, c in zip(alphas, columns))
        (got,) = captured
        assert_within_1e12(got, want)
        fd = finite_difference_grad(lambda: forward().item(), x.values)
        assert_grad_close(x.grad, fd, rtol=1e-4)


def conv1d_per_tap(x, w, b, g, stride, dilation):
    """Conv1d one tap at a time: the output, and the gradients of sum(g * out) for x, w, b."""
    steps, c_in = x.shape
    kernel = w.shape[0]
    pad = (kernel - 1) * dilation
    padded = np.vstack([np.zeros((pad, c_in)), x])
    t_out = -(-steps // stride)
    taps = [np.arange(t_out) * stride + k * dilation for k in range(kernel)]
    out = np.tile(b, (t_out, 1))
    dw = np.empty_like(w)
    dpad = np.zeros_like(padded)
    for k in range(kernel):
        out += padded[taps[k]] @ w[k]
        dw[k] = padded[taps[k]].T @ g
        np.add.at(dpad, taps[k], g @ w[k].T)
    return out, dpad[pad:], dw, g.sum(axis=0)


class TestConv1dAsOneMatmul:
    @given(
        steps=st.integers(min_value=1, max_value=12),
        kernel=st.integers(min_value=1, max_value=4),
        c_in=st.integers(min_value=1, max_value=4),
        c_out=st.integers(min_value=1, max_value=4),
        stride=st.integers(min_value=1, max_value=14),
        dilation=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_tap_loop(self, steps, kernel, c_in, c_out, stride, dilation, seed):
        rng = np.random.default_rng(seed)
        x = ops.Tensor(rng.normal(size=(steps, c_in)), requires_grad=True)
        w = ops.Tensor(rng.normal(size=(kernel, c_in, c_out)), requires_grad=True)
        b = ops.Tensor(rng.normal(size=c_out), requires_grad=True)
        out = ops.conv1d(x, w, b, stride=stride, dilation=dilation)
        g = rng.normal(size=out.shape)
        ops.backward(ops.matmul(ops.reshape(out, (1, -1)), ops.Tensor(g.reshape(-1, 1))))
        want = conv1d_per_tap(x.values, w.values, b.values, g, stride, dilation)
        for got, expected in zip((out.values, x.grad, w.grad, b.grad), want, strict=True):
            assert got.shape == expected.shape
            assert_within_1e12(got, expected)

    @given(
        steps=st.integers(min_value=1, max_value=12),
        kernel=st.integers(min_value=1, max_value=4),
        c_in=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=6),
        dilation=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(steps=9, kernel=3, c_in=2, stride=1, dilation=2, seed=0)  # K * d > stride: overlaps
    @settings(max_examples=80, deadline=None)
    def test_input_gradient_equals_add_at_bit_for_bit(self, steps, kernel, c_in, stride,
                                                       dilation, seed):
        rng = np.random.default_rng(seed)
        x = ops.Tensor(rng.normal(size=(steps, c_in)), requires_grad=True)
        w = ops.Tensor(rng.normal(size=(kernel, c_in, 2)))
        out = ops.conv1d(x, w, ops.Tensor(np.zeros(2)), stride=stride, dilation=dilation)
        g = rng.normal(size=out.shape)
        terms = {}
        out._backprop(g, terms)
        (got, _), = terms[id(x)]
        t_out, pad = out.shape[0], (kernel - 1) * dilation
        rows = np.arange(t_out)[:, None] * stride + np.arange(kernel) * dilation
        want = np.zeros((pad + steps, c_in))
        np.add.at(want, rows, (g @ w.values.reshape(-1, 2).T).reshape(t_out, kernel, c_in))
        assert np.array_equal(got, want[pad:])

    def test_short_input_and_long_stride(self):
        # T < (K - 1) * dilation reads padding only below row 0; stride > T gives one row
        x = ops.Tensor([[1.0], [2.0]])
        w = ops.Tensor(np.array([3.0, 5.0, 7.0]).reshape(3, 1, 1))
        out = ops.conv1d(x, w, ops.Tensor([0.5]), stride=4, dilation=2)
        np.testing.assert_array_equal(out.values, [[0.5 + 7.0 * 1.0]])


def lstm_allocating_steps(x, h0, c0, wx, wh, b, g_out):
    """The LSTM with a step loop that allocates every temporary, and its backward sweep.

    Returns the output rows and, in push order, the adjoint terms handed to
    x, h0, c0, wx, wh and b: arrays, or the two factors of a product.
    """
    steps, n = x.shape[0], wh.shape[-1] // 4
    scale = np.array([[0.5], [0.5], [1.0], [0.5]])
    zx = (x @ wx + b).reshape(steps, 4, n)
    hs = np.empty((steps + 1, n))
    cs = np.empty((steps + 1, n))
    hs[0], cs[0] = h0[0], c0[0]
    gates = np.empty((steps, 4, n))
    tanh_c = np.empty((steps, n))
    for t in range(steps):
        z = zx[t] + (hs[t] @ wh).reshape(4, n)
        gates[t] = scale * np.tanh(scale * z) + (1.0 - scale)
        i, f, g, o = gates[t]
        cs[t + 1] = f * cs[t] + i * g
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = o * tanh_c[t]
    out = np.concatenate([hs[1:], cs[1:]], axis=1)
    slope = scale * scale - (gates - 1.0 + scale) ** 2
    dz = np.empty_like(gates)
    dh = np.zeros(n)
    dc = np.zeros(n)
    for t in range(steps - 1, -1, -1):
        i, f, g, o = gates[t]
        dh = dh + g_out[t, :n]
        dc = dc + g_out[t, n:] + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
        dz[t] = slope[t] * (dc * g, dc * cs[t], dc * i, dh * tanh_c[t])
        dc = dc * f
        dh = dz[t].reshape(-1) @ wh.T
    dz = dz.reshape(steps, 4 * n)
    return out, [(dz @ wx.T,), (dh[None, :],), (dc[None, :],), (x, dz), (hs[:-1], dz),
                 (dz.sum(axis=0),)]


class TestLstmStepsWithoutTemporaries:
    @given(
        steps=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_allocating_loop(self, steps, d, n, seed):
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(steps, d)), rng.normal(size=(1, n)), rng.normal(size=(1, n)),
                  rng.normal(size=(d, 4 * n)), rng.normal(size=(n, 4 * n)),
                  rng.normal(size=4 * n))
        leaves = [ops.Tensor(a, requires_grad=True) for a in arrays]
        g_out = rng.normal(size=(steps, 2 * n))
        want_out, want_terms = lstm_allocating_steps(*arrays, g_out)
        out = ops.lstm(*leaves)
        assert np.array_equal(out.values, want_out)
        terms = {}
        out._backprop(g_out, terms)
        for leaf, want in zip(leaves, want_terms, strict=True):
            (got,) = terms[id(leaf)]
            got = tuple(term for term in got if term is not None)
            assert len(got) == len(want)
            assert all(np.array_equal(a, e) for a, e in zip(got, want))


class TestParameterVectors:
    @given(
        fan_ins=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=4),
        rows=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_equal_rng_uniform_in_layout_order(self, fan_ins, rows, seed):
        layout = {f"w{i}": ((rows, i + 1), fan_in) for i, fan_in in enumerate(fan_ins)}
        layout["b"] = ((3,), np.array([0.0, 1.0, 2.0]))
        values, grads, params = ad.parameter_vectors(layout, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for i, fan_in in enumerate(fan_ins):
            bound = 1.0 / float(fan_in) ** 0.5
            want = rng.uniform(-bound, bound, size=(rows, i + 1))
            assert np.array_equal(params[f"w{i}"].values, want)
        np.testing.assert_array_equal(params["b"].values, [0.0, 1.0, 2.0])
        assert np.array_equal(values, np.concatenate([p.values.ravel() for p in params.values()]))
        assert grads.shape == values.shape and not grads.any()

    def test_a_parameter_is_a_value_view_and_a_gradient_view(self):
        layout = {"w": ((2, 3), 4), "b": ((3,), np.zeros(3))}
        values, grads, params = ad.parameter_vectors(layout, np.random.default_rng(0))
        b = params["b"]
        assert b.shape == b.values.shape == b.grad.shape == (3,)
        b.grad += 1.0
        np.testing.assert_array_equal(grads, [0.0] * 6 + [1.0] * 3)
        assert np.shares_memory(b.values, values) and not hasattr(b, "__dict__")

    def test_stored_values_are_adopted_without_drawing(self):
        layout = {"w": ((2, 3), 4), "b": ((3,), np.zeros(3))}
        stored = np.arange(9.0)
        values, grads, params = ad.parameter_vectors(layout, None, values=stored)
        assert values is stored
        np.testing.assert_array_equal(params["w"].values, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(params["b"].values, [6, 7, 8])
        params["b"].values[0] = -1.0  # a view into the stored vector
        assert stored[6] == -1.0 and not grads.any()
        converted, _, _ = ad.parameter_vectors(layout, None, values=list(range(9)))
        assert converted.dtype == np.float64 and np.array_equal(converted, np.arange(9.0))
        with pytest.raises(ContractError, match="8 stored values for a layout of 9"):
            ad.parameter_vectors(layout, None, values=np.zeros(8))


def textbook_adam(values, grads, m, v, step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's bias-corrected update, element by element over whole vectors."""
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * grads * grads
    c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    return values - lr * (m / c1) / (np.sqrt(v / c2) + eps), m, v


def folded_adam(values, grads, m, v, step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The same update with the bias corrections folded into the step size and eps."""
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * grads * grads
    root_c2 = math.sqrt(1.0 - b2 ** step)
    step_size = lr * root_c2 / (1.0 - b1 ** step)
    return values - m / (np.sqrt(v) + eps * root_c2) * step_size, m, v


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        values = np.array([1.0, -2.0])
        state = ad.AdamState(2)
        ad.adam_step(values, np.zeros(2), state, ad.OptimizerConfig(lr=0.1))
        np.testing.assert_array_equal(values, [1.0, -2.0])

    def test_step_count_increments_by_one(self):
        values = np.zeros(1)
        state = ad.AdamState(1)
        for expected in (1, 2, 3):
            ad.adam_step(values, np.ones(1), state, ad.OptimizerConfig())
            assert state.step == expected

    def test_length_mismatch_is_a_contract_error(self):
        state = ad.AdamState(3)
        with pytest.raises(ContractError, match="covers 3 values"):
            ad.adam_step(np.zeros(3), np.zeros(2), state, ad.OptimizerConfig())
        with pytest.raises(ContractError, match="covers 3 values"):
            ad.adam_step(np.zeros(4), np.zeros(4), state, ad.OptimizerConfig())
        assert state.step == 0

    @pytest.mark.parametrize("size", [1, 7, ad.ADAM_BLOCK, ad.ADAM_BLOCK + 1, 500_789])
    def test_scratch_is_one_block_row_per_thread(self, size):
        state = ad.AdamState(size)
        assert state.scratch.shape == (2, min(ad.ADAM_BLOCK, size))
        assert state.scratch.dtype == np.float64

    @given(
        size=st.sampled_from([
            n + d for n in (ad.ADAM_BLOCK, 2 * ad.ADAM_BLOCK) for d in (-1, 0, 1)
        ] + [1, 7]),
        steps=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_blocks_match_the_textbook_update(self, size, steps, seed):
        # the moments equal the textbook's bit for bit, the parameters the folded
        # form's; the folding moves the parameters by rounding only
        rng = np.random.default_rng(seed)
        values = rng.normal(size=size)
        start = values.copy()
        state = ad.AdamState(size)
        want, m, v = values.copy(), np.zeros(size), np.zeros(size)
        textbook = values.copy()
        for step in range(1, steps + 1):
            grads = rng.normal(size=size) * rng.choice([1e-6, 1.0, 1e3], size=size)
            want, _, _ = folded_adam(want, grads, m, v, step, lr=0.01)
            textbook, m, v = textbook_adam(textbook, grads, m, v, step, lr=0.01)
            given = grads.copy()
            ad.adam_step(values, grads, state, ad.OptimizerConfig(lr=0.01))
            assert np.array_equal(grads, given)  # read, never written
        assert np.array_equal(values, want)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        update = np.abs(textbook - start).max()
        assert np.abs(values - textbook).max() <= 1e-12 * update

    def test_peak_memory_is_one_scratch_block(self):
        size = 500_789
        values, grads = np.zeros(size), np.ones(size)
        state, cfg = ad.AdamState(size), ad.OptimizerConfig()
        tracemalloc.start()
        try:
            ad.adam_step(values, grads, state, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * ad.ADAM_BLOCK + 64 * 1024

    def test_converges_on_scalar_quadratic(self):
        # oracle: the same recurrence on plain floats, gradient 2(x-3)
        def reference(steps, lr, b1=0.9, b2=0.999, eps=1e-8):
            x, m, v = 0.0, 0.0, 0.0
            for t in range(1, steps + 1):
                g = 2.0 * (x - 3.0)
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            return x

        values, grads, params = ad.parameter_vectors({"x": ((1,), np.zeros(1))}, rng=None)
        p = ops.graph_leaf(params["x"])
        state, cfg = ad.AdamState(values.size), ad.OptimizerConfig(lr=0.1)
        for _ in range(200):
            grads[...] = 0.0  # the graph engine adds into the view; a model's sweep writes it
            diff = ops.add(p, ops.Tensor([-3.0]))
            ops.backward(square_norm(diff))
            ad.adam_step(values, grads, state, cfg)
        assert abs(p.values[0] - 3.0) < 0.1
        assert p.values[0] == pytest.approx(reference(200, 0.1), abs=1e-9)

    def test_clip_global_norm(self):
        grads = np.array([3.0, 4.0])
        norm = ad.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert math.hypot(*grads) == pytest.approx(1.0)

    @given(
        size=st.integers(min_value=1, max_value=200_000),
        scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_clip_norm_matches_an_exact_sum(self, size, scale, seed):
        # the reference is a correctly rounded sum; n * eps bounds the vector sum's error
        grads = np.random.default_rng(seed).normal(size=size) * scale
        original = grads.copy()
        norm = ad.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(math.sqrt(math.fsum(original * original)), rel=size * 2.3e-16)
        np.testing.assert_array_equal(grads, original * (1.0 / norm) if norm > 1.0 else original)

    def test_clip_below_threshold_is_identity(self):
        grads = np.array([0.5])
        ad.clip_global_norm(grads, 5.0)
        assert grads[0] == 0.5


class TestTwoThreads:
    """Adam's blocks, shared by the calling thread and a helper; the reverse pass uses no helper."""

    ADAM_SIZE = 2 * ad.ADAM_BLOCK + 1  # three blocks

    @staticmethod
    def adam_run(size):
        rng = np.random.default_rng(size)
        values = rng.normal(size=size)
        state, cfg = ad.AdamState(size), ad.OptimizerConfig(lr=0.01)
        for _ in range(3):
            ad.adam_step(values, rng.normal(size=size), state, cfg)
        return values, state.m, state.v

    @staticmethod
    def update():
        """One update's loss and gradient vector on a model with two conv and two pyramid layers."""
        enc = EncoderConfig(conv=(ConvSpec(3, 2, 1, 2), ConvSpec(3, 2, 2, 2)), layers=2, beta=2,
                            hidden=4)
        model = Seq2SeqModel(enc, DecoderConfig(3, 4, 3), 7, input_dim=5, seed=3)
        x = np.random.default_rng(4).normal(size=(23, 5))
        loss = ops.update_gradients(model, x, [SOS, 4, 6, 5, EOS])
        return loss, model.grads

    @staticmethod
    def fail_on_the_helper(patch, name):
        """Patch `ad.<name>`, a job's work, to raise in the first job the helper runs; the error."""
        real, error = getattr(ad, name), RuntimeError("a helper job failed")
        claimed = threading.Event()

        def work(*args):
            if threading.current_thread() is threading.main_thread():
                claimed.wait(10)  # until the helper has claimed a job of its own
                return real(*args)
            claimed.set()
            raise error

        patch.setattr(ad, name, work)
        return error

    @pytest.mark.parametrize("size", [1, 7, ad.ADAM_BLOCK - 1, ad.ADAM_BLOCK + 1,
                                      2 * ad.ADAM_BLOCK - 1, 2 * ad.ADAM_BLOCK + 1, 500_789])
    def test_adam_bit_identical_on_one_thread_and_two(self, size):
        runs = []
        for on in (False, True):
            with ops.helper_thread(on):
                runs.append(self.adam_run(size))
        assert all(np.array_equal(a, b) for a, b in zip(*runs, strict=True))

    def test_helper_error_in_adam_step_propagates_and_the_next_call_works(self, monkeypatch):
        with ops.helper_thread(False):
            want = self.adam_run(self.ADAM_SIZE)
        with ops.helper_thread(True):
            with monkeypatch.context() as patch:
                error = self.fail_on_the_helper(patch, "_adam_block")
                size = self.ADAM_SIZE
                with pytest.raises(RuntimeError) as raised:
                    ad.adam_step(np.zeros(size), np.ones(size), ad.AdamState(size),
                                 ad.OptimizerConfig())
                assert raised.value is error
            got = self.adam_run(self.ADAM_SIZE)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_only_adam_step_hands_work_to_the_helper(self, monkeypatch):
        with ops.helper_thread(True) as helper:
            submitted = []
            submit = helper.submit
            monkeypatch.setattr(helper, "submit",
                                lambda *args: submitted.append(args) or submit(*args))
            self.update()  # the whole reverse pass runs on the calling thread
            assert submitted == []
            self.adam_run(self.ADAM_SIZE)
            assert submitted

    def test_each_job_runs_once_under_rapid_switching(self):
        ran = [0] * 20_000
        def work(job, worker):
            ran[job] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ops.helper_thread(True):
                for _ in range(5):
                    ad.run_shared(work, range(len(ran)))
        finally:
            sys.setswitchinterval(interval)
        assert ran == [5] * len(ran)

    def test_a_busy_helper_is_never_waited_for(self):
        with ops.helper_thread(False):
            want_adam, want_update = self.adam_run(self.ADAM_SIZE), self.update()
        release = threading.Event()
        with ops.helper_thread(True) as helper:
            busy = helper.submit(release.wait, 30)
            try:
                got_adam, got_update = self.adam_run(self.ADAM_SIZE), self.update()
                assert not busy.done()  # both calls returned while the helper was still blocked
            finally:
                release.set()
        assert all(np.array_equal(a, b) for a, b in zip(got_adam, want_adam, strict=True))
        assert got_update[0] == want_update[0] and np.array_equal(got_update[1], want_update[1])


class TestMapped:
    """`mapped` yields what `map` yields, drawing on the caller and computing on both threads."""

    @staticmethod
    def drawn(jobs, draws, fail_at=None, error=None):
        """Yield `jobs`, recording the thread of each draw; raise `error` at index `fail_at`."""
        for index, job in enumerate(jobs):
            draws.append(threading.current_thread())
            if index == fail_at:
                raise error
            yield job

    @staticmethod
    def work(job):
        return np.full(3, job).sum() * 2 + 1

    @pytest.mark.parametrize("on", [False, True])
    @given(jobs=st.lists(st.integers(-1000, 1000), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_results_equal_map_and_every_draw_is_on_the_caller(self, on, jobs):
        draws, threads = [], set()

        def fn(job):
            threads.add(threading.current_thread())
            return self.work(job)

        with ops.helper_thread(on):
            got = list(ad.mapped(fn, self.drawn(jobs, draws)))
        assert got == list(map(self.work, jobs))
        assert len(draws) == len(jobs) and all(t is threading.main_thread() for t in draws)
        assert on or threads <= {threading.main_thread()}

    @pytest.mark.parametrize("on", [False, True])
    @pytest.mark.parametrize("source", ["fn"])  # a draw error: the next test
    @given(data=st.data(), size=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_an_error_comes_out_after_the_results_before_it(self, on, source, data, size):
        fail_at = data.draw(st.integers(0, size - 1))
        error, got, draws = ValueError("job failed"), [], []

        def fn(job):
            if job == fail_at:
                raise error
            return self.work(job)

        with ops.helper_thread(on):
            with pytest.raises(ValueError) as raised:
                for result in ad.mapped(fn, self.drawn(range(size), draws)):
                    got.append(result)
        assert raised.value is error and got == list(map(self.work, range(fail_at)))
        assert len(draws) <= min(size, fail_at + 1 + ad.MAP_WINDOW)
        assert all(t is threading.main_thread() for t in draws)

    @pytest.mark.parametrize("on", [False, True])
    @given(data=st.data(), size=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_a_draw_error_comes_out_as_soon_as_it_is_drawn(self, on, data, size):
        """No result comes out after the failed draw, and the helper is left idle."""
        fail_at = data.draw(st.integers(0, size - 1))
        error, got, running, failed_after = ValueError("draw failed"), [], [], []

        def jobs():
            for job in range(size):
                if job == fail_at:
                    failed_after.append((len(got), threading.current_thread()))
                    raise error
                yield job

        def fn(job):
            running.append(job)
            time.sleep(0.0005)  # long enough that the failed draw often finds the helper busy
            running.remove(job)
            return self.work(job)

        with ops.helper_thread(on):
            with pytest.raises(ValueError) as raised:
                for result in ad.mapped(fn, jobs()):
                    got.append(result)
        assert raised.value is error and running == []
        assert failed_after == [(len(got), threading.main_thread())]
        assert got == list(map(self.work, range(len(got))))

    @pytest.mark.parametrize("where", ["caller", "helper"])
    @given(size=st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_an_error_on_either_thread_comes_out_in_order(self, where, size):
        # the first job run on `where`'s thread raises; a job on the other thread waits
        # until that one has started, so each thread runs a job
        error, started, failed, got = RuntimeError("job failed"), threading.Event(), [], []

        def fn(job):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (where == "caller") and not started.is_set():
                started.set()
                failed.append(job)
                raise error
            started.wait(10)
            return self.work(job)

        with ops.helper_thread(True):
            with pytest.raises(RuntimeError) as raised:
                for result in ad.mapped(fn, range(size)):
                    got.append(result)
        assert raised.value is error and len(failed) == 1
        assert got == list(map(self.work, range(failed[0])))

    @pytest.mark.parametrize("on", [False, True])
    @given(data=st.data(), size=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_closing_early_leaves_the_helper_idle(self, on, data, size):
        taken = data.draw(st.integers(0, size))
        running, draws = [], []

        def slow(job):
            running.append(job)
            time.sleep(0.001)  # long enough that a close often finds the helper busy
            running.remove(job)
            return job

        with ops.helper_thread(False):
            want = TestTwoThreads.adam_run(TestTwoThreads.ADAM_SIZE)
        with ops.helper_thread(on):
            results = ad.mapped(slow, self.drawn(range(size), draws))
            assert [next(results) for _ in range(taken)] == list(range(taken))
            results.close()
            assert running == [] and len(draws) <= taken + ad.MAP_WINDOW
            got = TestTwoThreads.adam_run(TestTwoThreads.ADAM_SIZE)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_each_job_runs_once_under_rapid_thread_switches(self):
        # a job claimed by both threads, or by neither, would break the count or the results
        computed, switch = [], sys.getswitchinterval()

        def fn(job):
            computed.append(job)
            return self.work(job)

        sys.setswitchinterval(1e-6)
        try:
            with ops.helper_thread(True):
                for _ in range(20):
                    computed.clear()
                    assert list(ad.mapped(fn, range(50))) == list(map(self.work, range(50)))
                    assert sorted(computed) == list(range(50))
        finally:
            sys.setswitchinterval(switch)

    def test_one_usable_core_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(ad, "_helper", functools.cache(ad._helper.__wrapped__))
        before = threading.active_count()
        assert list(ad.mapped(self.work, range(5))) == list(map(self.work, range(5)))
        assert ad._helper() is None and threading.active_count() == before
