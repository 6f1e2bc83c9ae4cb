import math

import numpy as np
import pytest

from icdscribe import autodiff as ad
from icdscribe.errors import ContractError, ShapeError
from icdscribe.seeds import stable_seed

from helpers import assert_grad_close, finite_difference_grad


def scalar_loss(t):
    return ad.sum_all(t)


class TestForwardValues:
    def test_matmul_identity(self):
        eye = ad.Tensor(np.eye(2))
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(eye, m).values, m.values)

    def test_matmul_inner_product(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).values, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)

    def test_tanh_odd(self):
        assert ad.tanh(ad.Tensor([0.0])).values[0] == 0.0

    def test_lstm_extreme_gates_stay_finite(self):
        # pre-activations of +-710 overflow a naive exp; gates must saturate
        # to exactly 0 or 1 and the state stays finite
        n = 2
        wx = ad.Tensor(np.zeros((1, 4 * n)))
        wh = ad.Tensor(np.zeros((n, 4 * n)))
        h0 = ad.Tensor(np.zeros((1, n)))
        c0 = ad.Tensor(np.full((1, n), 3.0))
        # i and g open, f shut, o open: c = 1, h = tanh(1)
        b = ad.Tensor(np.repeat([710.0, -710.0, 710.0, 710.0], n))
        out = ad.lstm(ad.Tensor(np.zeros((1, 1))), h0, c0, wx, wh, b).values
        np.testing.assert_array_equal(out, [[math.tanh(1.0)] * n + [1.0] * n])
        # i shut, f open: the cell carries c0 through unchanged
        b = ad.Tensor(np.repeat([-710.0, 710.0, -710.0, 710.0], n))
        out = ad.lstm(ad.Tensor(np.zeros((3, 1))), h0, c0, wx, wh, b).values
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
        out = ad.lstm(*(ad.Tensor(v) for v in (x, h[None, :], c[None, :], wx, wh, b))).values
        for t in range(steps):
            z = x[t] @ wx + h @ wh + b
            i, f, o = sigmoid(z[:n]), sigmoid(z[n : 2 * n]), sigmoid(z[3 * n :])
            c = f * c + i * np.tanh(z[2 * n : 3 * n])
            h = o * np.tanh(c)
            np.testing.assert_allclose(out[t], np.concatenate([h, c]), rtol=0, atol=1e-12)

    def test_lstm_shape_error_names_shapes(self):
        n = 2
        with pytest.raises(ShapeError, match=r"wx \(3, 8\)"):
            ad.lstm(ad.Tensor(np.zeros((4, 2))), ad.zeros((1, n)), ad.zeros((1, n)),
                    ad.Tensor(np.zeros((3, 4 * n))), ad.Tensor(np.zeros((n, 4 * n))),
                    ad.Tensor(np.zeros(4 * n)))

    def test_concat_last_axis(self):
        out = ad.concat([ad.Tensor([1.0, 2.0]), ad.Tensor([3.0])])
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((3, 3)))], axis=1)

    def test_add_broadcast_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))))

    def test_cross_entropy_uniform(self):
        logits = ad.Tensor(np.zeros((1, 4)))
        loss = ad.softmax_cross_entropy(logits, [2])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_cross_entropy_peaked(self):
        # direct evaluation: -log softmax([10,0,0])[0] = log(1 + 2 e^-10)
        loss = ad.softmax_cross_entropy(ad.Tensor([[10.0, 0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(math.log1p(2.0 * math.exp(-10.0)), abs=1e-12)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros((1, 3))), [3])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(6, 9)) * 30.0)
        out = ad.softmax(x).values
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out >= 0.0)

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            a = ad.Tensor(rng.normal(size=(4, 4)))
            b = ad.Tensor(rng.normal(size=(4, 4)))
            return ad.softmax(ad.tanh(ad.matmul(a, b))).values

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestBackward:
    def test_sum_gradient(self):
        x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = ad.Tensor([2.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_shared_subexpression_sums_adjoints(self):
        # loss = x*x + x has two paths into x; d/dx = 2x + 1 by hand
        x = ad.Tensor([3.0, -1.0], requires_grad=True)
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.values + 1.0, atol=1e-12)

    def test_repeated_backward_accumulates(self):
        x = ad.Tensor([1.0, 4.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.values, atol=1e-12)

    def test_backward_rejects_non_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(x, x))

    def test_deep_chain_does_not_recurse(self):
        # the graph walk is iterative: a chain far deeper than the
        # interpreter recursion limit still gets every adjoint
        x = ad.Tensor([1.0], requires_grad=True)
        node = x
        for _ in range(5000):
            node = ad.add(node, x)
        ad.backward(ad.sum_all(node))
        np.testing.assert_array_equal(x.grad, [5001.0])

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w1 = ad.Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True)
        w2 = ad.Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
        x = ad.Tensor(rng.normal(size=(2, 5)))
        targets = [0, 2]

        def forward():
            hidden = ad.tanh(ad.matmul(x, w1))
            return ad.softmax_cross_entropy(ad.matmul(hidden, w2), targets).item()

        loss = ad.softmax_cross_entropy(ad.matmul(ad.tanh(ad.matmul(x, w1)), w2), targets)
        ad.backward(loss)
        for p in (w1, w2):
            assert_grad_close(p.grad, finite_difference_grad(forward, p.values), rtol=1e-4)


OPS_UNDER_TEST = ["matmul", "add", "mul", "tanh", "relu", "concat",
                  "softmax", "narrow", "reshape", "cross_entropy", "conv1d", "lstm"]


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op against the central-difference oracle."""

    @pytest.mark.parametrize("op", OPS_UNDER_TEST)
    @pytest.mark.parametrize("trial", range(3))
    def test_op_gradient(self, op, trial):
        rng = np.random.default_rng(stable_seed("op-gradient", op, trial))
        m, k, n = rng.integers(1, 9, size=3)
        if op == "matmul":
            a = ad.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            b = ad.Tensor(rng.normal(size=(k, n)), requires_grad=True)
            build = lambda: ad.matmul(a, b)
            leaves = [a, b]
        elif op in ("add", "mul"):
            fn = getattr(ad, op)
            a = ad.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            b = ad.Tensor(rng.normal(size=(1, n)), requires_grad=True)  # broadcast path
            build = lambda: fn(a, b)
            leaves = [a, b]
        elif op in ("tanh", "relu"):
            fn = getattr(ad, op)
            a = ad.Tensor(rng.normal(size=(m, n)) + 0.05, requires_grad=True)
            build = lambda: fn(a)
            leaves = [a]
        elif op == "concat":
            a = ad.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            b = ad.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            build = lambda: ad.concat([a, b], axis=-1)
            leaves = [a, b]
        elif op == "softmax":
            a = ad.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            weights = ad.Tensor(rng.normal(size=(int(m), int(n))))
            build = lambda: ad.mul(ad.softmax(a), weights)  # break symmetry
            leaves = [a]
        elif op == "narrow":
            a = ad.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            start = int(rng.integers(0, n))
            length = int(rng.integers(1, n - start + 1))
            build = lambda: ad.narrow(a, 1, start, length)
            leaves = [a]
        elif op == "reshape":
            a = ad.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            build = lambda: ad.reshape(a, (int(n), int(m)))
            leaves = [a]
        elif op == "cross_entropy":
            a = ad.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            targets = rng.integers(0, n, size=m)
            build = lambda: ad.softmax_cross_entropy(a, targets)
            leaves = [a]
        elif op == "conv1d":
            kernel = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            dilation = int(rng.integers(1, 3))
            c_out = int(rng.integers(1, 5))
            x = ad.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            w = ad.Tensor(rng.normal(size=(kernel, int(k), c_out)), requires_grad=True)
            bias = ad.Tensor(rng.normal(size=c_out), requires_grad=True)
            build = lambda: ad.conv1d(x, w, bias, stride=stride, dilation=dilation)
            leaves = [x, w, bias]
        elif op == "lstm":
            # m steps of width k, n hidden units; h0 and c0 are leaves too
            x = ad.Tensor(rng.normal(size=(m, k)), requires_grad=True)
            h0 = ad.Tensor(rng.normal(size=(1, n)), requires_grad=True)
            c0 = ad.Tensor(rng.normal(size=(1, n)), requires_grad=True)
            wx = ad.Tensor(rng.normal(size=(k, 4 * n)), requires_grad=True)
            wh = ad.Tensor(rng.normal(size=(n, 4 * n)), requires_grad=True)
            bias = ad.Tensor(rng.normal(size=4 * n), requires_grad=True)
            build = lambda: ad.lstm(x, h0, c0, wx, wh, bias)
            leaves = [x, h0, c0, wx, wh, bias]
        else:
            raise AssertionError(op)

        loss = build()
        if loss.size != 1:
            loss = ad.sum_all(ad.tanh(loss))
        ad.backward(loss)

        def forward():
            out = build()
            if out.size != 1:
                out = ad.sum_all(ad.tanh(out))
            return out.item()

        for leaf in leaves:
            assert_grad_close(leaf.grad, finite_difference_grad(forward, leaf.values), rtol=1e-4)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = ad.Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        state = ad.AdamState([p], lr=0.1)
        ad.adam_step([p], state)
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_step_count_increments_by_one(self):
        p = ad.Tensor([0.0], requires_grad=True)
        state = ad.AdamState([p])
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            ad.adam_step([p], state)
            assert state.step == expected

    def test_missing_grad_is_a_contract_error(self):
        p = ad.Tensor([0.0], requires_grad=True)
        state = ad.AdamState([p])
        with pytest.raises(ContractError):
            ad.adam_step([p], state)

    def test_grads_zeroed_after_step(self):
        p = ad.Tensor([0.0], requires_grad=True)
        state = ad.AdamState([p])
        p.grad = np.ones(1)
        ad.adam_step([p], state)
        assert p.grad is None

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

        p = ad.Tensor([0.0], requires_grad=True)
        state = ad.AdamState([p], lr=0.1)
        for _ in range(200):
            diff = ad.add(p, ad.Tensor([-3.0]))
            ad.backward(ad.sum_all(ad.mul(diff, diff)))
            ad.adam_step([p], state)
        assert abs(p.values[0] - 3.0) < 0.1
        assert p.values[0] == pytest.approx(reference(200, 0.1), abs=1e-9)

    def test_clip_global_norm(self):
        p1 = ad.Tensor([3.0], requires_grad=True)
        p2 = ad.Tensor([4.0], requires_grad=True)
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        norm = ad.clip_global_norm([p1, p2], 1.0)
        assert norm == pytest.approx(5.0)
        clipped = math.hypot(p1.grad[0], p2.grad[0])
        assert clipped == pytest.approx(1.0)

    def test_clip_below_threshold_is_identity(self):
        p = ad.Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        ad.clip_global_norm([p], 5.0)
        assert p.grad[0] == 0.5
