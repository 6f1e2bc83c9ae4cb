import math

import numpy as np
import pytest

from icdscribe import autodiff as ad
from icdscribe.errors import ContractError, ShapeError

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

    def test_sigmoid_symmetry(self):
        assert ad.sigmoid(ad.Tensor([0.0])).values[0] == 0.5

    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(ad.Tensor([-710.0, 710.0])).values
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == 1.0

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

    def test_tape_topological_order(self):
        x = ad.Tensor([1.0], requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.sum_all(ad.add(y, x))
        tape = ad.Tape.trace(loss)
        position = {id(node): i for i, node in enumerate(tape.records)}
        for node in tape.records:
            for parent in node._parents:
                if id(parent) in position:
                    assert position[id(parent)] < position[id(node)]

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


OPS_UNDER_TEST = ["matmul", "add", "mul", "tanh", "sigmoid", "relu", "concat",
                  "softmax", "narrow", "reshape", "cross_entropy", "conv1d"]


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op against the central-difference oracle."""

    @pytest.mark.parametrize("op", OPS_UNDER_TEST)
    @pytest.mark.parametrize("trial", range(3))
    def test_op_gradient(self, op, trial):
        rng = np.random.default_rng(abs(hash((op, trial))) % (2**32))
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
        elif op in ("tanh", "sigmoid", "relu"):
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
