"""Reverse-mode automatic differentiation over dense float64 arrays.

Every trainable part of the pipeline (conv filter banks, LSTM gates,
attention projections, embeddings) lives in `Tensor` leaves.  Operations
record their parents and a backward closure; `backward` orders the
subgraph reachable from the loss topologically and replays it in reverse,
summing adjoints where paths share subexpressions.

The graph is rebuilt on every forward pass (define-by-run).  Recurrences
are whole-sequence ops (`lstm`), so a graph holds a few nodes per layer,
not a few per timestep.  Everything is float64 so the finite-difference
tests can use tight tolerances.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """Dense n-d array with an optional adjoint.

    `values` is always a row-major float64 ndarray.  `grad` stays None
    ("absent") until a backward pass reaches this tensor; it then holds the
    accumulated adjoint with the same shape as `values`.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad=False, _parents=(), _backprop=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backprop = _backprop

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self):
        if self.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def sum(self):
        return sum_all(self)

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape):
    return Tensor(np.zeros(shape))


def backward(loss):
    """Propagate adjoints from a scalar loss to every reachable tensor.

    Each call seeds d(loss)/d(loss) = 1 and adds this pass's adjoints into
    `.grad`, so repeated calls without `zero_grad` accumulate.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    # iterative post-order DFS: every node's parents precede it in `order`
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        # constants cannot contribute adjoints; skip their ancestry
        if node.requires_grad:
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    adjoints = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = adjoints.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.accumulate_grad(g)
        if node._backprop is not None:
            node._backprop(g, adjoints)


def _push(adjoints, tensor, contribution):
    # never mutate a stored array in place; contributions may be shared views
    key = id(tensor)
    held = adjoints.get(key)
    adjoints[key] = contribution if held is None else held + contribution


def _unbroadcast(g, shape):
    """Sum `g` down to `shape`, reversing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not agree")
    out_values = a.values @ b.values
    backprop = None
    if a.requires_grad or b.requires_grad:
        def backprop(g, adjoints):
            if a.requires_grad:
                _push(adjoints, a, g @ b.values.T)
            if b.requires_grad:
                _push(adjoints, b, a.values.T @ g)
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def add(a, b):
    try:
        out_values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} do not broadcast") from None
    backprop = None
    if a.requires_grad or b.requires_grad:
        def backprop(g, adjoints):
            if a.requires_grad:
                _push(adjoints, a, _unbroadcast(g, a.shape))
            if b.requires_grad:
                _push(adjoints, b, _unbroadcast(g, b.shape))
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def mul(a, b):
    try:
        out_values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul shapes {a.shape} and {b.shape} do not broadcast") from None
    backprop = None
    if a.requires_grad or b.requires_grad:
        def backprop(g, adjoints):
            if a.requires_grad:
                _push(adjoints, a, _unbroadcast(g * b.values, a.shape))
            if b.requires_grad:
                _push(adjoints, b, _unbroadcast(g * a.values, b.shape))
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def tanh(a):
    out_values = np.tanh(a.values)
    backprop = None
    if a.requires_grad:
        def backprop(g, adjoints):
            _push(adjoints, a, g * (1.0 - out_values * out_values))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def relu(a):
    out_values = np.maximum(a.values, 0.0)
    backprop = None
    if a.requires_grad:
        def backprop(g, adjoints):
            _push(adjoints, a, g * (a.values > 0.0))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def concat(parts, axis=-1):
    if not parts:
        raise ContractError("concat needs at least one operand")
    ndim = parts[0].values.ndim
    ax = axis % ndim if ndim else 0
    ref = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != ndim or any(
            i != ax and other[i] != ref[i] for i in range(ndim)
        ):
            raise ShapeError(
                f"concat operands disagree off axis {ax}: {parts[0].shape} vs {p.shape}"
            )
    out_values = np.concatenate([p.values for p in parts], axis=ax)
    backprop = None
    if any(p.requires_grad for p in parts):
        sizes = [p.shape[ax] for p in parts]
        offsets = np.cumsum([0] + sizes)
        def backprop(g, adjoints):
            for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    index = [slice(None)] * ndim
                    index[ax] = slice(start, stop)
                    _push(adjoints, p, g[tuple(index)])
    return Tensor(out_values, _parents=tuple(parts), _backprop=backprop)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    dim = a.shape[axis]
    if not (0 <= start and start + length <= dim and length >= 1):
        raise ShapeError(f"narrow [{start}:{start + length}] outside axis of extent {dim}")
    index = [slice(None)] * a.values.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    backprop = None
    if a.requires_grad:
        def backprop(g, adjoints):
            full = np.zeros_like(a.values)
            full[index] = g
            _push(adjoints, a, full)
    return Tensor(a.values[index], _parents=(a,), _backprop=backprop)


def reshape(a, shape):
    out_values = a.values.reshape(shape)
    backprop = None
    if a.requires_grad:
        def backprop(g, adjoints):
            _push(adjoints, a, g.reshape(a.shape))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def sum_all(a):
    backprop = None
    if a.requires_grad:
        def backprop(g, adjoints):
            _push(adjoints, a, np.full_like(a.values, float(g)))
    return Tensor(a.values.sum(), _parents=(a,), _backprop=backprop)


def softmax(a):
    """Softmax along the last axis, shift-stabilized."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_values = e / e.sum(axis=-1, keepdims=True)
    backprop = None
    if a.requires_grad:
        def backprop(g, adjoints):
            inner = (g * out_values).sum(axis=-1, keepdims=True)
            _push(adjoints, a, out_values * (g - inner))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def log_softmax_values(x):
    """Numerically stable log-softmax of a plain ndarray (no graph)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits, targets):
    """Mean negative log-softmax of the target entries.

    logits: [n, V]; targets: n integer ids.  Gradient of the loss w.r.t.
    the logits is (softmax - onehot) / n.
    """
    if logits.values.ndim != 2:
        raise ShapeError(f"cross entropy expects [n, V] logits, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, vocab = logits.shape
    if targets.ndim != 1 or targets.size != n:
        raise ShapeError(f"expected {n} targets, got shape {targets.shape}")
    if n < 1:
        raise ContractError("cross entropy needs at least one row")
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError(
            f"target id out of range [0, {vocab}): {targets[(targets < 0) | (targets >= vocab)][0]}"
        )
    logp = log_softmax_values(logits.values)
    rows = np.arange(n)
    loss = -logp[rows, targets].mean()
    backprop = None
    if logits.requires_grad:
        def backprop(g, adjoints):
            grad = np.exp(logp)
            grad[rows, targets] -= 1.0
            _push(adjoints, logits, grad * (float(g) / n))
    return Tensor(loss, _parents=(logits,), _backprop=backprop)


def conv1d(x, w, b, stride=1, dilation=1):
    """Causal 1-d convolution over time with dilation and stride.

    x: [T, C_in] feature rows, w: [K, C_in, C_out], b: [C_out].  The input
    is zero-padded on the left by (K-1)*dilation so out[t] depends only on
    x[<= t*stride]; output length is ceil(T / stride).
    """
    if x.values.ndim != 2 or w.values.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d shapes {x.shape} and {w.shape} do not agree")
    T, _ = x.shape
    K, _, c_out = w.shape
    if T < 1:
        raise ContractError("conv1d needs at least one input row")
    pad = (K - 1) * dilation
    padded = np.vstack([np.zeros((pad, x.shape[1])), x.values]) if pad else x.values
    t_out = -(-T // stride)
    taps = [np.arange(t_out) * stride + k * dilation for k in range(K)]
    out_values = np.tile(b.values, (t_out, 1))
    for k in range(K):
        out_values += padded[taps[k]] @ w.values[k]
    backprop = None
    if x.requires_grad or w.requires_grad or b.requires_grad:
        def backprop(g, adjoints):
            if b.requires_grad:
                _push(adjoints, b, g.sum(axis=0))
            if w.requires_grad:
                dw = np.empty_like(w.values)
                for k in range(K):
                    dw[k] = padded[taps[k]].T @ g
                _push(adjoints, w, dw)
            if x.requires_grad:
                dpad = np.zeros_like(padded)
                for k in range(K):
                    np.add.at(dpad, taps[k], g @ w.values[k].T)
                _push(adjoints, x, dpad[pad:])
    return Tensor(out_values, _parents=(x, w, b), _backprop=backprop)


def lstm(x, h0, c0, wx, wh, b):
    """LSTM over a whole sequence; gate order i, f, g, o.

    x: [T, D] input rows, h0 and c0: [1, H] initial state, wx: [D, 4H],
    wh: [H, 4H], b: [4H].  Returns [T, 2H] whose row t is h_t | c_t.  The
    input projection of all steps is one matmul; the backward pass is one
    sweep of backpropagation through time, and the weight gradients are
    single matmuls over all steps.
    """
    steps, n = x.shape[0], wh.shape[-1] // 4
    if not (x.values.ndim == 2 and wx.shape == (x.shape[1], 4 * n) and wh.shape == (n, 4 * n)
            and b.shape == (4 * n,) and h0.shape == c0.shape == (1, n)):
        raise ShapeError(f"lstm shapes disagree: x {x.shape}, h0 {h0.shape}, c0 {c0.shape}, "
                         f"wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh serves all four gates:
    # gate = scale * tanh(scale * z) + 1 - scale, with scale 1/2 for i, f, o
    # and 1 for g; it saturates without overflow at any magnitude
    scale = np.array([[0.5], [0.5], [1.0], [0.5]])
    zx = (x.values @ wx.values + b.values).reshape(steps, 4, n)
    hs = np.empty((steps + 1, n))
    cs = np.empty((steps + 1, n))
    hs[0], cs[0] = h0.values[0], c0.values[0]
    gates = np.empty((steps, 4, n))
    tanh_c = np.empty((steps, n))
    for t in range(steps):
        z = zx[t] + (hs[t] @ wh.values).reshape(4, n)
        gates[t] = scale * np.tanh(scale * z) + (1.0 - scale)
        i, f, g, o = gates[t]
        cs[t + 1] = f * cs[t] + i * g
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = o * tanh_c[t]
    out_values = np.concatenate([hs[1:], cs[1:]], axis=1)
    parents = (x, h0, c0, wx, wh, b)
    backprop = None
    if any(p.requires_grad for p in parents):
        def backprop(g_out, adjoints):
            # d gate / d z = scale^2 (1 - tanh^2): sigmoid' for i, f, o, tanh' for g
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
                dh = dz[t].reshape(-1) @ wh.values.T
            dz = dz.reshape(steps, 4 * n)
            if x.requires_grad:
                _push(adjoints, x, dz @ wx.values.T)
            if h0.requires_grad:
                _push(adjoints, h0, dh[None, :])
            if c0.requires_grad:
                _push(adjoints, c0, dc[None, :])
            if wx.requires_grad:
                _push(adjoints, wx, x.values.T @ dz)
            if wh.requires_grad:
                _push(adjoints, wh, hs[:-1].T @ dz)
            if b.requires_grad:
                _push(adjoints, b, dz.sum(axis=0))
    return Tensor(out_values, _parents=parents, _backprop=backprop)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment accumulators plus hyperparameters for Adam.

    One (m, v) pair per parameter, index-aligned with the parameter list
    the state was built for.  `step` increases by exactly one per update.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]


def adam_step(params, state):
    """One bias-corrected Adam update; zeroes the gradients afterwards."""
    if len(params) != len(state.m):
        raise ContractError(
            f"optimizer state built for {len(state.m)} parameters, got {len(params)}"
        )
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"parameter {i} has no gradient; run backward first")
        if p.grad.shape != state.m[i].shape:
            raise ContractError(f"parameter {i} changed shape under the optimizer")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.values -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.grad = None


def clip_global_norm(params, max_norm):
    """Scale all gradients so their joint L2 norm is at most `max_norm`.

    Returns the pre-clip norm.  Parameters without a gradient are skipped.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total ** 0.5
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def uniform_init(rng, shape, fan_in=None):
    """Parameter leaf drawn from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    if fan_in is None:
        fan_in = shape[0]
    bound = 1.0 / float(fan_in) ** 0.5
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
