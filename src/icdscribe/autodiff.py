"""Reverse-mode automatic differentiation over dense float64 arrays.

Every trainable part of the pipeline (conv filter banks, LSTM gates,
attention projections, embeddings) lives in `Tensor` leaves.  An
operation whose output depends on a leaf that requires a gradient records
its parents and a backward closure, except inside `no_grad()` (decoding),
where nothing is recorded.  `backward` orders the subgraph reachable from
the loss topologically and replays it in reverse, summing adjoints where
paths share subexpressions.  A leaf's dense adjoints go straight into its
`grad`; a weight's `x.T @ g` terms (one per decoder step) are held and
summed by one stacked matmul once backward reaches the leaf.

A model's parameter leaves are views into one flat float64 vector, in
registration order (`parameter_vectors`), and their gradients views into a second
vector of the same length.  Gradient clipping and Adam work on these
vectors, and a checkpoint stores them as they lie in memory.

The graph is rebuilt on every forward pass (define-by-run).  Recurrences
are whole-sequence ops (`lstm`), so a graph holds a few nodes per layer,
not a few per timestep.  Everything is float64 so the finite-difference
tests can use tight tolerances.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """Dense n-d array with an optional adjoint.

    `values` is always a row-major float64 ndarray.  Only leaves hold a
    `grad`: the adjoint that backward passes added in, shaped like `values`,
    with all of a pass's product terms as one stacked matmul.  It is None
    until a backward pass reaches the leaf, unless the leaf comes from
    `parameter_vectors`: its grad is then a view into the gradient vector.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad=False, _parents=(), _backprop=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        # an op output records its graph only outside no_grad() and when a parent needs a gradient
        tracked = _recording and any(p.requires_grad for p in _parents)
        self.requires_grad = bool(requires_grad) or tracked
        self._parents = _parents if tracked else ()
        self._backprop = _backprop if tracked else None

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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_recording = True  # False inside no_grad(); one flag for the whole process, not per thread


@contextmanager
def no_grad():
    """A block whose op outputs keep no parents and no backprop closure (inference)."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def zeros(shape):
    return Tensor(np.zeros(shape))


def backward(loss):
    """Propagate adjoints from a scalar loss to every reachable leaf.

    Each call seeds d(loss)/d(loss) = 1 and adds this pass's adjoint into
    the `grad` of each leaf that requires one, so repeated calls
    accumulate.  A leaf's `left.T @ right` terms are summed as one stacked
    matmul after all its consumers.  Intermediate tensors keep no `grad`.
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
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    adjoints = {}
    if loss.requires_grad:
        _push(adjoints, loss, np.ones_like(loss.values))
    for node in reversed(order):
        g = adjoints.pop(id(node), None)
        if g is None:
            continue
        if node._backprop is not None:
            node._backprop(g, adjoints)
        else:  # a leaf, after all its consumers: its held product factors, stacked
            lefts, rights = zip(*g)
            node.accumulate_grad(np.concatenate(lefts).T @ np.concatenate(rights))


def _push(adjoints, tensor, contribution, right=None):
    """Add `contribution`, or `contribution.T @ right`; a leaf keeps the factors for backward."""
    key = id(tensor)
    if tensor._backprop is None and right is not None:
        adjoints.setdefault(key, []).append((contribution, right))
    elif tensor._backprop is None:
        tensor.accumulate_grad(contribution)
    else:
        contribution = contribution if right is None else contribution.T @ right
        held = adjoints.get(key)  # never mutated in place: contributions may be shared views
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
    def backprop(g, adjoints):
        if a.requires_grad:
            _push(adjoints, a, g @ b.values.T)
        if b.requires_grad:
            _push(adjoints, b, a.values, g)
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def add(a, b):
    try:
        out_values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} do not broadcast") from None
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
    def backprop(g, adjoints):
        if a.requires_grad:
            _push(adjoints, a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _push(adjoints, b, _unbroadcast(g * a.values, b.shape))
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def tanh(a):
    out_values = np.tanh(a.values)
    def backprop(g, adjoints):
        _push(adjoints, a, g * (1.0 - out_values * out_values))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def relu(a):
    out_values = np.maximum(a.values, 0.0)
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
    def backprop(g, adjoints):
        offsets = np.cumsum([0] + [p.shape[ax] for p in parts])
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
    def backprop(g, adjoints):
        full = np.zeros_like(a.values)
        full[index] = g
        _push(adjoints, a, full)
    return Tensor(a.values[index], _parents=(a,), _backprop=backprop)


def reshape(a, shape):
    out_values = a.values.reshape(shape)
    def backprop(g, adjoints):
        _push(adjoints, a, g.reshape(a.shape))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def sum_all(a):
    def backprop(g, adjoints):
        _push(adjoints, a, np.full_like(a.values, float(g)))
    return Tensor(a.values.sum(), _parents=(a,), _backprop=backprop)


def softmax(a):
    """Softmax along the last axis, shift-stabilized."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_values = e / e.sum(axis=-1, keepdims=True)
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
            _push(adjoints, wx, x.values, dz)
        if wh.requires_grad:
            _push(adjoints, wh, hs[:-1], dz)
        if b.requires_grad:
            _push(adjoints, b, dz.sum(axis=0))
    return Tensor(out_values, _parents=parents, _backprop=backprop)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def parameter_vectors(layout, rng, values=None):
    """Parameter leaves that are views into one flat vector, plus a gradient twin.

    `layout` maps each name, in order, to (shape, init): a fan-in, for
    entries drawn uniform in +-1/sqrt(fan_in) straight into the vector, or
    an array of initial values.  Given stored `values` (such as a
    checkpoint's), the vector is a copy of them and nothing is drawn.
    Returns (values, grads, {name: Tensor}); no parameter is ever held
    twice, and the zero gradient vector stays untouched until a backward
    pass writes to it.
    """
    sizes = [math.prod(shape) for shape, _ in layout.values()]
    drawn = values is None
    if not drawn and len(values) != sum(sizes):
        raise ContractError(f"{len(values)} stored values for a layout of {sum(sizes)}")
    values = np.zeros(sum(sizes)) if drawn else np.array(values, dtype=np.float64)
    grads = np.zeros(sum(sizes))
    tensors, start = {}, 0
    for (name, (shape, init)), size in zip(layout.items(), sizes):
        part = slice(start, start + size)
        t = tensors[name] = Tensor(values[part].reshape(shape), requires_grad=True)
        t.grad = grads[part].reshape(shape)
        if drawn and isinstance(init, np.ndarray):
            t.values[...] = init
        elif drawn:
            # bit for bit what rng.uniform(-bound, bound, shape) draws: -bound + 2 bound u
            bound = 1.0 / float(init) ** 0.5
            rng.random(out=t.values)
            t.values *= 2.0 * bound
            t.values -= bound
        start += size
    return values, grads, tensors


class AdamState:
    """First/second moment vectors plus hyperparameters for Adam.

    `m` and `v` are flat, element-aligned with the parameter vector the
    state was built for.  `step` increases by exactly one per update.
    """

    def __init__(self, size, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)


ADAM_BLOCK = 1 << 16  # elements per block: keeps Adam's temporaries small


def adam_step(values, grads, state):
    """One bias-corrected Adam update of flat `values`; zeroes `grads` afterwards."""
    if not len(values) == len(grads) == len(state.m):
        raise ContractError(f"optimizer state covers {len(state.m)} values, got {len(values)} "
                            f"values and {len(grads)} gradients")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for start in range(0, len(values), ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, m, v = grads[block], state.m[block], state.v[block]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        values[block] -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        g[...] = 0.0


def clip_global_norm(grads, max_norm):
    """Scale the flat `grads` in place so their L2 norm is at most `max_norm`.

    Returns the pre-clip norm.  The sum of squares does not go through
    BLAS, so it does not depend on the BLAS thread count.
    """
    norm = float(np.einsum("i,i->", grads, grads)) ** 0.5
    if norm > max_norm > 0:
        grads *= max_norm / norm
    return norm
