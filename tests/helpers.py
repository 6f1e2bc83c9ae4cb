"""Oracles shared across test modules.

Kept independent of the code paths they check: the finite-difference
gradient only calls the forward pass, and the edit-distance oracle is a
plain memoized recursion with no alignment bookkeeping.

The model trains without a graph: its forward pass returns a sweep that
adds each gradient straight into the parameter gradient vector.  The
reference it is checked against is a define-by-run graph engine kept here:
`Tensor`, `backward` and the ops `matmul`, `add`, `tanh`, `relu`,
`concat`, `narrow`, `reshape`, `softmax`, `conv1d`, `lstm` and
`softmax_cross_entropy`, one node each.  They build the per-op graphs of
the encoder and decoder (`graph_encode`, `graph_attention_scores`,
`graph_attend`, `graph_decode_step`, `graph_teacher_forced`) over leaves
that wrap the model's parameters (`graph_parameters`).  `conv1d` and
`lstm` run the package's own array kernels, and the loss node runs
`autodiff.backward`.
"""

import contextlib
import dataclasses
import struct
import typing
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from icdscribe import autodiff as ad
from icdscribe.audio import Waveform, write_wav
from icdscribe.errors import ContractError
from icdscribe.metrics import build_report


# ---------------------------------------------------------------------------
# the graph engine
# ---------------------------------------------------------------------------

class Tensor:
    """Dense n-d array with an optional adjoint.

    `values` is always a row-major float64 ndarray.  Only leaves hold a
    `grad`: the sum of the adjoints that backward passes added in, shaped
    like `values`.  It is None until a backward pass reaches the leaf, unless
    the leaf wraps a model parameter (`graph_parameters`): its grad is then
    the parameter's view into the gradient vector.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad=False, _parents=(), _backprop=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        # an op output records its graph only when a parent needs a gradient
        tracked = any(p.requires_grad for p in _parents)
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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def backward(loss):
    """Propagate adjoints from a scalar loss to every reachable leaf.

    Each call seeds d(loss)/d(loss) = 1 and adds this pass's adjoint into
    the `grad` of each leaf that requires one, so repeated calls
    accumulate.  A tensor's adjoint is formed once, when backward reaches
    it: its dense terms summed in push order, plus its product terms as one
    matmul, stacked when there are several.  Intermediate tensors keep no
    `grad`.
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
    terms = {}
    if loss.requires_grad:
        _push(terms, loss, np.ones_like(loss.values))
    for node in reversed(order):
        held = terms.pop(id(node), None)
        if held is None:
            continue
        g = None
        for contribution, right in held:  # dense terms; never added into in place, they may be views
            if right is None:
                g = contribution if g is None else g + contribution
        if products := [term for term in held if term[1] is not None]:
            # a lone product's factors are used as they are, not copied into a stack
            left, right = products[0] if len(products) == 1 else map(np.concatenate, zip(*products))
            stacked = left.T @ right
            g = stacked if g is None else g + stacked
        if node._backprop is not None:
            node._backprop(g, terms)
        elif node.grad is None:
            node.grad = np.array(g)  # a copy: g may be a view that another tensor holds
        else:
            node.grad += g


def _push(terms, tensor, contribution, right=None):
    """Hand `tensor` an adjoint term: `contribution`, or the factors of `contribution.T @ right`."""
    terms.setdefault(id(tensor), []).append((contribution, right))


_LEAVES = weakref.WeakKeyDictionary()


def graph_parameters(model):
    """The model's graph leaves, one per parameter, in registration order.

    A leaf's values are the parameter's value view and its grad the
    parameter's gradient view, so `backward` adds into `model.grads`.  Every
    call for one model returns the same leaves: a weight used at every step
    is one leaf, whose product terms backward stacks.
    """
    if model not in _LEAVES:
        _LEAVES[model] = {name: graph_leaf(p) for name, p in model.named_parameters().items()}
    return _LEAVES[model]


def graph_leaf(param):
    """A leaf over an `autodiff.Tensor` parameter: its value view, adding into its gradient view."""
    leaf = Tensor(param.values, requires_grad=True)
    leaf.grad = param.grad
    return leaf


# ---------------------------------------------------------------------------
# graph ops: one autodiff node each
# ---------------------------------------------------------------------------

def zeros(shape):
    return Tensor(np.zeros(shape))


def _unbroadcast(g, shape):
    """Sum `g` down to `shape`, reversing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a, b):
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shapes {a.shape} and {b.shape} do not agree")
    out_values = a.values @ b.values
    def backprop(g, terms):
        if a.requires_grad:
            _push(terms, a, g @ b.values.T)
        if b.requires_grad:
            _push(terms, b, a.values, g)
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def add(a, b):
    try:
        out_values = a.values + b.values
    except ValueError:
        raise ContractError(f"add shapes {a.shape} and {b.shape} do not broadcast") from None
    def backprop(g, terms):
        if a.requires_grad:
            _push(terms, a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _push(terms, b, _unbroadcast(g, b.shape))
    return Tensor(out_values, _parents=(a, b), _backprop=backprop)


def tanh(a):
    out_values = np.tanh(a.values)
    def backprop(g, terms):
        _push(terms, a, g * (1.0 - out_values * out_values))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def relu(a):
    out_values = np.maximum(a.values, 0.0)
    def backprop(g, terms):
        _push(terms, a, g * (a.values > 0.0))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def concat(parts, axis=-1):
    if not parts:
        raise ContractError("concat needs at least one operand")
    try:
        out_values = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError:
        shapes = ", ".join(str(p.shape) for p in parts)
        raise ContractError(f"concat shapes {shapes} do not agree off axis {axis}") from None
    ax = axis % out_values.ndim
    def backprop(g, terms):
        start = 0
        for p in parts:
            if p.requires_grad:
                _push(terms, p, g[(slice(None),) * ax + (slice(start, start + p.shape[ax]),)])
            start += p.shape[ax]
    return Tensor(out_values, _parents=tuple(parts), _backprop=backprop)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    dim = a.shape[axis]
    if not (0 <= start and start + length <= dim and length >= 1):
        raise ContractError(f"narrow [{start}:{start + length}] outside axis of extent {dim}")
    index = (slice(None),) * (axis % a.values.ndim) + (slice(start, start + length),)
    def backprop(g, terms):
        full = np.zeros_like(a.values)
        full[index] = g
        _push(terms, a, full)
    return Tensor(a.values[index], _parents=(a,), _backprop=backprop)


def reshape(a, shape):
    out_values = a.values.reshape(shape)
    def backprop(g, terms):
        _push(terms, a, g.reshape(a.shape))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def softmax(a):
    """Softmax along the last axis, shift-stabilized."""
    out_values = ad.softmax_values(a.values)
    def backprop(g, terms):
        inner = (g * out_values).sum(axis=-1, keepdims=True)
        _push(terms, a, out_values * (g - inner))
    return Tensor(out_values, _parents=(a,), _backprop=backprop)


def softmax_cross_entropy(logits, targets):
    """`autodiff.backward`'s loss as a node: its adjoint is the one backward hands its sweep."""
    held = []
    loss = ad.backward(logits.values, targets, held.append)
    def backprop(g, terms):
        _push(terms, logits, held[0] * float(g))
    return Tensor(loss, _parents=(logits,), _backprop=backprop)


def sweep_node(values, sweep, into=None):
    """`values` as a node whose backward pass calls `sweep(g)`, a model reverse pass.

    The sweep writes its gradients into the model's gradient vector; what it
    returns, the adjoint of its input, goes to the leaf `into` when given.
    """
    parent = Tensor(0.0, requires_grad=True) if into is None else into
    def backprop(g, terms):
        d_input = sweep(g)
        if into is not None:
            _push(terms, into, d_input)
    return Tensor(values, _parents=(parent,), _backprop=backprop)


def conv1d(x, w, b, stride=1, dilation=1):
    """The causal convolution `ad._conv1d` as a node: x [T, C_in], w [K, C_in, C_out], b [C_out]."""
    if x.values.ndim != 2 or w.values.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ContractError(f"conv1d shapes {x.shape} and {w.shape} do not agree")
    if x.shape[0] < 1:
        raise ContractError("conv1d needs at least one input row")
    out_values, cols = ad._conv1d(x.values, w.values, b.values, stride, dilation)
    def backprop(g, terms):
        if b.requires_grad:
            _push(terms, b, g.sum(axis=0))
        if w.requires_grad:
            _push(terms, w, (cols.T @ g).reshape(w.shape))
        if x.requires_grad:
            _push(terms, x, ad._conv1d_input_grad(g, w.values, x.shape[0], stride, dilation))
    return Tensor(out_values, _parents=(x, w, b), _backprop=backprop)


def lstm(x, h0, c0, wx, wh, b):
    """`ad._lstm_forward` as a node: [T, 2H] rows h_t | c_t from x [T, D] and h0, c0 [1, H].

    wx: [D, 4H], wh: [H, 4H], b: [4H]; gate order i, f, g, o.  The backward
    pass is one sweep of `ad._lstm_cell_backward` steps.
    """
    steps, n = x.shape[0], wh.shape[-1] // 4
    if not (x.values.ndim == 2 and wx.shape == (x.shape[1], 4 * n) and wh.shape == (n, 4 * n)
            and b.shape == (4 * n,) and h0.shape == c0.shape == (1, n)):
        raise ContractError(f"lstm shapes disagree: x {x.shape}, h0 {h0.shape}, c0 {c0.shape}, "
                            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    hs, cs, gates, tanh_c = ad._lstm_forward(x.values, h0.values[0], c0.values[0], wx.values,
                                             wh.values, b.values)
    def backprop(g_out, terms):
        cell_step = ad._lstm_cell_backward(wh.values, gates, cs[:-1], tanh_c)
        dz = np.empty_like(gates)
        dh = np.zeros(n)
        dc = np.zeros(n)
        for t in range(steps - 1, -1, -1):
            dh += g_out[t, :n]
            dc += g_out[t, n:]
            cell_step(t, dh, dc, dz[t])
        dz = dz.reshape(steps, 4 * n)
        if x.requires_grad:
            _push(terms, x, dz @ wx.values.T)
        if h0.requires_grad:
            _push(terms, h0, dh[None, :])
        if c0.requires_grad:
            _push(terms, c0, dc[None, :])
        if wx.requires_grad:
            _push(terms, wx, x.values, dz)
        if wh.requires_grad:
            _push(terms, wh, hs[:-1], dz)
        if b.requires_grad:
            _push(terms, b, dz.sum(axis=0))
    out_values = np.concatenate([hs[1:], cs[1:]], axis=1)
    return Tensor(out_values, _parents=(x, h0, c0, wx, wh, b), _backprop=backprop)


def finite_difference_grad(forward, x, h=1e-5):
    """Central-difference gradient of a scalar-valued forward() w.r.t. x.

    `x` is mutated in place one coordinate at a time; forward() must rebuild
    its computation from the current contents of `x` on every call.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = forward()
        flat[i] = orig - h
        fm = forward()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def weighted_sum(t, seed=None):
    """The [1, 1] tensor sum_i w_i t_i, built from `reshape` and `matmul`.

    The weights are ones, or with a seed fixed normal draws, which break
    the symmetry of outputs whose entries sum to a constant (softmax rows).
    """
    size = t.size
    w = np.ones((size, 1)) if seed is None else np.random.default_rng(seed).normal(size=(size, 1))
    return matmul(reshape(t, (1, size)), Tensor(w))


def assert_grad_close(analytic, numeric, rtol, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


@contextlib.contextmanager
def helper_thread(on):
    """`autodiff`'s helper thread replaced by one of this block's own (`on`), or by none.

    Patches the helper factory, so the two-thread paths run whatever the
    machine's core count.  Yields the helper's executor, or None.
    """
    executor = ThreadPoolExecutor(1) if on else None
    factory = ad._helper
    ad._helper = lambda: executor
    try:
        yield executor
    finally:
        ad._helper = factory
        if executor is not None:
            executor.shutdown()


def forged_wav(path, frames):
    """A 10-sample mono wav whose RIFF and data chunk headers claim `frames` frames."""
    write_wav(path, Waveform(np.zeros(10), 16000))
    raw = path.read_bytes()
    assert raw[36:40] == b"data"  # the data chunk's size follows its tag
    size = 2 * frames
    path.write_bytes(raw[:4] + struct.pack("<I", 36 + size) + raw[8:40]
                     + struct.pack("<I", size) + raw[44:])


def loss_value(model, x, target, inputs=None):
    """One update's loss as training forms it, with no reverse pass."""
    logits, _ = model.forward_teacher_forced(x, target, inputs)
    return ad.backward(logits, target[1:], lambda d_logits: None)


def update_gradients(model, x, target, inputs=None):
    """One training update's loss; its gradient is added into `model.grads`."""
    logits, sweep = model.forward_teacher_forced(x, target, inputs)
    return ad.backward(logits, target[1:], sweep)


# The model as a per-op graph: the reference that its encoder's and decoder's
# reverse passes and its plain-array decode steps are checked against.

@dataclass
class GraphEncoding:
    hidden: Tensor  # [U, encoder hidden]
    keys: Tensor  # [U, attention dim]

    @property
    def reduced_steps(self):
        return self.hidden.shape[0]


def graph_encode(model, x):
    """The encoder as a graph of conv1d, relu, concat, reshape, lstm, narrow and matmul nodes."""
    p = graph_parameters(model)
    out = Tensor(np.asarray(x, dtype=np.float64))
    for l, spec in enumerate(model.encoder_cfg.conv):
        out = relu(conv1d(out, p[f"conv{l}.w"], p[f"conv{l}.b"], stride=spec.stride,
                          dilation=spec.dilation))
    beta, n = model.encoder_cfg.beta, model.encoder_cfg.hidden
    start = zeros((1, n))
    for j in range(model.encoder_cfg.layers):
        frames, width = out.shape
        steps = -(-frames // beta)
        if steps * beta > frames:
            out = concat([out, zeros((steps * beta - frames, width))], axis=0)
        weights = [p[f"enc{j}.{k}"] for k in ("wx", "wh", "b")]
        out = narrow(lstm(reshape(out, (steps, beta * width)), start, start, *weights), 1, 0, n)
    return GraphEncoding(hidden=out, keys=matmul(out, p["attn.keys"]))


def graph_attention_scores(model, s_prev, encoded):
    """The additive attention scores [1, U], before the softmax, from a [1, H] state Tensor."""
    p = graph_parameters(model)
    query = matmul(s_prev, p["attn.query"])
    e = matmul(tanh(add(add(encoded.keys, query), p["attn.b"])), p["attn.score"])
    return reshape(e, (1, encoded.reduced_steps))


def graph_attend(model, s_prev, encoded):
    """Attention weights [1, U] and context [1, He] as Tensors, from a [1, H] state Tensor."""
    alpha = softmax(graph_attention_scores(model, s_prev, encoded))
    return alpha, matmul(alpha, encoded.hidden)


def graph_decode_step(model, prev_token, state, context):
    """The next (h, c) Tensors and [1, V] logits: one-step `lstm` on [embedding | context]."""
    if not 0 <= prev_token < model.vocab_size:
        raise IndexError(f"token id {prev_token} outside vocabulary of {model.vocab_size}")
    p = graph_parameters(model)
    embedding = narrow(p["dec.embed"], 0, int(prev_token), 1)
    n = model.decoder_cfg.hidden
    states = lstm(concat([embedding, context], axis=1), *state,
                  p["dec.wx"], p["dec.wh"], p["dec.b"])
    h, c = narrow(states, 1, 0, n), narrow(states, 1, n, n)
    logits = add(matmul(concat([h, context], axis=1), p["out.w"]), p["out.b"])
    return (h, c), logits


def graph_teacher_forced(model, encoded, inputs):
    """Logit rows [len(inputs), V] of the per-step graph decoder over a `graph_encode` output."""
    n = model.decoder_cfg.hidden
    state = (zeros((1, n)), zeros((1, n)))
    rows = []
    for token in inputs:
        _, context = graph_attend(model, state[0], encoded)
        state, logits = graph_decode_step(model, token, state, context)
        rows.append(logits)
    return concat(rows, axis=0)


def edit_distance_oracle(a, b):
    """Unit-cost Levenshtein distance by memoized recursion."""
    from functools import lru_cache

    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = dist(i - 1, j - 1) + (a[i - 1] != b[j - 1])
        return min(sub, dist(i, j - 1) + 1, dist(i - 1, j) + 1)

    return dist(len(a), len(b))


def score_pairs(pairs, seed, resamples, max_n=4):
    """`metrics.build_report` of (reference, hypothesis) pairs, each named by its position.

    The report records a greedy decode without an LM (beam width 1, weight 0).
    """
    scored = [(str(i), reference, hypothesis) for i, (reference, hypothesis) in enumerate(pairs)]
    return build_report(scored, seed, resamples, lambda_lm=0.0, beam_width=1, max_n=max_n)


class _FillingFile:
    def __init__(self, fh, room, failure):
        self.fh, self.room, self.failure = fh, room, failure

    def write(self, data):
        if not isinstance(data, str):  # a text file counts characters, a binary one bytes
            data = memoryview(data).cast("B")
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.room = 0
            raise self.failure
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_writes_after(monkeypatch, limit, failure, name=None):
    """Make each file that `schema` opens for writing raise `failure` past `limit` bytes.

    The bytes up to the limit reach the file first, as on a disk that fills
    up partway through a write.  Given a `name`, only files whose name
    starts with it fail, and so do such files that `cli` opens itself.
    """
    import builtins
    import os

    from icdscribe import cli, schema

    def filling_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        hit = "w" in mode and (name is None or os.path.basename(path).startswith(name))
        return _FillingFile(fh, limit, failure) if hit else fh

    monkeypatch.setattr(schema, "open", filling_open, raising=False)
    if name is not None:
        monkeypatch.setattr(cli, "open", filling_open, raising=False)


# the int and float fields of a run config or checkpoint header that no `within` bounds, and why
UNBOUNDED = {
    "DatasetConfig.seed": "only feeds `stable_seed`, which hashes any integer",
    "SpeakerProfile.seed": "only feeds `stable_seed`, which hashes any integer",
    "FrontendConfig.n_mels": "its upper bound, n_fft/2 + 1, is derived from the window",
}


def number_fields(cls, path=""):
    """(dotted path, class, field) of each int or float field in the dataclass tree under `cls`.

    List and tuple items share their list's path, as in `schema`'s messages.
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, where = hints[f.name], path + f.name
        items = typing.get_args(hint) if typing.get_origin(hint) in (list, tuple) else ()
        for tp in (hint, *items):
            if dataclasses.is_dataclass(tp):
                yield from number_fields(tp, where + ".")
        if hint in (int, float):
            yield where, cls, f
