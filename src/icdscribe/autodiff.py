"""The numerics of a training update: its loss, the array kernels, the
parameter vectors, Adam and clipping, and the one helper thread.

`backward` forms an update's loss, the mean cross entropy of the
teacher-forced logits, and its adjoint, and hands that to the `sweep` that
the model's forward pass returned: the decoder's reverse pass, then the
encoder's.  A reverse pass writes each gradient with `out=` as it reaches
it, on the calling thread; a weight that every step reads gets one product
over all steps.  The array kernels are those the model's passes share, in
training and decoding: the causal convolution and its input gradient, and
the LSTM forward, step and backward step.  Everything is float64 so the
finite-difference tests can use tight tolerances.

A model's parameters are views into one flat float64 vector, in
registration order (`parameter_vectors`), and their gradients views into a
second vector of the same length; a `Tensor` is one parameter's handle, its
value view, gradient view and shape.  Adam (`adam_step`) and global-norm
clipping (`clip_global_norm`) work on the two vectors, and a checkpoint
stores them as they lie in memory.  Each Adam step is handed its
`OptimizerConfig`; `AdamState` holds only the update count and moments.

Only two jobs use the one helper thread.  Adam's blocks run on the calling
thread and the helper at once (`run_shared`); each block writes its own
slice of memory, so the split never changes a bit.  The same two threads
compute a lazy map in order (`mapped`), which lets `evaluate` realize the
next utterances while it decodes one, and `train` realize its set on both
threads.  The helper is made on first use, and only where two or more cores
are usable; on one core the same functions run on the calling thread alone.
There is no knob.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .schema import check_bounds, within


class Tensor:
    """One parameter: `values` and `grad`, its views into the parameter and gradient vectors."""

    __slots__ = ("values", "grad")

    def __init__(self, values, grad):
        self.values = values
        self.grad = grad

    @property
    def shape(self):
        return self.values.shape


# ---------------------------------------------------------------------------
# the loss, and whole-sequence kernels on plain arrays
# ---------------------------------------------------------------------------

def softmax_values(x):
    """Shift-stabilized softmax of a plain ndarray along its last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_values(x):
    """Numerically stable log-softmax of a plain ndarray."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward(logits, targets, sweep):
    """The mean negative log-softmax of the target entries, backpropagated by `sweep`.

    logits: [n, V]; targets: n integer ids.  The loss's adjoint w.r.t. the
    logits, (softmax - onehot) / n, is handed to `sweep`, which writes each
    parameter's gradient into its view.  Returns the loss as a float.
    """
    if logits.ndim != 2:
        raise ContractError(f"cross entropy expects [n, V] logits, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, vocab = logits.shape
    if targets.ndim != 1 or targets.size != n:
        raise ContractError(f"expected {n} targets, got shape {targets.shape}")
    if n < 1:
        raise ContractError("cross entropy needs at least one row")
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError(
            f"target id out of range [0, {vocab}): {targets[(targets < 0) | (targets >= vocab)][0]}"
        )
    logp = log_softmax_values(logits)
    rows = np.arange(n)
    loss = -logp[rows, targets].mean()
    d_logits = np.exp(logp)
    d_logits[rows, targets] -= 1.0
    sweep(d_logits * (1.0 / n))
    return float(loss)


def _conv1d(x, w, b, stride, dilation):
    """Causal 1-d convolution over time: the output and the unfolded input taps.

    x: [T, C_in] feature rows, w: [K, C_in, C_out], b: [C_out].  The input
    is zero-padded on the left by (K-1)*dilation so out[t] depends only on
    x[<= t*stride]; output length is ceil(T / stride).  The taps unfold into
    one [t_out, K*C_in] matrix `cols`, so the layer is one matmul, and
    w's gradient is cols.T @ d(out).
    """
    T, c_in = x.shape
    K, _, c_out = w.shape
    pad = (K - 1) * dilation
    padded = np.vstack([np.zeros((pad, c_in)), x]) if pad else x
    t_out = -(-T // stride)
    rows = np.arange(t_out)[:, None] * stride + np.arange(K) * dilation
    cols = padded[rows].reshape(t_out, K * c_in)
    return cols @ w.reshape(K * c_in, c_out) + b, cols


def _conv1d_input_grad(g, w, steps, stride, dilation):
    """The adjoint of `_conv1d`'s [steps, C_in] input, given that of its output g."""
    K, c_in, c_out = w.shape
    t_out = len(g)
    taps = (g @ w.reshape(K * c_in, c_out).T).reshape(t_out, K, c_in)
    pad = (K - 1) * dilation
    dpad = np.zeros((pad + steps, c_in))
    # a padded row gets its taps in ascending t, as np.add.at(dpad, rows, taps)
    # would add them: descending k is ascending t for a fixed row
    for k in range(K - 1, -1, -1):
        dpad[k * dilation : k * dilation + (t_out - 1) * stride + 1 : stride] += taps[:, k]
    return dpad[pad:]


# sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh serves all four LSTM gates:
# gate = scale * tanh(scale * z) + 1 - scale, with scale 1/2 for i, f, o and 1
# for g; it saturates without overflow at any magnitude
_GATE_SCALE = np.array([[0.5], [0.5], [1.0], [0.5]])
_GATE_SHIFT = 1.0 - _GATE_SCALE


@functools.cache
def _gate_rows(n):
    """`_GATE_SCALE` and `_GATE_SHIFT` repeated over flat [4n] rows, read-only."""
    rows = np.repeat(_GATE_SCALE, n), np.repeat(_GATE_SHIFT, n)
    for row in rows:
        row.flags.writeable = False
    return rows


def _lstm_cell(wh, zx, h, c, gates, h_next, c_next, tanh_c):
    """One LSTM step written into preallocated rows; gate order i, f, g, o.

    zx: the step's input projection x @ wx + b [4n]; h, c: the previous
    state [n].  Writes the gates [4, n], then c_next, tanh(c_next) and
    h_next [n], and allocates nothing.  The gate affine runs on the flat
    [4n] row: one contiguous loop per op, not a (4, 1) broadcast.
    """
    scale_row, shift_row = _gate_rows(len(h))
    row = gates.reshape(-1)
    np.matmul(h, wh, out=row)
    row += zx
    row *= scale_row
    np.tanh(row, out=row)
    row *= scale_row
    row += shift_row
    i, f, g, o = gates
    np.multiply(f, c, out=c_next)
    np.multiply(i, g, out=tanh_c)  # i * g, until tanh_c takes tanh(c_next)
    c_next += tanh_c
    np.tanh(c_next, out=tanh_c)
    np.multiply(o, tanh_c, out=h_next)


def _lstm_forward(x, h0, c0, wx, wh, b):
    """An LSTM over the rows of x [T, D] from the state h0, c0 [n]: (hs, cs, gates, tanh_c).

    hs and cs [T+1, n] hold the start state in row 0 and h_t, c_t in row t;
    gates [T, 4, n] and tanh_c [T, n] are the rows `_lstm_cell_backward`
    reads.  The input projection of all steps is one matmul; each step then
    writes straight into rows preallocated for the whole sequence.
    """
    steps, n = len(x), len(wh)
    zx = x @ wx + b
    hs = np.empty((steps + 1, n))
    cs = np.empty((steps + 1, n))
    hs[0], cs[0] = h0, c0
    gates = np.empty((steps, 4, n))
    tanh_c = np.empty((steps, n))
    for row in zip(zx, hs[:-1], cs[:-1], gates, hs[1:], cs[1:], tanh_c):
        _lstm_cell(wh, *row)
    return hs, cs, gates, tanh_c


def _lstm_cell_backward(wh, gates, c_prev, tanh_c):
    """The backward step of `_lstm_cell` over a recorded sequence, as `step(t, dh, dc, dz)`.

    gates [T, 4, n], c_prev [T, n] (the cell each step read) and tanh_c
    [T, n] are the forward rows.  `step` turns dh and dc, the adjoints of
    h_t and c_t, in place into those of h_{t-1} and c_{t-1} through the
    cell, and writes d(gate pre-activations) of step t into dz [4, n].
    """
    # d gate / d z = scale^2 (1 - tanh^2): sigmoid' for i, f, o, tanh' for g
    slope = _GATE_SCALE * _GATE_SCALE - (gates - 1.0 + _GATE_SCALE) ** 2
    cell_factors = np.stack([gates[:, 2], c_prev, gates[:, 0]], axis=1)  # d c_t / d (i, f, g)
    tanh_slope = 1.0 - tanh_c * tanh_c
    wh_t = wh.T
    tmp = np.empty(wh.shape[0])
    def step(t, dh, dc, dz):
        np.multiply(dh, gates[t, 3], out=tmp)
        np.multiply(tmp, tanh_slope[t], out=tmp)
        dc += tmp
        np.multiply(dc, cell_factors[t], out=dz[:3])
        np.multiply(dh, tanh_c[t], out=dz[3])
        dz *= slope[t]
        dc *= gates[t, 1]
        np.matmul(dz.reshape(-1), wh_t, out=dh)
    return step


# ---------------------------------------------------------------------------
# the helper thread
# ---------------------------------------------------------------------------

# jobs `mapped` draws past the result the caller waits for; a window of 1 measured slower
MAP_WINDOW = 2


@functools.cache
def _helper():
    """The one helper thread, as a one-worker executor made on first use; None on one core."""
    from concurrent.futures import ThreadPoolExecutor  # only `adam_step` and `mapped` need it

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return ThreadPoolExecutor(1, thread_name_prefix="icdscribe-helper") if cores >= 2 else None


def run_shared(work, jobs):
    """Call `work(job, worker)` once per job, on the calling thread (worker 0) and the helper (1).

    Both threads claim jobs from one iterator until it runs out, so the
    jobs must write disjoint memory; the bulk numpy kernels they run
    release the GIL, so the threads overlap.  After its own share the
    caller cancels the helper's turn if the helper has not started it, and
    otherwise waits for it: once the jobs have run out, that is the one job
    the helper is running.  An exception from a job on either thread
    propagates unchanged.
    """
    claims, claiming = iter(jobs), threading.Lock()

    def drain(worker):
        while True:
            with claiming:
                job = next(claims, None)
            if job is None:
                return
            work(job, worker)

    helper = _helper() if len(jobs) > 1 else None
    turn = None if helper is None else helper.submit(drain, 1)
    try:
        drain(0)
    finally:
        if turn is not None and not turn.cancel():
            turn.result()


def mapped(fn, jobs):
    """Yield `fn(job)` for each of `jobs` in order, computing them on the caller and the helper.

    Only the caller draws `jobs`, at most `MAP_WINDOW` past the result it
    waits for.  It hands each drawn job to the helper, which takes them in
    order and goes idle once none is left, so `run_shared` never queues
    behind an idle wait.  A caller whose next result is not ready takes
    back the next job the helper has not started and computes it instead
    of waiting.  Results and exceptions from `fn` come out as from `map`,
    which is what runs on one core; an error drawing a job propagates as
    soon as it is drawn.  That error or an early close cancels the jobs the
    helper has not started and waits for the one it is running.
    """
    helper = _helper()
    if helper is None:
        yield from map(fn, jobs)
        return
    from concurrent.futures import Future
    draws, ahead = iter(jobs), collections.deque()  # ahead: (job, its future)

    def settled(job):  # a done future holding fn(job) or the exception it raised
        result = Future()
        try:
            result.set_result(fn(job))
        except Exception as exc:  # raised when the caller reaches this result
            result.set_exception(exc)
        return result

    try:
        while True:
            for job in itertools.islice(draws, MAP_WINDOW + 1 - len(ahead)):
                ahead.append((job, helper.submit(fn, job)))
            if not ahead:
                return
            # until the next result is ready, compute each job the helper has not started
            for i, (job, result) in enumerate(list(ahead)):
                if ahead[0][1].done():
                    break
                if result.cancel():
                    ahead[i] = job, settled(job)
            yield ahead.popleft()[1].result()
    finally:
        for _, result in ahead:  # cancel what the helper has not started, await what it has
            if not result.cancel():
                result.exception()


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

# values, gradients and Adam's two moments of a model this size take 800 MB
MAX_PARAMETERS = 25_000_000


def parameter_vectors(layout, rng, values=None):
    """Parameters that are views into one flat vector, plus a gradient twin.

    `layout` maps each name, in order, to (shape, init): a fan-in, for
    entries drawn uniform in +-1/sqrt(fan_in) straight into the vector, or
    an array of as many initial values, in any shape.  Given stored
    `values` (such as a checkpoint's), the vector is those values, adopted
    without a copy when they are already a contiguous float64 array, and
    nothing is drawn.  Returns (values, grads, {name: Tensor}); no
    parameter is ever held twice.  A layout above `MAX_PARAMETERS` values
    is refused before anything is allocated.  The gradient vector starts at
    zero; the reverse pass of a training update writes every entry of it.
    """
    sizes = [math.prod(shape) for shape, _ in layout.values()]
    if sum(sizes) > MAX_PARAMETERS:
        raise ContractError(f"a model of {sum(sizes):,} parameters is above the bound of "
                            f"{MAX_PARAMETERS:,}")
    drawn = values is None
    if not drawn and len(values) != sum(sizes):
        raise ContractError(f"{len(values)} stored values for a layout of {sum(sizes)}")
    values = np.zeros(sum(sizes)) if drawn else np.ascontiguousarray(values, dtype=np.float64)
    grads = np.zeros(sum(sizes))
    tensors, start = {}, 0
    for (name, (shape, init)), size in zip(layout.items(), sizes):
        part = slice(start, start + size)
        t = tensors[name] = Tensor(values[part].reshape(shape), grads[part].reshape(shape))
        if drawn and isinstance(init, np.ndarray):
            t.values.reshape(init.shape)[...] = init
        elif drawn:
            # bit for bit what rng.uniform(-bound, bound, shape) draws: -bound + 2 bound u
            bound = 1.0 / float(init) ** 0.5
            rng.random(out=t.values)
            t.values *= 2.0 * bound
            t.values -= bound
        start += size
    return values, grads, tensors


@dataclass
class OptimizerConfig:
    """Adam's hyperparameters (Kingma & Ba 2015): step size, moment decay rates and eps."""

    lr: float = field(default=1e-3, metadata=within(0.0, ends="()"))
    beta1: float = field(default=0.9, metadata=within(0.0, 1.0, "[)"))
    beta2: float = field(default=0.999, metadata=within(0.0, 1.0, "[)"))
    # a zero eps divides 0 by 0 wherever a gradient has been zero so far
    eps: float = field(default=1e-8, metadata=within(0.0, ends="()"))

    __post_init__ = check_bounds


# elements per block, chosen by timing 8k-128k: a block's five operands (values,
# grads, m, v and a scratch row, 1.25 MiB) stay in a 2 MiB L2 cache
ADAM_BLOCK = 1 << 15


class AdamState:
    """Adam's update count, first/second moment vectors and scratch, not its hyperparameters.

    `m` and `v` are flat, element-aligned with the parameter vector the
    state was built for; they may be views into one buffer (a restored
    checkpoint's).  `step` increases by exactly one per update.  `scratch`
    holds one row of at most `ADAM_BLOCK` elements for each thread that
    runs Adam's blocks, allocated once, so a step allocates nothing.
    """

    def __init__(self, size):
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty((2, min(ADAM_BLOCK, size)))


def _adam_block(values, g, m, v, s, cfg, step_size, eps):
    """One block of `adam_step`: the moments, then the parameters, with `s` as scratch."""
    s = s[: len(g)]
    np.multiply(g, 1.0 - cfg.beta1, out=s)
    m *= cfg.beta1
    m += s
    np.multiply(g, 1.0 - cfg.beta2, out=s)
    s *= g
    v *= cfg.beta2
    v += s
    np.sqrt(v, out=s)
    s += eps
    np.divide(m, s, out=s)
    s *= step_size
    values -= s


def adam_step(values, grads, state, cfg):
    """One Adam update of flat `values` under `cfg`, in Kingma & Ba's folded form.

    `grads` is only read.  The moments follow the textbook recurrences
    operation for operation.  The bias corrections fold into the step size and eps (end of §2 of
    arXiv:1412.6980): values -= (m / (sqrt(v) + eps_t)) * a_t, with
    a_t = lr sqrt(1 - beta2^t) / (1 - beta1^t) and eps_t = eps sqrt(1 - beta2^t),
    so `m / c1` and `v / c2` are never formed.  This equals the textbook
    update up to rounding.  The update is elementwise, so its blocks of
    `ADAM_BLOCK` elements run on both threads (`run_shared`), each pass
    writing into its thread's row of `state.scratch`.  The next reverse
    pass overwrites `grads`, so they are not zeroed.
    """
    if not len(values) == len(grads) == len(state.m):
        raise ContractError(f"optimizer state covers {len(state.m)} values, got {len(values)} "
                            f"values and {len(grads)} gradients")
    state.step += 1
    root_c2 = math.sqrt(1.0 - cfg.beta2 ** state.step)
    step_size = cfg.lr * root_c2 / (1.0 - cfg.beta1 ** state.step)
    eps = cfg.eps * root_c2

    def block(start, worker):
        part = slice(start, start + ADAM_BLOCK)
        _adam_block(values[part], grads[part], state.m[part], state.v[part],
                    state.scratch[worker], cfg, step_size, eps)

    run_shared(block, range(0, len(values), ADAM_BLOCK))


def clip_global_norm(grads, max_norm):
    """Scale the flat `grads` in place so their L2 norm is at most `max_norm`.

    Returns the pre-clip norm.  The sum of squares does not go through
    BLAS, so it does not depend on the BLAS thread count.
    """
    norm = float(np.einsum("i,i->", grads, grads)) ** 0.5
    if norm > max_norm > 0:
        grads *= max_norm / norm
    return norm
