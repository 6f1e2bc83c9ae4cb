"""Oracles shared across test modules.

Kept independent of the code paths they check: the finite-difference
gradient only calls the forward pass, and the edit-distance oracle is a
plain memoized recursion with no alignment bookkeeping.
"""

import numpy as np

from icdscribe import autodiff as ad


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
    return ad.matmul(ad.reshape(t, (1, size)), ad.Tensor(w))


def assert_grad_close(analytic, numeric, rtol, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# The attention decoder as a per-step graph of primitive ops: the reference
# that the model's plain-array steps and whole-target op are checked against.

def graph_attend(model, s_prev, encoded):
    """Attention weights [1, U] and context [1, He] as Tensors, from a [1, H] state Tensor."""
    p = model.named_parameters()
    query = ad.matmul(s_prev, p["attn.query"])
    e = ad.matmul(ad.tanh(ad.add(ad.add(encoded.keys, query), p["attn.b"])), p["attn.score"])
    alpha = ad.softmax(ad.reshape(e, (1, encoded.reduced_steps)))
    return alpha, ad.matmul(alpha, encoded.hidden)


def graph_decode_step(model, prev_token, state, context):
    """The next (h, c) Tensors and [1, V] logits: one-step `lstm` on [embedding | context]."""
    if not 0 <= prev_token < model.vocab_size:
        raise IndexError(f"token id {prev_token} outside vocabulary of {model.vocab_size}")
    p = model.named_parameters()
    embedding = ad.narrow(p["dec.embed"], 0, int(prev_token), 1)
    n = model.decoder_cfg.hidden
    states = ad.lstm(ad.concat([embedding, context], axis=1), *state,
                     p["dec.wx"], p["dec.wh"], p["dec.b"])
    h, c = ad.narrow(states, 1, 0, n), ad.narrow(states, 1, n, n)
    logits = ad.add(ad.matmul(ad.concat([h, context], axis=1), p["out.w"]), p["out.b"])
    return (h, c), logits


def graph_teacher_forced(model, encoded, inputs):
    """Logit rows [len(inputs), V] of the per-step graph decoder."""
    n = model.decoder_cfg.hidden
    state = (ad.zeros((1, n)), ad.zeros((1, n)))
    rows = []
    for token in inputs:
        _, context = graph_attend(model, state[0], encoded)
        state, logits = graph_decode_step(model, token, state, context)
        rows.append(logits)
    return ad.concat(rows, axis=0)


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
