"""Attention-based sequence-to-sequence acoustic model.

The encoder runs a causal convolution stack over the spectrogram, then a
pyramid of unidirectional LSTM layers.  Every pyramid layer concatenates
beta consecutive outputs of the layer below into one input, so J layers
shrink T_conv frames to ceil(T_conv / beta**J) encoder states; a final
group short of beta rows is padded with zeros.  Nothing reads future
frames, so the encoder can run incrementally.  `encode` runs on plain
arrays and keeps the rows its reverse pass reads, one sweep down the
layers.

The decoder is a single LSTM.  At step i it attends over the encoder
states with its previous hidden state, consumes the previous token's
embedding concatenated with that context, and projects [state, context]
to vocabulary logits.  Scoring is additive: e_j = w . tanh(W s + V h_j + b).
`attend` and `decode_step` run one step on plain arrays; beam search calls
them one hypothesis at a time.  Teacher forcing runs the same step code
over a whole target and returns its logits with a sweep: the decoder's
reverse pass, which also forms the attention keys' gradient, then the
encoder's.  Each is one pass of backpropagation through time.  It writes
each gradient into the model's gradient vector where it forms it, on the
calling thread; a weight that every step reads gets one product over all
steps, `np.matmul(left.T, right, out=grad)`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    _conv1d,
    _conv1d_input_grad,
    _lstm_cell,
    _lstm_cell_backward,
    _lstm_forward,
    parameter_vectors,
    softmax_values,
)
from .data import EOS, PAD, SOS
from .errors import ContractError
from .schema import check_bounds, within
from .seeds import stable_seed


# `_conv1d` pads (kernel - 1) * dilation rows and unfolds [frames, kernel * C_in] taps, and the
# parameter bound alone admits kernels in the thousands; at 64 and 64 one layer already reaches
# back 4,033 frames, 40 s at the default 10 ms hop.  Strides and beta need no bound: `encode`
# always yields a state, and `MAX_PARAMETERS` bounds beta through the LSTM input width.
MAX_KERNEL = MAX_DILATION = 64


@dataclass
class ConvSpec:
    channels: int = field(default=32, metadata=within(1))
    stride: int = field(default=2, metadata=within(1))
    dilation: int = field(default=1, metadata=within(1, MAX_DILATION))
    kernel: int = field(default=3, metadata=within(1, MAX_KERNEL))

    __post_init__ = check_bounds


@dataclass
class EncoderConfig:
    conv: tuple[ConvSpec, ...] = field(
        default_factory=lambda: (ConvSpec(32, 2, 1), ConvSpec(32, 2, 2))
    )
    layers: int = field(default=2, metadata=within(1))
    beta: int = field(default=2, metadata=within(2))  # the pyramid factor
    hidden: int = field(default=128, metadata=within(1))

    __post_init__ = check_bounds

    @property
    def state_span(self):
        """Input frames per encoder state: each conv stride, then beta per pyramid layer."""
        return math.prod(c.stride for c in self.conv) * self.beta**self.layers


@dataclass
class DecoderConfig:
    """Decoder sizes; the vocabulary size comes from the dataset."""

    embedding_dim: int = field(default=64, metadata=within(1))
    hidden: int = field(default=128, metadata=within(1))
    attention_dim: int = field(default=64, metadata=within(1))

    __post_init__ = check_bounds


@dataclass
class EncoderOutput:
    """The encoder's states and attention keys, plus the forward rows its reverse pass reads."""

    hidden: np.ndarray  # [U, encoder hidden]
    keys: np.ndarray  # [U, attention dim]: hidden @ attn.keys, shared by every decode step
    convs: list  # per conv layer: (unfolded taps, output before the ReLU)
    layers: list  # per pyramid layer: (frames before padding, input rows, `_lstm_forward` rows)

    @property
    def reduced_steps(self):
        return self.hidden.shape[0]


class Seq2SeqModel:
    """Encoder, attention and decoder parameters plus their wiring."""

    def __init__(self, encoder_cfg, decoder_cfg, vocab_size, input_dim, seed=0, values=None):
        if vocab_size < 5:
            raise ContractError("vocabulary needs the four specials plus content words")
        self.encoder_cfg = encoder_cfg
        self.decoder_cfg = decoder_cfg
        self.vocab_size = vocab_size
        self.input_dim = input_dim
        layout = {}  # name -> (shape, fan-in or initial values), in registration order

        def param(name, shape, fan_in=None):
            layout[name] = (shape, fan_in or shape[0])

        def bias(name, values):  # a broadcast view, so no bias is allocated before the size check
            layout[name] = ((values.size,), values)

        channels = input_dim
        for l, spec in enumerate(encoder_cfg.conv):
            param(f"conv{l}.w", (spec.kernel, channels, spec.channels), fan_in=spec.kernel * channels)
            bias(f"conv{l}.b", np.broadcast_to(0.0, spec.channels))
            channels = spec.channels

        def lstm_params(prefix, in_dim, n):
            param(f"{prefix}.wx", (in_dim, 4 * n))
            param(f"{prefix}.wh", (n, 4 * n))
            # open forget gates (i, f, g, o) at init so early state survives long sequences
            bias(f"{prefix}.b", np.broadcast_to([[0.0], [1.0], [0.0], [0.0]], (4, n)))

        in_dim = channels * encoder_cfg.beta
        for j in range(encoder_cfg.layers):
            lstm_params(f"enc{j}", in_dim, encoder_cfg.hidden)
            in_dim = encoder_cfg.hidden * encoder_cfg.beta

        param("dec.embed", (vocab_size, decoder_cfg.embedding_dim),
              fan_in=decoder_cfg.embedding_dim)
        lstm_params("dec", decoder_cfg.embedding_dim + encoder_cfg.hidden, decoder_cfg.hidden)

        param("attn.query", (decoder_cfg.hidden, decoder_cfg.attention_dim))
        param("attn.keys", (encoder_cfg.hidden, decoder_cfg.attention_dim))
        bias("attn.b", np.broadcast_to(0.0, decoder_cfg.attention_dim))
        param("attn.score", (decoder_cfg.attention_dim, 1))

        param("out.w", (decoder_cfg.hidden + encoder_cfg.hidden, vocab_size))
        bias("out.b", np.broadcast_to(0.0, vocab_size))
        # every parameter's values and grad are views into these two vectors; stored
        # `values` (a checkpoint's) are adopted in place of the seeded draw
        rng = np.random.default_rng(stable_seed("model-init", seed)) if values is None else None
        self.values, self.grads, self._params = parameter_vectors(layout, rng, values)

    def named_parameters(self):
        return dict(self._params)

    # ----------------------------------------------------------------- encoder

    def encode(self, x):
        """The conv stack, its ReLUs and the pyramid LSTM layers over a [T, F] spectrogram."""
        values = np.asarray(x, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ContractError(f"encoder needs a nonempty [T, F] spectrogram, got {values.shape}")
        if values.shape[1] != self.input_dim:
            raise ContractError(
                f"spectrogram has {values.shape[1]} channels, model expects {self.input_dim}"
            )
        p, out, convs, layers = self._params, values, [], []
        for l, spec in enumerate(self.encoder_cfg.conv):
            pre, cols = _conv1d(out, p[f"conv{l}.w"].values, p[f"conv{l}.b"].values,
                                spec.stride, spec.dilation)
            convs.append((cols, pre))
            out = np.maximum(pre, 0.0)
        beta, n = self.encoder_cfg.beta, self.encoder_cfg.hidden
        start = np.zeros(n)  # every layer's h0 and c0
        for j in range(self.encoder_cfg.layers):
            frames, width = out.shape
            steps = -(-frames // beta)
            if steps * beta > frames:
                out = np.concatenate([out, np.zeros((steps * beta - frames, width))], axis=0)
            rows = out.reshape(steps, beta * width)
            states = _lstm_forward(rows, start, start,
                                   *(p[f"enc{j}.{k}"].values for k in ("wx", "wh", "b")))
            layers.append((frames, rows, states))
            out = states[0][1:]  # h_1 .. h_steps
        return EncoderOutput(out, out @ p["attn.keys"].values, convs, layers)

    def _encoder_sweep(self, encoded, g):
        """Write the conv and pyramid LSTM gradients, given g, the adjoint of `encoded.hidden`.

        One sweep down the layers: backpropagation through time per pyramid
        layer, the un-reshape without the padding rows, then per conv layer
        the ReLU mask and the taps.
        """
        p, cfg = self._params, self.encoder_cfg
        for j in range(cfg.layers - 1, -1, -1):
            wx, wh, b = (p[f"enc{j}.{k}"] for k in ("wx", "wh", "b"))
            frames, rows, (hs, cs, gates, tanh_c) = encoded.layers[j]
            cell_step = _lstm_cell_backward(wh.values, gates, cs[:-1], tanh_c)
            dz = np.empty_like(gates)
            dh, dc = np.zeros(cfg.hidden), np.zeros(cfg.hidden)
            for t in range(len(rows) - 1, -1, -1):
                dh += g[t]
                cell_step(t, dh, dc, dz[t])
            dz = dz.reshape(len(rows), -1)
            np.matmul(rows.T, dz, out=wx.grad)
            np.matmul(hs[:-1].T, dz, out=wh.grad)
            dz.sum(axis=0, out=b.grad)
            if j or cfg.conv:  # the layer's input rows, less the final group's padding
                g = (dz @ wx.values.T).reshape(len(rows) * cfg.beta, -1)[:frames]
        for l in range(len(cfg.conv) - 1, -1, -1):
            w, b, spec = p[f"conv{l}.w"], p[f"conv{l}.b"], cfg.conv[l]
            cols, pre = encoded.convs[l]
            g = g * (pre > 0.0)
            g.sum(axis=0, out=b.grad)
            np.matmul(cols.T, g, out=w.grad.reshape(cols.shape[1], -1))
            if l:
                steps = len(encoded.convs[l - 1][1])
                g = _conv1d_input_grad(g, w.values, steps, spec.stride, spec.dilation)

    # --------------------------------------------------------------- attention

    def attend(self, s_prev, encoder_output, tanh_rows=None):
        """Attention weights alpha [1, U] and the context alpha @ hidden [1, He], as arrays.

        The additive scores are tanh(W s + V h_j + b) @ w for the decoder state
        s_prev [1, H]; the tanh rows are formed in `tanh_rows` [U, A] when
        given, since teacher forcing keeps them for its reverse pass.
        """
        p = self._params
        query = s_prev @ p["attn.query"].values
        rows = np.add(encoder_output.keys, query, out=tanh_rows)
        rows += p["attn.b"].values
        np.tanh(rows, out=rows)
        alpha = softmax_values((rows @ p["attn.score"].values).reshape(1, -1))
        return alpha, alpha @ encoder_output.hidden

    # ----------------------------------------------------------------- decoder

    def start_state(self):
        n = self.decoder_cfg.hidden
        return np.zeros((1, n)), np.zeros((1, n))

    def _cell(self, token, h, c, context, x, gates, h_next, c_next, tanh_c):
        """The decoder LSTM step on [embedding(token) | context], written into the given rows.

        h, c, context: [n], [n], [He] rows; x takes the input row, the rest
        are `_lstm_cell`'s outputs.
        """
        if not 0 <= token < self.vocab_size:
            raise IndexError(f"token id {token} outside vocabulary of {self.vocab_size}")
        p, e = self._params, self.decoder_cfg.embedding_dim
        x[:e] = p["dec.embed"].values[int(token)]
        x[e:] = context
        zx = x @ p["dec.wx"].values + p["dec.b"].values
        _lstm_cell(p["dec.wh"].values, zx, h, c, gates, h_next, c_next, tanh_c)

    def _logits(self, rows):
        """Vocabulary logits of [h | context] rows."""
        return rows @ self._params["out.w"].values + self._params["out.b"].values

    def decode_step(self, prev_token, state, context):
        """One decoder step on arrays: the next state (h, c), each [1, H], and [1, V] logits."""
        n = self.decoder_cfg.hidden
        h, c = np.empty((1, n)), np.empty((1, n))
        x = np.empty(self.decoder_cfg.embedding_dim + context.shape[1])
        self._cell(prev_token, state[0][0], state[1][0], context[0], x, np.empty((4, n)),
                   h[0], c[0], np.empty(n))
        return (h, c), self._logits(np.concatenate([h, context], axis=1))

    def forward_teacher_forced(self, x, target, input_tokens=None):
        """Logit rows for positions 1..len(target)-1, and the sweep that backpropagates them.

        Returns (logits, sweep): `sweep(d_logits)` runs the decoder's
        reverse pass, then the encoder's, so it writes every parameter's
        gradient into `self.grads`.  `input_tokens` overrides what the
        decoder consumes (scheduled sampling); prediction targets are
        unaffected.
        """
        target = list(target)
        if len(target) < 2 or target[0] != SOS or target[-1] != EOS:
            raise ContractError("target must be [<sos>, words..., <eos>]")
        if PAD in target:
            raise ContractError("target must not contain padding")
        inputs = list(input_tokens) if input_tokens is not None else target[:-1]
        if len(inputs) != len(target) - 1:
            raise ContractError(
                f"{len(target) - 1} decode steps need {len(target) - 1} inputs, got {len(inputs)}"
            )
        encoded = self.encode(x)
        logits, decoder_sweep = self._decode_teacher_forced(encoded, inputs)
        return logits, lambda d_logits: self._encoder_sweep(encoded, decoder_sweep(d_logits))

    def _decode_teacher_forced(self, encoded, inputs):
        """The decoder over a whole target: `attend` and `_cell` per step, then one logits product.

        Returns (logits, sweep).  `sweep(g)` goes back through the steps
        once, given g, the adjoint of the logits; it writes the decoder,
        attention and output gradients and returns the adjoint of
        `encoded.hidden`: the keys' share, then the contexts'.
        """
        p = self._params
        steps, units = len(inputs), encoded.reduced_steps
        n, e = self.decoder_cfg.hidden, self.decoder_cfg.embedding_dim
        xs = np.empty((steps, e + self.encoder_cfg.hidden))  # [embedding | context] per step
        hs, cs = np.zeros((steps + 1, n)), np.zeros((steps + 1, n))  # row 0 is the start state
        gates, tanh_c = np.empty((steps, 4, n)), np.empty((steps, n))
        tanh_rows = np.empty((steps, units, self.decoder_cfg.attention_dim))
        alphas = np.empty((steps, units))
        for t, token in enumerate(inputs):
            alpha, context = self.attend(hs[t : t + 1], encoded, tanh_rows[t])
            alphas[t] = alpha[0]
            self._cell(token, hs[t], cs[t], context[0], xs[t], gates[t], hs[t + 1], cs[t + 1],
                       tanh_c[t])
        outs = np.concatenate([hs[1:], xs[:, e:]], axis=1)

        def sweep(g):
            wx, score = p["dec.wx"].values, p["attn.score"].values[:, 0]
            w_context_t, w_query_t = wx[e:].T, p["attn.query"].values.T
            tanh_slope = 1.0 - tanh_rows * tanh_rows
            cell_step = _lstm_cell_backward(p["dec.wh"].values, gates, cs[:-1], tanh_c)
            d_out = g @ p["out.w"].values.T
            d_context = d_out[:, n:]  # gains the LSTM input's share step by step
            dz = np.empty_like(gates)
            d_scores = np.empty((steps, units))
            d_pre = np.empty_like(tanh_rows)  # adjoint of keys + query + b
            d_query = np.empty((steps, tanh_rows.shape[2]))
            dh, dc = np.zeros(n), np.zeros(n)
            for t in range(steps - 1, -1, -1):
                dh += d_out[t, :n]
                cell_step(t, dh, dc, dz[t])
                d_context[t] += dz[t].reshape(-1) @ w_context_t
                d_alpha = d_context[t] @ encoded.hidden.T
                np.multiply(alphas[t], d_alpha - (d_alpha * alphas[t]).sum(), out=d_scores[t])
                np.multiply.outer(d_scores[t], score, out=d_pre[t])
                d_pre[t] *= tanh_slope[t]
                d_pre[t].sum(axis=0, out=d_query[t])
                dh += d_query[t] @ w_query_t  # step t's query read h_{t-1}
            dz = dz.reshape(steps, 4 * n)
            d_embed = p["dec.embed"].grad
            d_embed[...] = 0.0
            np.add.at(d_embed, inputs, dz @ wx[:e].T)  # rows added in step order
            d_keys = d_pre.sum(axis=0)
            np.matmul(encoded.hidden.T, d_keys, out=p["attn.keys"].grad)
            np.matmul(xs.T, dz, out=p["dec.wx"].grad)
            np.matmul(hs[:-1].T, dz, out=p["dec.wh"].grad)
            np.matmul(hs[:-1].T, d_query, out=p["attn.query"].grad)
            np.matmul(outs.T, g, out=p["out.w"].grad)
            dz.sum(axis=0, out=p["dec.b"].grad)
            d_query.sum(axis=0, out=p["attn.b"].grad)
            np.matmul(tanh_rows.reshape(steps * units, -1).T, d_scores.reshape(-1, 1),
                      out=p["attn.score"].grad)
            g.sum(axis=0, out=p["out.b"].grad)
            return d_keys @ p["attn.keys"].values.T + alphas.T @ d_context

        return self._logits(outs), sweep
