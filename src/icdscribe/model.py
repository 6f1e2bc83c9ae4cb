"""Attention-based sequence-to-sequence acoustic model.

The encoder runs a causal convolution stack over the spectrogram, then a
pyramid of unidirectional LSTM layers.  Every pyramid layer concatenates
beta consecutive outputs of the layer below into one input, so J layers
shrink T_conv frames to ceil(T_conv / beta**J) encoder states; groups
short of beta rows are padded with zeros.  Nothing reads future frames,
so the encoder can run incrementally.

The decoder is a single LSTM.  At step i it attends over the encoder
states with its previous hidden state, consumes the previous token's
embedding concatenated with that context, and projects [state, context]
to vocabulary logits.  Scoring is additive: e_j = w . tanh(W s + V h_j + b).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    conv1d,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    uniform_init,
    zeros,
)
from .data import EOS, PAD, SOS
from .errors import ContractError
from .seeds import stable_seed


@dataclass
class ConvSpec:
    channels: int = 32
    stride: int = 2
    dilation: int = 1
    kernel: int = 3

    def __post_init__(self):
        if self.stride < 1 or self.kernel < 1 or self.dilation < 1 or self.channels < 1:
            raise ContractError(f"conv layer fields must be positive: {self}")


@dataclass
class EncoderConfig:
    conv: tuple[ConvSpec, ...] = field(
        default_factory=lambda: (ConvSpec(32, 2, 1), ConvSpec(32, 2, 2))
    )
    layers: int = 2
    beta: int = 2
    hidden: int = 128

    def __post_init__(self):
        if self.beta < 2:
            raise ContractError(f"pyramid factor must be at least 2, got {self.beta}")
        if self.layers < 1 or self.hidden < 1:
            raise ContractError("encoder needs at least one layer and one hidden unit")


@dataclass
class DecoderConfig:
    vocab_size: int
    embedding_dim: int = 64
    hidden: int = 128
    attention_dim: int = 64

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ContractError("vocabulary needs the four specials plus content words")


@dataclass
class EncoderOutput:
    hidden: Tensor  # [U, encoder hidden]

    @property
    def reduced_steps(self):
        return self.hidden.shape[0]


def standardize_spectrogram(values):
    """Per-utterance zero-mean, unit-variance feature normalization."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    return (values - values.mean()) / (std if std > 1e-8 else 1.0)


class LstmCell:
    """Single LSTM step over [1, input] rows; gate order i, f, g, o."""

    def __init__(self, wx, wh, b, hidden):
        self.wx = wx
        self.wh = wh
        self.b = b
        self.hidden = hidden

    def step(self, x, h, c):
        gates = add(add(matmul(x, self.wx), matmul(h, self.wh)), self.b)
        n = self.hidden
        i = sigmoid(narrow(gates, 1, 0, n))
        f = sigmoid(narrow(gates, 1, n, n))
        g = tanh(narrow(gates, 1, 2 * n, n))
        o = sigmoid(narrow(gates, 1, 3 * n, n))
        c_next = add(mul(f, c), mul(i, g))
        h_next = mul(o, tanh(c_next))
        return h_next, c_next


class Seq2SeqModel:
    """Encoder, attention and decoder parameters plus their wiring."""

    def __init__(self, encoder_cfg, decoder_cfg, input_dim, seed=0):
        self.encoder_cfg = encoder_cfg
        self.decoder_cfg = decoder_cfg
        self.input_dim = input_dim
        self.seed = seed
        self._params = {}
        rng = np.random.default_rng(stable_seed("model-init", seed))

        def param(name, shape, fan_in=None):
            self._params[name] = uniform_init(rng, shape, fan_in=fan_in)
            return self._params[name]

        def bias(name, size):
            self._params[name] = Tensor(np.zeros(size), requires_grad=True)
            return self._params[name]

        channels = input_dim
        for l, spec in enumerate(encoder_cfg.conv):
            param(f"conv{l}.w", (spec.kernel, channels, spec.channels), fan_in=spec.kernel * channels)
            bias(f"conv{l}.b", spec.channels)
            channels = spec.channels

        self._enc_cells = []
        in_dim = channels * encoder_cfg.beta
        for j in range(encoder_cfg.layers):
            cell = LstmCell(
                param(f"enc{j}.wx", (in_dim, 4 * encoder_cfg.hidden)),
                param(f"enc{j}.wh", (encoder_cfg.hidden, 4 * encoder_cfg.hidden)),
                bias(f"enc{j}.b", 4 * encoder_cfg.hidden),
                encoder_cfg.hidden,
            )
            # open forget gates at init so early state survives long sequences
            cell.b.values[encoder_cfg.hidden : 2 * encoder_cfg.hidden] = 1.0
            self._enc_cells.append(cell)
            in_dim = encoder_cfg.hidden * encoder_cfg.beta

        param("dec.embed", (decoder_cfg.vocab_size, decoder_cfg.embedding_dim),
              fan_in=decoder_cfg.embedding_dim)
        self._dec_cell = LstmCell(
            param("dec.wx", (decoder_cfg.embedding_dim + encoder_cfg.hidden, 4 * decoder_cfg.hidden)),
            param("dec.wh", (decoder_cfg.hidden, 4 * decoder_cfg.hidden)),
            bias("dec.b", 4 * decoder_cfg.hidden),
            decoder_cfg.hidden,
        )
        self._dec_cell.b.values[decoder_cfg.hidden : 2 * decoder_cfg.hidden] = 1.0

        param("attn.query", (decoder_cfg.hidden, decoder_cfg.attention_dim))
        param("attn.keys", (encoder_cfg.hidden, decoder_cfg.attention_dim))
        bias("attn.b", decoder_cfg.attention_dim)
        param("attn.score", (decoder_cfg.attention_dim, 1))

        param("out.w", (decoder_cfg.hidden + encoder_cfg.hidden, decoder_cfg.vocab_size))
        bias("out.b", decoder_cfg.vocab_size)

    def parameters(self):
        return list(self._params.values())

    def named_parameters(self):
        return dict(self._params)

    # ----------------------------------------------------------------- encoder

    def encode(self, x):
        values = getattr(x, "values", x)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ContractError(f"encoder needs a nonempty [T, F] spectrogram, got {values.shape}")
        if values.shape[1] != self.input_dim:
            raise ContractError(
                f"spectrogram has {values.shape[1]} channels, model expects {self.input_dim}"
            )
        out = Tensor(values)
        for l, spec in enumerate(self.encoder_cfg.conv):
            out = relu(
                conv1d(out, self._params[f"conv{l}.w"], self._params[f"conv{l}.b"],
                       stride=spec.stride, dilation=spec.dilation)
            )
        rows = [narrow(out, 0, t, 1) for t in range(out.shape[0])]
        for cell in self._enc_cells:
            rows = self._pyramid_pass(rows, cell)
        return EncoderOutput(hidden=concat(rows, axis=0))

    def _pyramid_pass(self, rows, cell):
        beta = self.encoder_cfg.beta
        width = rows[0].shape[1]
        h = zeros((1, cell.hidden))
        c = zeros((1, cell.hidden))
        out = []
        for start in range(0, len(rows), beta):
            group = rows[start : start + beta]
            group.extend(zeros((1, width)) for _ in range(beta - len(group)))
            h, c = cell.step(concat(group, axis=1), h, c)
            out.append(h)
        return out

    # --------------------------------------------------------------- attention

    def attention_scores(self, s_prev, encoder_output):
        """Unnormalized additive scores, one per encoder step, as [1, U]."""
        query = matmul(s_prev, self._params["attn.query"])
        keys = matmul(encoder_output.hidden, self._params["attn.keys"])
        e = matmul(tanh(add(add(keys, query), self._params["attn.b"])), self._params["attn.score"])
        return reshape(e, (1, encoder_output.reduced_steps))

    def attend(self, s_prev, encoder_output):
        alpha = softmax(self.attention_scores(s_prev, encoder_output))
        context = matmul(alpha, encoder_output.hidden)
        return alpha, context

    # ----------------------------------------------------------------- decoder

    def start_state(self):
        n = self.decoder_cfg.hidden
        return zeros((1, n)), zeros((1, n))

    def decode_step(self, prev_token, state, context):
        if not 0 <= prev_token < self.decoder_cfg.vocab_size:
            raise IndexError(
                f"token id {prev_token} outside vocabulary of {self.decoder_cfg.vocab_size}"
            )
        embedding = narrow(self._params["dec.embed"], 0, int(prev_token), 1)
        h, c = self._dec_cell.step(concat([embedding, context], axis=1), *state)
        logits = add(matmul(concat([h, context], axis=1), self._params["out.w"]), self._params["out.b"])
        return (h, c), logits

    def forward_teacher_forced(self, x, target, input_tokens=None):
        """Logit rows for positions 1..len(target)-1.

        `input_tokens` overrides what the decoder consumes (scheduled
        sampling); prediction targets are unaffected.
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
        state = self.start_state()
        rows = []
        for token in inputs:
            _, context = self.attend(state[0], encoded)
            state, logits = self.decode_step(token, state, context)
            rows.append(logits)
        return concat(rows, axis=0)


def reduced_length(t_conv, beta, layers):
    """Encoder steps produced for a post-convolution frame count."""
    return max(1, math.ceil(t_conv / beta**layers))
