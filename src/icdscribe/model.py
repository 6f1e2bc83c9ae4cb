"""Attention-based sequence-to-sequence acoustic model.

The encoder runs a causal convolution stack over the spectrogram, then a
pyramid of unidirectional LSTM layers.  Every pyramid layer concatenates
beta consecutive outputs of the layer below into one input, so J layers
shrink T_conv frames to ceil(T_conv / beta**J) encoder states; a final
group short of beta rows is padded with zeros.  Nothing reads future
frames, so the encoder can run incrementally.  Each layer is one
whole-sequence `lstm` op; the decoder runs the same op one step at a time.

The decoder is a single LSTM.  At step i it attends over the encoder
states with its previous hidden state, consumes the previous token's
embedding concatenated with that context, and projects [state, context]
to vocabulary logits.  Scoring is additive: e_j = w . tanh(W s + V h_j + b).
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    conv1d,
    lstm,
    matmul,
    narrow,
    parameter_vectors,
    relu,
    reshape,
    softmax,
    tanh,
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
    """Decoder sizes; the vocabulary size comes from the dataset."""

    embedding_dim: int = 64
    hidden: int = 128
    attention_dim: int = 64

    def __post_init__(self):
        if min(self.embedding_dim, self.hidden, self.attention_dim) < 1:
            raise ContractError("decoder dimensions must be positive")


@dataclass
class EncoderOutput:
    hidden: Tensor  # [U, encoder hidden]
    keys: Tensor  # [U, attention dim]: hidden @ attn.keys, shared by every decode step

    @property
    def reduced_steps(self):
        return self.hidden.shape[0]


def standardize_spectrogram(values):
    """Per-utterance zero-mean, unit-variance feature normalization."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    return (values - values.mean()) / (std if std > 1e-8 else 1.0)


class Seq2SeqModel:
    """Encoder, attention and decoder parameters plus their wiring."""

    def __init__(self, encoder_cfg, decoder_cfg, vocab_size, input_dim, seed=0, values=None):
        if vocab_size < 5:
            raise ContractError("vocabulary needs the four specials plus content words")
        self.encoder_cfg = encoder_cfg
        self.decoder_cfg = decoder_cfg
        self.vocab_size = vocab_size
        self.input_dim = input_dim
        self.seed = seed
        layout = {}  # name -> (shape, fan-in or initial values), in registration order

        def param(name, shape, fan_in=None):
            layout[name] = (shape, fan_in or shape[0])

        def bias(name, values):
            layout[name] = (values.shape, values)

        channels = input_dim
        for l, spec in enumerate(encoder_cfg.conv):
            param(f"conv{l}.w", (spec.kernel, channels, spec.channels), fan_in=spec.kernel * channels)
            bias(f"conv{l}.b", np.zeros(spec.channels))
            channels = spec.channels

        def lstm_params(prefix, in_dim, n):
            param(f"{prefix}.wx", (in_dim, 4 * n))
            param(f"{prefix}.wh", (n, 4 * n))
            # open forget gates (i, f, g, o) at init so early state survives long sequences
            bias(f"{prefix}.b", np.repeat([0.0, 1.0, 0.0, 0.0], n))

        in_dim = channels * encoder_cfg.beta
        for j in range(encoder_cfg.layers):
            lstm_params(f"enc{j}", in_dim, encoder_cfg.hidden)
            in_dim = encoder_cfg.hidden * encoder_cfg.beta

        param("dec.embed", (vocab_size, decoder_cfg.embedding_dim),
              fan_in=decoder_cfg.embedding_dim)
        lstm_params("dec", decoder_cfg.embedding_dim + encoder_cfg.hidden, decoder_cfg.hidden)

        param("attn.query", (decoder_cfg.hidden, decoder_cfg.attention_dim))
        param("attn.keys", (encoder_cfg.hidden, decoder_cfg.attention_dim))
        bias("attn.b", np.zeros(decoder_cfg.attention_dim))
        param("attn.score", (decoder_cfg.attention_dim, 1))

        param("out.w", (decoder_cfg.hidden + encoder_cfg.hidden, vocab_size))
        bias("out.b", np.zeros(vocab_size))
        # every parameter's values and grad are views into these two vectors; stored
        # `values` (a checkpoint's) are adopted in place of the seeded draw
        rng = np.random.default_rng(stable_seed("model-init", seed)) if values is None else None
        self.values, self.grads, self._params = parameter_vectors(layout, rng, values)

    def named_parameters(self):
        return dict(self._params)

    # ----------------------------------------------------------------- encoder

    def encode(self, x):
        values = np.asarray(x, dtype=np.float64)
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
        beta, n = self.encoder_cfg.beta, self.encoder_cfg.hidden
        for j in range(self.encoder_cfg.layers):
            frames, width = out.shape
            steps = -(-frames // beta)
            if steps * beta > frames:
                out = concat([out, zeros((steps * beta - frames, width))], axis=0)
            weights = [self._params[f"enc{j}.{k}"] for k in ("wx", "wh", "b")]
            states = lstm(reshape(out, (steps, beta * width)), zeros((1, n)), zeros((1, n)), *weights)
            out = narrow(states, 1, 0, n)
        return EncoderOutput(hidden=out, keys=matmul(out, self._params["attn.keys"]))

    # --------------------------------------------------------------- attention

    def attention_scores(self, s_prev, encoder_output):
        """Unnormalized additive scores, one per encoder step, as [1, U]."""
        query = matmul(s_prev, self._params["attn.query"])
        e = matmul(tanh(add(add(encoder_output.keys, query), self._params["attn.b"])),
                   self._params["attn.score"])
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
        if not 0 <= prev_token < self.vocab_size:
            raise IndexError(f"token id {prev_token} outside vocabulary of {self.vocab_size}")
        embedding = narrow(self._params["dec.embed"], 0, int(prev_token), 1)
        n = self.decoder_cfg.hidden
        states = lstm(concat([embedding, context], axis=1), *state,
                      self._params["dec.wx"], self._params["dec.wh"], self._params["dec.b"])
        h, c = narrow(states, 1, 0, n), narrow(states, 1, n, n)
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

