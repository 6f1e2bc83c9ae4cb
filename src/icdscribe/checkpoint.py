"""Versioned training checkpoints.

A checkpoint stores the run config, the vocabulary, every named parameter
tensor, the completed-epoch counter, and (optionally) the Adam state, so a
run can resume on the exact trajectory it left.  The file is one line of
compact, sorted-key JSON (the header: format tag, config, vocabulary, step,
the parameter names and shapes in registration order, and the Adam
hyperparameters or null), a newline, and then the raw bytes of one
little-endian float64 array: every parameter in header order, then every
Adam `m` and every Adam `v` when an optimizer is saved.  Raw bytes round
trip bit for bit, and a rewrite of the same state is byte-identical.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import AdamState
from .config import RunConfig
from .data import Vocabulary
from .errors import ConfigError, ValidationError
from .model import DecoderConfig, Seq2SeqModel
from .schema import atomic_write, decode_document, from_payload, to_payload

CKPT_FORMAT = "ckpt-v2"


@dataclass
class ParameterEntry:
    name: str
    shape: tuple[int, ...]

    def __post_init__(self):
        if any(dim < 0 for dim in self.shape):
            raise ConfigError(f"shape {list(self.shape)} has a negative dimension")


@dataclass
class AdamPayload:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int


@dataclass
class CheckpointHeader:
    config: RunConfig
    vocabulary: list[str]
    step: int  # completed training epochs
    parameters: list[ParameterEntry]
    optimizer: object  # AdamPayload as plain JSON, or None


@dataclass
class Checkpoint:
    config: RunConfig
    vocabulary: Vocabulary
    parameters: dict  # name -> read-only float64 array
    step: int  # completed training epochs
    optimizer: object  # AdamPayload, or None
    moments: list  # (m, v) array pairs in parameter order; empty without an optimizer


def fresh_model(config, vocab):
    return Seq2SeqModel(
        config.encoder,
        DecoderConfig(len(vocab), **asdict(config.decoder)),
        input_dim=config.dataset.frontend.n_mels,
        seed=config.seed,
    )


def save_checkpoint(path, model, vocab, config, step, optimizer=None):
    named = model.named_parameters()
    arrays = [tensor.values for tensor in named.values()]
    adam = None
    if optimizer is not None:
        adam = to_payload(AdamPayload(
            optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.eps, optimizer.step
        ))
        arrays += optimizer.m + optimizer.v
    header = CheckpointHeader(
        config=config,
        vocabulary=vocab.content_words,
        step=int(step),
        parameters=[ParameterEntry(name, t.values.shape) for name, t in named.items()],
        optimizer=adam,
    )
    line = json.dumps(
        {"format": CKPT_FORMAT, **to_payload(header)}, sort_keys=True, separators=(",", ":")
    )
    with atomic_write(path) as fh:
        fh.write(line.encode("utf-8") + b"\n")
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f8"))


def load_checkpoint(path):
    """The checkpoint at `path`; its arrays are views into the bytes read."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = data.partition(b"\n")[0]
    # A whole-file JSON document, such as a ckpt-v1 checkpoint, still names its format.
    found = _declared_format(header) or _declared_format(data)
    if found != CKPT_FORMAT:
        raise ConfigError(
            f"{path}: not a {CKPT_FORMAT} checkpoint (format {found!r:.40}); retrain to write one"
        )
    blob = memoryview(data)[len(header) + 1:]
    return decode_document(path, header, CKPT_FORMAT, lambda p: _checkpoint_from_header(p, blob))


def _declared_format(data):
    """The format tag of the JSON mapping that the bytes `data` start with, or None."""
    try:
        payload = json.JSONDecoder().raw_decode(data.decode("utf-8", "replace"))[0]
    except (ValueError, RecursionError):
        return None
    return payload.get("format") if isinstance(payload, dict) else None


def _checkpoint_from_header(payload, blob):
    header = from_payload(CheckpointHeader, payload)
    optimizer = None
    if header.optimizer is not None:
        optimizer = from_payload(AdamPayload, header.optimizer, "optimizer")
    shapes = [entry.shape for entry in header.parameters] * (1 if optimizer is None else 3)
    count = sum(math.prod(shape) for shape in shapes)
    if len(blob) != 8 * count:
        raise ConfigError(f"blob holds {len(blob)} bytes, header declares {count} float64 values")
    values = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(values).all():
        raise ConfigError("blob holds a non-finite value")
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(values[start:start + size].reshape(shape))
        start += size
    n = len(header.parameters)
    parameters = {entry.name: array for entry, array in zip(header.parameters, arrays)}
    if len(parameters) != n:
        raise ConfigError("a parameter name appears twice")
    return Checkpoint(
        config=header.config,
        vocabulary=Vocabulary(header.vocabulary),
        parameters=parameters,
        step=header.step,
        optimizer=optimizer,
        moments=list(zip(arrays[n:2 * n], arrays[2 * n:])),
    )


def build_model(checkpoint):
    """Reconstruct the model and load the stored parameters into it."""
    model = fresh_model(checkpoint.config, checkpoint.vocabulary)
    named = model.named_parameters()
    if set(named) != set(checkpoint.parameters):
        missing = sorted(set(named) ^ set(checkpoint.parameters))
        raise ValidationError(f"checkpoint parameters do not match the model: {missing[:4]}")
    for name, tensor in named.items():
        stored = checkpoint.parameters[name]
        if stored.shape != tensor.values.shape:
            raise ValidationError(
                f"parameter {name!r}: stored shape {stored.shape}, model {tensor.values.shape}"
            )
        tensor.values[...] = stored
    return model


def restore_optimizer(checkpoint, params):
    """Rebuild the Adam accumulators saved alongside the parameters."""
    stored = checkpoint.optimizer
    if stored is None:
        raise ValidationError("checkpoint carries no optimizer state")
    if len(checkpoint.moments) != len(params):
        raise ValidationError(
            f"optimizer state covers {len(checkpoint.moments)} parameters, model has {len(params)}"
        )
    state = AdamState(
        params, lr=stored.lr, beta1=stored.beta1, beta2=stored.beta2, eps=stored.eps
    )
    state.step = stored.step
    for i, (p, (m, v)) in enumerate(zip(params, checkpoint.moments)):
        if m.shape != p.values.shape:
            raise ValidationError(
                f"optimizer moment {i}: stored shape {m.shape}, model {p.values.shape}"
            )
        state.m[i][...] = m
        state.v[i][...] = v
    return state
