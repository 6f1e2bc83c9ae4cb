"""Versioned training checkpoints.

A checkpoint stores the run config, the vocabulary, every named parameter
tensor, the completed-epoch counter, and (optionally) the Adam state, so a
run can resume on the exact trajectory it left.  The file is one line of
compact, sorted-key JSON (the header: format tag, config, vocabulary, step,
the parameter names and shapes in registration order, and the Adam
hyperparameters or null), a newline, and then the raw bytes of one
little-endian float64 array: the model's flat parameter vector, then the
Adam `m` and `v` vectors when an optimizer is saved.  These are the
vectors as they lie in memory, so saving writes three arrays and loading
copies one or two slices.  Raw bytes round trip bit for bit, and a
rewrite of the same state is byte-identical.
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
    parameters: list  # ParameterEntry per parameter, in blob order
    step: int  # completed training epochs
    optimizer: object  # AdamPayload, or None
    blob: np.ndarray  # read-only float64: the parameter vector, then Adam m and v if saved


def fresh_model(config, vocab, values=None):
    return Seq2SeqModel(
        config.encoder,
        DecoderConfig(len(vocab), **asdict(config.decoder)),
        input_dim=config.dataset.frontend.n_mels,
        seed=config.seed,
        values=values,
    )


def _layout(model):
    return [ParameterEntry(name, t.shape) for name, t in model.named_parameters().items()]


def save_checkpoint(path, model, vocab, config, step, optimizer=None):
    vectors, adam = [model.values], None
    if optimizer is not None:
        vectors += [optimizer.m, optimizer.v]
        adam = to_payload(AdamPayload(
            optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.eps, optimizer.step
        ))
    header = CheckpointHeader(
        config=config,
        vocabulary=vocab.content_words,
        step=int(step),
        parameters=_layout(model),
        optimizer=adam,
    )
    line = json.dumps(
        {"format": CKPT_FORMAT, **to_payload(header)}, sort_keys=True, separators=(",", ":")
    )
    with atomic_write(path) as fh:
        fh.write(line.encode("utf-8") + b"\n")
        for vector in vectors:
            fh.write(np.ascontiguousarray(vector, dtype="<f8"))


def load_checkpoint(path):
    """The checkpoint at `path`; its blob is a view into the bytes read."""
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
    count = sum(math.prod(entry.shape) for entry in header.parameters)
    count *= 1 if optimizer is None else 3
    if len(blob) != 8 * count:
        raise ConfigError(f"blob holds {len(blob)} bytes, header declares {count} float64 values")
    values = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(values).all():
        raise ConfigError("blob holds a non-finite value")
    if len({entry.name for entry in header.parameters}) != len(header.parameters):
        raise ConfigError("a parameter name appears twice")
    return Checkpoint(header.config, Vocabulary(header.vocabulary), header.parameters,
                      header.step, optimizer, blob=values)


def build_model(checkpoint):
    """Reconstruct the model around a copy of the stored parameters; nothing is drawn."""
    count = sum(math.prod(entry.shape) for entry in checkpoint.parameters)
    model = fresh_model(checkpoint.config, checkpoint.vocabulary, values=checkpoint.blob[:count])
    stored, wanted = checkpoint.parameters, _layout(model)
    if stored != wanted:
        differ = sorted({(e.name, e.shape) for e in stored} ^ {(e.name, e.shape) for e in wanted})
        raise ValidationError(f"checkpoint parameters do not match the model: "
                              f"{differ[:4] or 'the same parameters in another order'}")
    return model


def restore_optimizer(checkpoint, model):
    """Rebuild the Adam vectors saved alongside the parameters of `model`."""
    stored = checkpoint.optimizer
    if stored is None:
        raise ValidationError("checkpoint carries no optimizer state")
    n = model.values.size
    if checkpoint.blob.size != 3 * n:
        raise ValidationError(f"optimizer state covers {checkpoint.blob.size // 3} values, "
                              f"model has {n}")
    state = AdamState(n, stored.lr, stored.beta1, stored.beta2, stored.eps)
    state.step = stored.step
    state.m[...] = checkpoint.blob[n:2 * n]
    state.v[...] = checkpoint.blob[2 * n:]
    return state
