"""Versioned training checkpoints.

A checkpoint stores the run config, the vocabulary, every named parameter
tensor, the completed-epoch counter, and the Adam state, so a run can
resume on the exact trajectory it left.  The file is one line of compact,
sorted-key JSON (the header: format tag, config, vocabulary, step, the
parameter names and shapes in registration order, and Adam's update
count), a newline, and then the raw bytes of one little-endian float64
array: the model's flat parameter vector, then the Adam `m` and `v`
vectors.  These are the vectors as they lie in memory, so saving writes
three arrays.  Loading
reads the header line and then only the parameter vector; Adam's vectors
are read by `restore_optimizer`, which only a resumed run needs.  Adam's
hyperparameters are the config's `optimizer` section, stored once.  Raw
bytes round trip bit for bit, and a rewrite of the same state is
byte-identical.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamState
from .config import RunConfig
from .data import Vocabulary
from .errors import ContractError
from .model import Seq2SeqModel
from .schema import atomic_write, check_bounds, decode_document, from_payload, to_payload, within

CKPT_FORMAT = "ckpt-v5"


@dataclass
class ParameterEntry:
    name: str
    shape: tuple[int, ...]

    def __post_init__(self):
        if any(dim < 0 for dim in self.shape):
            raise ContractError(f"shape {list(self.shape)} has a negative dimension")


@dataclass
class CheckpointHeader:
    config: RunConfig
    vocabulary: list[str]
    step: int = field(metadata=within(0))  # completed training epochs
    parameters: list[ParameterEntry]
    optimizer: int = field(metadata=within(0))  # Adam's update count

    def __post_init__(self):
        check_bounds(self)
        if self.vocabulary != sorted(set(self.vocabulary)):  # as `save_checkpoint` writes it
            raise ContractError("vocabulary must be strictly ascending: sorted, each word once")


@dataclass
class Checkpoint:
    config: RunConfig
    vocabulary: Vocabulary
    parameters: list  # ParameterEntry per parameter, in blob order
    step: int  # completed training epochs
    optimizer: int  # Adam's update count
    blob: np.ndarray  # float64 parameter vector, adopted by `build_model`
    path: str  # the file, which holds Adam's m and v after the parameters
    moments_at: int  # byte offset of Adam's m in that file


def fresh_model(config, vocab, values=None):
    return Seq2SeqModel(
        config.encoder,
        config.decoder,
        len(vocab),
        input_dim=config.dataset.frontend.n_mels,
        seed=config.seed,
        values=values,
    )


def _layout(model):
    return [ParameterEntry(name, t.shape) for name, t in model.named_parameters().items()]


def save_checkpoint(path, model, vocab, config, step, optimizer):
    """Write `path`: `config`, whose `optimizer` holds Adam's hyperparameters, and the state."""
    header = CheckpointHeader(
        config=config,
        vocabulary=vocab.content_words,
        step=int(step),
        parameters=_layout(model),
        optimizer=optimizer.step,
    )
    line = json.dumps(
        {"format": CKPT_FORMAT, **to_payload(header)}, sort_keys=True, separators=(",", ":")
    )
    with atomic_write(path) as fh:
        fh.write(line.encode("utf-8") + b"\n")
        for vector in (model.values, optimizer.m, optimizer.v):
            fh.write(np.ascontiguousarray(vector, dtype="<f8"))


def load_checkpoint(path):
    """The checkpoint at `path`: its parameter vector is read and checked, Adam's is not read."""
    with open(path, "rb") as fh:
        line = fh.readline()
        blob_bytes = os.fstat(fh.fileno()).st_size - len(line)
        return decode_document(path, line.removesuffix(b"\n"), CKPT_FORMAT,
                               lambda p: _checkpoint_from_header(p, path, fh, blob_bytes))


def _read_finite(fh, count, what):
    """`count` float64s read from `fh`; a short read or a non-finite value raises."""
    values = np.empty(count, dtype="<f8")
    if fh.readinto(values) != values.nbytes:
        raise ContractError(f"{what} ends early")
    if not np.isfinite(values).all():
        raise ContractError(f"{what} holds a non-finite value")
    return values


def _checkpoint_from_header(payload, path, fh, blob_bytes):
    header = from_payload(CheckpointHeader, payload)
    count = sum(math.prod(entry.shape) for entry in header.parameters)
    if blob_bytes != 8 * 3 * count:
        raise ContractError(f"blob holds {blob_bytes} bytes, "
                            f"header declares {3 * count} float64 values")
    if len({entry.name for entry in header.parameters}) != len(header.parameters):
        raise ContractError("a parameter name appears twice")
    values = _read_finite(fh, count, "the parameter vector")
    return Checkpoint(header.config, Vocabulary(header.vocabulary), header.parameters,
                      header.step, header.optimizer, blob=values, path=os.fspath(path),
                      moments_at=fh.tell())


def build_model(checkpoint):
    """Reconstruct the model around `checkpoint.blob`, adopted without a copy; nothing is drawn."""
    model = fresh_model(checkpoint.config, checkpoint.vocabulary, values=checkpoint.blob)
    stored, wanted = checkpoint.parameters, _layout(model)
    if stored != wanted:
        differ = sorted({(e.name, e.shape) for e in stored} ^ {(e.name, e.shape) for e in wanted})
        raise ContractError(f"checkpoint parameters do not match the model: "
                            f"{differ[:4] or 'the same parameters in another order'}")
    return model


def restore_optimizer(checkpoint, model):
    """Read back the Adam vectors saved alongside the parameters of `model`.

    `m` and `v` are the two halves of the array read, adopted without a copy.
    """
    n = model.values.size
    if checkpoint.blob.size != n:
        raise ContractError(f"optimizer state covers {checkpoint.blob.size} values, "
                            f"model has {n}")
    with open(checkpoint.path, "rb") as fh:
        fh.seek(checkpoint.moments_at)
        moments = _read_finite(fh, 2 * n, f"{checkpoint.path}: the optimizer state")
    state = AdamState(n)
    state.step = checkpoint.optimizer
    state.m, state.v = moments[:n], moments[n:]
    return state
