"""Versioned training checkpoints.

A checkpoint stores the run config, the vocabulary, every named parameter
tensor in row-major order, the completed-epoch counter, and (optionally)
the optimizer moments, so a run can resume on the exact trajectory it
left.  Floats survive the JSON round trip bit for bit because the encoder
emits shortest round-trippable representations.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import AdamState
from .config import RunConfig
from .data import Vocabulary
from .errors import ConfigError, ValidationError
from .model import DecoderConfig, Seq2SeqModel
from .schema import from_payload, read_document, to_payload, write_document

CKPT_FORMAT = "ckpt-v1"


@dataclass
class AdamMoments:
    m: object  # flat float lists, left unconverted until restore_optimizer
    v: object


@dataclass
class AdamPayload:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int
    moments: list[AdamMoments]


@dataclass
class Checkpoint:
    config: RunConfig
    vocabulary: Vocabulary
    parameters: dict  # name -> float64 array
    step: int  # completed training epochs
    optimizer: object  # AdamPayload, or None


def fresh_model(config, vocab):
    return Seq2SeqModel(
        config.encoder,
        DecoderConfig(len(vocab), **asdict(config.decoder)),
        input_dim=config.dataset.frontend.n_mels,
        seed=config.seed,
    )


def save_checkpoint(path, model, vocab, config, step, optimizer=None):
    payload = {
        "config": config.to_dict(),
        "vocabulary": vocab.content_words,
        "step": int(step),
        "parameters": [
            {
                "name": name,
                "shape": list(tensor.values.shape),
                "values": tensor.values.ravel().tolist(),
            }
            for name, tensor in model.named_parameters().items()
        ],
        "optimizer": None if optimizer is None else _optimizer_payload(optimizer),
    }
    write_document(path, CKPT_FORMAT, payload)


def _optimizer_payload(state):
    moments = [AdamMoments(m.ravel().tolist(), v.ravel().tolist()) for m, v in zip(state.m, state.v)]
    return to_payload(AdamPayload(state.lr, state.beta1, state.beta2, state.eps, state.step, moments))


def load_checkpoint(path):
    return read_document(path, CKPT_FORMAT, _checkpoint_from_payload)


def _float_array(values, shape, what):
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} is not a list of numbers") from exc
    if array.size != int(np.prod(shape, dtype=np.int64)):
        raise ValidationError(f"{what} has {array.size} values for shape {shape}")
    if not np.isfinite(array).all():
        raise ConfigError(f"{what} holds a non-finite or non-numeric value")
    return array.reshape(shape)


def _checkpoint_from_payload(payload):
    parameters = {}
    for entry in payload["parameters"]:
        name = from_payload(str, entry["name"], "parameters.name")
        shape = from_payload(tuple[int, ...], entry["shape"], "parameters.shape")
        parameters[name] = _float_array(entry["values"], shape, f"parameter {name!r}")
    optimizer = payload["optimizer"]
    return Checkpoint(
        config=RunConfig.from_dict(payload["config"]),
        vocabulary=Vocabulary(from_payload(list[str], payload["vocabulary"], "vocabulary")),
        parameters=parameters,
        step=from_payload(int, payload["step"], "step"),
        optimizer=None if optimizer is None else from_payload(AdamPayload, optimizer, "optimizer"),
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
    if len(stored.moments) != len(params):
        raise ValidationError(
            f"optimizer state covers {len(stored.moments)} parameters, model has {len(params)}"
        )
    state = AdamState(
        params, lr=stored.lr, beta1=stored.beta1, beta2=stored.beta2, eps=stored.eps
    )
    state.step = stored.step
    for i, (p, entry) in enumerate(zip(params, stored.moments)):
        state.m[i][...] = _float_array(entry.m, p.values.shape, f"optimizer moment m[{i}]")
        state.v[i][...] = _float_array(entry.v, p.values.shape, f"optimizer moment v[{i}]")
    return state
