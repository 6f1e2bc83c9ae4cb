"""One declarative document configuring every stage of the pipeline.

A run config written to disk always materializes every default, so the
stored copy alone reproduces the run.  Parsing is strict (see schema): any
key the dataclasses do not declare, or any value of the wrong type, is
rejected with its dotted path.
"""

from dataclasses import dataclass, field

from .autodiff import OptimizerConfig
from .data import DatasetConfig
from .errors import ContractError
from .fusion import FusionConfig
from .model import DecoderConfig, EncoderConfig
from .schema import from_payload, read_document, to_payload, write_document

CONFIG_FORMAT = "config-v3"


@dataclass
class TrainingConfig:
    epochs: int = 40
    clip_norm: float = 5.0
    holdout_fraction: float = 0.1
    wer_every: int = 1  # 0 means final epoch only

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError(f"need at least one epoch, got {self.epochs}")
        if self.clip_norm <= 0:
            raise ContractError(f"gradient clip norm must be positive, got {self.clip_norm}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ContractError(f"holdout fraction {self.holdout_fraction} outside [0, 1)")
        if self.wer_every < 0:
            raise ContractError("decode cadence cannot be negative")


@dataclass
class RunConfig:
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators refuse a negative seed
            raise ContractError(f"seed must be at least 0, got {self.seed}")

    @classmethod
    def from_dict(cls, payload):
        """Parse a config document; the format tag is optional, but must match when present."""
        if isinstance(payload, dict) and "format" in payload:
            payload = dict(payload)
            declared = payload.pop("format")
            if declared != CONFIG_FORMAT:
                raise ContractError(f"unsupported config format {declared!r:.40}")
        return from_payload(cls, payload)


def save_run_config(config, path):
    write_document(path, CONFIG_FORMAT, to_payload(config))


def load_run_config(path):
    return read_document(path, None, RunConfig.from_dict)
