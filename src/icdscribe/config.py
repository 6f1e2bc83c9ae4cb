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
from .schema import check_bounds, from_payload, read_document, to_payload, within, write_document

CONFIG_FORMAT = "config-v4"


@dataclass
class TrainingConfig:
    epochs: int = field(default=40, metadata=within(1))
    clip_norm: float = field(default=5.0, metadata=within(0.0, ends="()"))
    holdout_fraction: float = field(default=0.1, metadata=within(0.0, 1.0, "[)"))
    wer_every: int = field(default=1, metadata=within(0))  # 0 means final epoch only

    __post_init__ = check_bounds


@dataclass
class RunConfig:
    seed: int = field(default=0, metadata=within(0))  # numpy's generators refuse a negative seed
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    __post_init__ = check_bounds

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
