"""Run configuration: one JSON document drives every pipeline command.

The variant is the one model switch: the baseline trains the lesion head
only, multitask adds the tissue head, and multitask_icd also drops T2*
channels in training. The bool `RunConfig.loss` follows the variant;
`validate` requires icd_probability > 0 exactly for multitask_icd, and
`apply_variant` sets both. A document holds only the current keys, each of
its default's type: a float setting also takes an integer, and a list has
its default's length. Any other key or value, such as the sections and
settings removed since, is refused with a ConfigError.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .evaluation import EvalConfig
from .phantom import PhantomSpec
from .sampling import SamplerConfig
from .unet import NetworkConfig

CONFIG_VERSION = 1
VARIANTS = ("baseline", "multitask", "multitask_icd")


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (usage error, exit code 1)."""


@dataclass(frozen=True)
class TrainingConfig:
    iterations: int = 2000
    checkpoint_every: int = 500
    batch_size: int = 1
    learning_rate: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        if self.iterations < 1 or self.checkpoint_every < 1 or self.batch_size < 1:
            raise ConfigError("iterations, checkpoint_every and batch_size must be >= 1")
        if not 0 < self.learning_rate < float("inf"):  # NaN fails too
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"training.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PathsConfig:
    cohort_dir: str = "cohort"
    out_dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    version: int = CONFIG_VERSION
    variant: str = "multitask_icd"
    xval_folds: int = 3
    network: NetworkConfig = field(default_factory=NetworkConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> "RunConfig":
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"config version {self.version} != {CONFIG_VERSION}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.xval_folds < 2:
            raise ConfigError("xval_folds must be >= 2")
        try:
            self.network.validate()
            self.sampler.validate()
            self.eval.validate()
            self.phantom.validate()
            self.training.validate()
        except ConfigError:
            raise
        except Exception as e:
            raise ConfigError(str(e)) from e
        icd = self.variant == "multitask_icd"
        if (self.sampler.icd_probability > 0) != icd:
            raise ConfigError(f"{self.variant} variant requires icd_probability "
                              + ("> 0" if icd else "0"))
        return self

    @property
    def loss(self) -> bool:
        """Whether the tissue head trains: in every variant but the baseline."""
        return self.variant != "baseline"

    def apply_variant(self, variant: str) -> "RunConfig":
        """Copy with the variant and its input-channel dropout set consistently."""
        icd = 0.0
        if variant == "multitask_icd":
            icd = self.sampler.icd_probability or SamplerConfig.icd_probability  # the default
        return dataclasses.replace(self, variant=variant,
                                   sampler=dataclasses.replace(self.sampler, icd_probability=icd))

    def with_master_seed(self, seed: int) -> "RunConfig":
        """Override every seed (training, sampler, phantom) at once."""
        return dataclasses.replace(
            self,
            training=dataclasses.replace(self.training, seed=seed),
            sampler=dataclasses.replace(self.sampler, seed=seed),
            phantom=dataclasses.replace(self.phantom, seed=seed),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        doc = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()


def _typed(value, default, where: str):
    """`value` checked against the type of `default`, its setting's default,
    and returned as that type: a list as a tuple, an integer as a float."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ConfigError(f"{where}: expected a list of {len(default)}, got {value!r}")
        return tuple(_typed(v, d, f"{where}[{i}]")
                     for i, (v, d) in enumerate(zip(value, default)))
    kind = type(default)
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _build(cls, doc: dict, where: str):
    """An instance of the dataclass `cls` from `doc`, whose keys are some of
    its fields, nested sections included; `where` names `doc` in errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    defaults = cls()
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        default = getattr(defaults, key)
        if dataclasses.is_dataclass(default):
            kwargs[key] = _build(type(default), value, key)
        else:
            kwargs[key] = _typed(value, default, f"{where}.{key}")
    return cls(**kwargs)


def config_from_dict(doc: dict) -> RunConfig:
    return _build(RunConfig, doc, "config").validate()


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config JSON {path}: {e}") from e
    return config_from_dict(doc)
