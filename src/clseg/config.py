"""Run configuration: one JSON document drives every pipeline command.

The model variant determines the wiring and must be consistent with the
rest of the config: the baseline runs the lesion head only (tissue head
weight zero) with no input-channel dropout, the multitask variant enables
both heads, and multitask_icd additionally drops T2* channels during
training. `apply_variant` rewires a config consistently; `validate`
rejects hand-written contradictions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .evaluation import EvalConfig
from .layers import ContractError
from .losses import LossConfig
from .phantom import PhantomSpec
from .sampling import SamplerConfig
from .unet import NetworkConfig, drop_fixed_network_keys

CONFIG_VERSION = 1
VARIANTS = ("baseline", "multitask", "multitask_icd")
DEFAULT_ICD_PROBABILITY = 0.5


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


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
    loss: LossConfig = field(default_factory=LossConfig)
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
            self.loss.validate()
            self.sampler.validate()
            self.eval.validate()
            self.phantom.validate()
            self.training.validate()
        except ConfigError:
            raise
        except Exception as e:
            raise ConfigError(str(e)) from e
        icd = self.sampler.icd_probability
        tissue_on = self.loss.tissue_head_enabled
        if self.variant == "baseline" and (icd > 0 or tissue_on):
            raise ConfigError(
                "baseline variant requires icd_probability 0 and tissue head disabled")
        if self.variant == "multitask" and (icd > 0 or not tissue_on):
            raise ConfigError(
                "multitask variant requires icd_probability 0 and tissue head enabled")
        if self.variant == "multitask_icd" and (icd == 0 or not tissue_on):
            raise ConfigError(
                "multitask_icd variant requires icd_probability > 0 and tissue head enabled")
        return self

    def apply_variant(self, variant: str) -> "RunConfig":
        """Copy with the variant and its implied wiring set consistently."""
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
        icd = self.sampler.icd_probability if self.sampler.icd_probability > 0 \
            else DEFAULT_ICD_PROBABILITY
        if variant != "multitask_icd":
            icd = 0.0
        return dataclasses.replace(
            self,
            variant=variant,
            loss=dataclasses.replace(self.loss, tissue_head_enabled=variant != "baseline"),
            sampler=dataclasses.replace(self.sampler, icd_probability=icd),
        )

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


def _build(cls, doc: dict, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in doc:
            v = doc[f.name]
            if isinstance(v, list):
                v = tuple(v)
            kwargs[f.name] = v
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from e


_SECTIONS = {
    "network": NetworkConfig,
    "loss": LossConfig,
    "sampler": SamplerConfig,
    "eval": EvalConfig,
    "phantom": PhantomSpec,
    "training": TrainingConfig,
    "paths": PathsConfig,
}


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    scalar_names = {"version", "variant", "xval_folds"}
    unknown = set(doc) - scalar_names - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")
    kwargs = {k: doc[k] for k in scalar_names if k in doc}
    for name, cls in _SECTIONS.items():
        if name in doc:
            section = doc[name]
            if name == "network" and isinstance(section, dict):
                # configs written while the network had more settings
                try:
                    section = drop_fixed_network_keys(section)
                except ContractError as e:
                    raise ConfigError(str(e)) from e
            kwargs[name] = _build(cls, section, name)
    return RunConfig(**kwargs).validate()


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
