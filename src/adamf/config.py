"""Flat `key = value` run configuration.

One pair per line, `#` starts a comment, unknown keys are errors.  Every
optional key has a documented default; the fully resolved configuration
(paths absolute, defaults filled in, overrides applied) can be echoed back
out and re-running from the echo reproduces the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .evaluation import TIE_BREAKS
from .model import ALL_PATTERNS, MODALITY_ORDER, ModelConfig
from .training import TrainConfig

_PATH_KEYS = ("train", "valid", "test", "visual_features", "textual_features",
              "out")


@dataclass
class RunConfig:
    # data
    train: str | None = None
    valid: str | None = None
    test: str | None = None
    visual_features: str | None = None
    textual_features: str | None = None
    visual_dim: int = 4096
    textual_dim: int = 768
    modality_missing_ratio: float = 0.0
    # model
    dim: int = 200
    noise_dim: int = 64
    hidden_dim: int = 0                 # 0 = twice the entity dimension
    fusion_mode: str = "adaptive"
    modalities: tuple[str, ...] = ("s", "v", "t")
    leaky_slope: float = 0.01
    gamma: float = 12.0
    beta: float = 1.0
    selfadv_sign: str = "negated"
    precision: str = "single"
    # training
    k_negatives: int = 64
    adv_groups: int = 1
    adv_lambda: float = 0.01
    adversarial_patterns: tuple[str, ...] = ALL_PATTERNS
    mat_enabled: bool = True
    lr_d: float = 1e-4
    lr_g: float = 1e-4
    batch_size: int = 1024
    epochs: int = 1000
    validate_every: int = 50
    keep_best: bool = True
    negative_filtering: bool = False
    # evaluation
    eval_ks: tuple[int, ...] = (1, 3, 10)
    tie_break: str = "optimistic"
    # run
    seed: int = 0
    out: str | None = None

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            d=self.dim, visual_dim=self.visual_dim, textual_dim=self.textual_dim,
            noise_dim=self.noise_dim, hidden_dim=self.hidden_dim,
            fusion_mode=self.fusion_mode, modalities=self.modalities,
            leaky_slope=self.leaky_slope, gamma=self.gamma, beta=self.beta,
            selfadv_sign=self.selfadv_sign, precision=self.precision)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            k_negatives=self.k_negatives, adv_groups=self.adv_groups,
            adv_lambda=self.adv_lambda, lr_d=self.lr_d, lr_g=self.lr_g,
            batch_size=self.batch_size, epochs=self.epochs,
            mat_enabled=self.mat_enabled,
            adversarial_patterns=self.adversarial_patterns,
            negative_filtering=self.negative_filtering,
            validate_every=self.validate_every, keep_best=self.keep_best,
            seed=self.seed)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_bool(key, raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def parse_eval_ks(raw: str) -> tuple[int, ...]:
    """Hit@K cutoffs from comma-separated positive ints (`eval_ks`, `--ks`)."""
    try:
        ks = tuple(int(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"eval_ks: expected comma-separated ints, got {raw!r}")
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"eval_ks: cutoffs must be positive, got {raw!r}")
    return ks


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _PATH_KEYS:
        return raw or None
    if key == "modalities":
        letters = [p for chunk in raw.split(",") for p in chunk.strip()]
        bad = [p for p in letters if p not in MODALITY_ORDER]
        if bad:
            raise ConfigError(f"modalities: unknown entries {bad} in {raw!r}")
        return tuple(m for m in MODALITY_ORDER if m in letters)
    if key == "adversarial_patterns":
        tokens = tuple(p.strip() for p in raw.split(",") if p.strip())
        bad = [p for p in tokens if p not in ALL_PATTERNS]
        if bad:
            raise ConfigError(f"adversarial_patterns: unknown entries {bad}")
        return tuple(p for p in ALL_PATTERNS if p in tokens)
    if key == "eval_ks":
        return parse_eval_ks(raw)
    if key == "tie_break" and raw not in TIE_BREAKS:
        raise ConfigError(f"tie_break: expected one of {', '.join(TIE_BREAKS)}, "
                          f"got {raw!r}")
    hint = _FIELD_TYPES[key]
    try:
        if hint == "bool":
            return _parse_bool(key, raw)
        if hint == "int":
            return int(raw)
        if hint == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {hint}, got {raw!r}")
    return raw


def _format_value(key: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(path) -> RunConfig:
    """Read a flat key = value file into a RunConfig.

    Relative data/output paths are resolved against the config file's own
    directory, so a config travels with its dataset.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(path)))
    cfg = RunConfig()
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, "
                                  f"got {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            seen.add(key)
            value = _parse_value(key, raw)
            if key in _PATH_KEYS and value is not None and not os.path.isabs(value):
                value = os.path.normpath(os.path.join(base, value))
            setattr(cfg, key, value)
    return cfg


def echo_config(cfg: RunConfig) -> str:
    """Canonical text form of the resolved config, stable key order."""
    lines = [f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


# The hyperparameter grid the reference experiments searched over.  Values
# outside it are accepted — these drive advisory warnings only.
GRID_GUIDANCE = {
    "dim": (200,),
    "batch_size": (1024,),
    "noise_dim": (64,),
    "adv_groups": (1,),
    "k_negatives": (32, 64, 128),
    "gamma": (1.0, 2.0, 4.0, 8.0, 12.0),
    "beta": (0.5, 1.0, 2.0),
    "lr_d": (1e-3, 1e-4, 1e-5),
    "lr_g": (1e-3, 1e-4, 1e-5),
    "adv_lambda": (0.1, 0.01, 0.001),
}


def grid_warnings(cfg: RunConfig) -> list[str]:
    warnings = []
    for key, accepted in GRID_GUIDANCE.items():
        value = getattr(cfg, key)
        if value not in accepted:
            shown = ", ".join(str(v) for v in accepted)
            warnings.append(f"{key} = {_format_value(key, value)} is outside "
                            f"the reference grid {{{shown}}}; proceeding anyway")
    return warnings
