"""Flat `key = value` run configuration.

One pair per line, `#` starts a comment, unknown keys are errors.  Every
optional key has a documented default; the fully resolved configuration
(paths absolute, defaults filled in, --out applied) can be echoed back
out and re-running from the echo reproduces the run.

The keys are the fields of `RunConfig` and of its `ModelConfig` and
`TrainConfig` sections in one flat space; the parser only turns strings
into typed values, and each dataclass validates its own fields.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ContractError
from .evaluation import TIE_BREAKS
from .model import ModelConfig
from .training import TrainConfig

_SECTIONS = {"model": ModelConfig, "training": TrainConfig}
_RENAMED = {"d": "dim"}    # section field -> its config key


@dataclass
class RunConfig:
    """Data, evaluation and run settings around one model and one training
    configuration.  Every `str | None` field is a path."""
    train: str | None = None
    valid: str | None = None
    test: str | None = None
    visual_features: str | None = None
    textual_features: str | None = None
    modality_missing_ratio: float = 0.0
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    eval_ks: tuple[int, ...] = (1, 3, 10)
    tie_break: str = "optimistic"
    out: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.modality_missing_ratio <= 1.0:
            raise ContractError(f"modality_missing_ratio must be in [0, 1], "
                                f"got {self.modality_missing_ratio}")
        if not self.eval_ks or any(k < 1 for k in self.eval_ks):
            raise ContractError(f"eval_ks: cutoffs must be positive, got {self.eval_ks}")
        if self.tie_break not in TIE_BREAKS:
            raise ContractError(f"tie_break: expected one of {', '.join(TIE_BREAKS)}, "
                                f"got {self.tie_break!r}")


def _key_table() -> dict:
    """Config key -> (RunConfig section holding it, or None; its field)."""
    table = {}
    for f in fields(RunConfig):
        if f.name in _SECTIONS:
            for sub in fields(_SECTIONS[f.name]):
                table[_RENAMED.get(sub.name, sub.name)] = (f.name, sub)
        else:
            table[f.name] = (None, f)
    return table


KEYS = _key_table()


def _int(text: str) -> int:
    """The int written as `text` in the one form `format_value` writes it
    (`str` of the int): no leading zero or `+`, `_` or non-ASCII digit."""
    value = int(text)
    if str(value) != text:
        raise ValueError(text)
    return value


def parse_value(key: str, raw: str):
    """The typed value of config key `key` written as `raw` in the form
    `format_value` writes.  Only splits and converts, refusing number text
    that form never has (an int other than `str` of its value, a float not
    ASCII or with `_` or a leading `+`), an empty or repeated list entry and
    a float that is not finite; names and ranges are checked by the
    dataclass holding the key."""
    raw = raw.strip()
    hint = KEYS[key][1].type
    if hint == "str | None":
        return raw or None
    items = tuple(p.strip() for p in raw.split(",")) if raw else ()
    try:
        if hint == "float" and (not raw.isascii() or "_" in raw or raw.startswith("+")):
            raise ValueError(raw)
        if hint.startswith("tuple["):
            values = items if hint == "tuple[str, ...]" else tuple(_int(p) for p in items if p)
            if "" in items or len(set(values)) < len(values):
                raise ConfigError(f"{key}: expected distinct, non-empty entries, got {raw!r}")
            return values
        if hint == "bool":
            return {"true": True, "false": False}[raw]
        if hint == "int":
            return _int(raw)
        if hint == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
            return value
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {hint}, got {raw!r}")
    return raw


def format_value(value) -> str:
    """Config-file text of a value, as `parse_value` reads it back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _value(cfg: RunConfig, key: str):
    section, f = KEYS[key]
    return getattr(getattr(cfg, section) if section else cfg, f.name)


def _build(values: dict) -> RunConfig:
    """The RunConfig of {section: {field: value}}; its dataclasses validate."""
    sections = {section: cls(**values[section]) for section, cls in _SECTIONS.items()}
    return RunConfig(**values[None], **sections)


def parse_config(path) -> RunConfig:
    """Read a flat key = value file (UTF-8, a leading byte-order mark
    dropped) into a RunConfig.

    Relative data/output paths are resolved against the config file's own
    directory, so a config travels with its dataset.  A value its dataclass
    rejects is reported at the line of the first key, in file order, that
    fails with every other key at its default; a failure no single key
    causes names the file only.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(path)))
    values: dict = {section: {} for section in (None, *_SECTIONS)}
    lines: dict[str, int] = {}     # key -> its line, in file order
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, "
                                  f"got {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            lines[key] = lineno
            section, f = KEYS[key]
            try:
                value = parse_value(key, raw)
            except ConfigError as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from err
            if f.type == "str | None" and value is not None and not os.path.isabs(value):
                value = os.path.normpath(os.path.join(base, value))
            values[section][f.name] = value
    try:
        return _build(values)
    except ContractError as err:
        for key, lineno in lines.items():
            section, f = KEYS[key]
            try:
                _build({**dict.fromkeys(values, {}), section: {f.name: values[section][f.name]}})
            except ContractError as alone:
                raise ConfigError(f"{path}:{lineno}: {alone}") from err
        raise ConfigError(f"{path}: {err}") from err


def echo_config(cfg: RunConfig) -> str:
    """Canonical text form of the resolved config, stable key order.  A value
    that would not read back is refused: one holding `#`, which starts a
    comment, or a line break, or with whitespace at either end, which the
    parser strips."""
    lines = {key: format_value(_value(cfg, key)) for key in KEYS}
    for key, text in lines.items():
        if "#" in text or "\n" in text or "\r" in text or text != text.strip():
            raise ConfigError(f"{key}: {text!r} would not read back: a config file "
                              f"ends a value at '#' or a line break and strips its ends")
    return "".join(f"{key} = {text}\n" for key, text in lines.items())
