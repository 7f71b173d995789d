"""The pipeline's one configuration, validated once at construction.

Values come from a config file (``--config``, or the path in
``COGGRAG_CONFIG``), then ``COGGRAG_<FIELD>`` environment variables, which
win over the file. Library callers may pass ``load_config(overrides=...)``,
which win over both.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Iterable, Optional

from .inputs import named, parse_records, read_lines

ENV_CONFIG = "COGGRAG_CONFIG"
ENV_PREFIX = "COGGRAG_"


# Inclusive (low, high) bounds of every bounded field.
_BOUNDS = {
    "epsilon": (0, 1),
    "resolve_threshold": (-1, 1),
    "hops": (1, math.inf),
    "hub_cap": (1, math.inf),
    "max_evidence_triples": (1, math.inf),
    "max_tokens": (1, math.inf),
    # ``HashedEmbedder.embed`` allocates a vector of this length per call.
    "embedding_dim": (1, 1 << 16),
    "max_depth": (0, math.inf),
    "max_parse_retries": (0, math.inf),
    "exploration_temperature": (0, math.inf),
    "reasoning_temperature": (0, math.inf),
}


@dataclass(frozen=True)
class PipelineConfig:
    epsilon: float = 0.7
    hops: int = 1
    max_depth: int = 3
    exploration_temperature: float = 0.4
    reasoning_temperature: float = 0.0
    decomposition_enabled: bool = True
    global_keys_enabled: bool = True
    verification_enabled: bool = True
    hub_cap: int = 512
    max_evidence_triples: int = 64
    resolve_threshold: float = 0.7
    max_parse_retries: int = 1
    max_tokens: int = 1024
    embedding_dim: int = 256
    model: str = "default"

    def __post_init__(self) -> None:
        for name in _KINDS:
            _check(name, getattr(self, name))


# Field name -> the type a text value is coerced to.
_KINDS = {f.name: type(f.default) for f in fields(PipelineConfig)}

# Field type -> the value types a field of that type accepts.
_ACCEPTED = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _check(name: str, value):
    """``value`` if it has field ``name``'s type and lies in its bounds."""
    kind = _KINDS[name]
    # bool is an int subclass, so True passes isinstance(value, int)
    if not isinstance(value, _ACCEPTED[kind]) or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"config key '{name}': expected {kind.__name__}, got {value!r}")
    low, high = _BOUNDS.get(name, (None, None))
    # written so that NaN fails too
    if low is not None and not low <= value <= high:
        allowed = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"config key '{name}': must be {allowed}, got {value!r}")
    return value


def _parse(name: str, text: str):
    """The checked value of field ``name`` written as ``text``."""
    kind = _KINDS[name]
    if kind is bool:
        lowered = text.strip().lower()
        if lowered not in _BOOL_VALUES:
            raise ValueError(f"config key '{name}': expected a boolean, got {text!r}")
        return _BOOL_VALUES[lowered]
    try:
        value = kind(text.strip())
    except ValueError as exc:
        raise ValueError(f"config key '{name}': {exc}") from exc
    return _check(name, value)


def _parse_line(line: str) -> tuple:
    if "=" not in line:
        raise ValueError("expected key=value")
    key, _, text = line.partition("=")
    key = key.strip()
    if key not in _KINDS:
        raise ValueError(f"unknown config key {key!r}")
    return key, _parse(key, text)


def parse_config_lines(lines: "Iterable[str]", source: str = "<config>") -> dict:
    """Flat key=value records; # comments and blank lines ignored."""
    return dict(parse_records(lines, source, _parse_line))


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> PipelineConfig:
    """Build a PipelineConfig from file, then environment, then overrides;
    a bad value names its file and line, its variable, or ``overrides``."""
    values: dict = {}
    config_path = path or os.environ.get(ENV_CONFIG)
    if config_path:
        values.update(parse_config_lines(read_lines(config_path), source=config_path))
    for name in _KINDS:
        variable = ENV_PREFIX + name.upper()
        if variable in os.environ:
            values[name] = named(variable, _parse, name, os.environ[variable])
    for name, value in (overrides or {}).items():
        if name not in _KINDS:
            raise ValueError(f"overrides: unknown config key {name!r}")
        if value is not None:
            values[name] = named("overrides", _check, name, value)
    return PipelineConfig(**values)
