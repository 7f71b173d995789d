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
from typing import Optional

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
        for name, kind in _KINDS.items():
            value = getattr(self, name)
            # bool is an int subclass, so True passes isinstance(value, int)
            if not isinstance(value, _ACCEPTED[kind]) or (kind is not bool and isinstance(value, bool)):
                raise ValueError(f"config key '{name}': expected {kind.__name__}, got {value!r}")
        for name, (low, high) in _BOUNDS.items():
            value = getattr(self, name)
            # written so that NaN fails too
            if not low <= value <= high:
                allowed = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                raise ValueError(f"config key '{name}': must be {allowed}, got {value!r}")


# Field name -> the type a text value is coerced to.
_KINDS = {f.name: type(f.default) for f in fields(PipelineConfig)}

# Field type -> the value types a field of that type accepts.
_ACCEPTED = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, kind: type, value: str):
    if kind is bool:
        lowered = value.strip().lower()
        if lowered not in _BOOL_VALUES:
            raise ValueError(f"config key '{name}': expected a boolean, got {value!r}")
        return _BOOL_VALUES[lowered]
    try:
        return kind(value.strip())
    except ValueError as exc:
        raise ValueError(f"config key '{name}': {exc}") from exc


def parse_config_lines(lines: "list[str]", source: str = "<config>") -> dict:
    """Flat key=value records; # comments and blank lines ignored."""
    values: dict = {}
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}: line {line_number}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ValueError(f"{source}: line {line_number}: unknown config key '{key}'")
        try:
            values[key] = _coerce(key, _KINDS[key], value)
        except ValueError as exc:
            raise ValueError(f"{source}: line {line_number}: {exc}") from exc
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> PipelineConfig:
    """Build a PipelineConfig from file, then environment, then overrides."""
    values: dict = {}
    config_path = path or os.environ.get(ENV_CONFIG)
    if config_path:
        with open(config_path, "r", encoding="utf-8-sig") as f:
            values.update(parse_config_lines(f.readlines(), source=config_path))
    for name, kind in _KINDS.items():
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if env_value is not None:
            values[name] = _coerce(name, kind, env_value)
    if overrides:
        for key in overrides:
            if key not in _KINDS:
                raise ValueError(f"overrides: unknown config key '{key}'")
        values.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**values)
