"""Key = value run configuration with strict validation.

The format is deliberately minimal: UTF-8 lines of ``key = value`` (the CLI
skips a leading byte-order mark), blank lines and ``#`` comments allowed,
unknown and repeated keys rejected with their line numbers.  All randomness
in a run flows from the single ``seed`` through numpy's PCG64 generator, so
equal configs give byte-identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "serialize_config"]


def _int(low: int, what: str):
    def parse(key, text, where):
        try:
            v = int(text)
        except ValueError as exc:
            raise ConfigError(f"{where}{key} must be an integer") from exc
        if v < low:
            raise ConfigError(f"{where}{key} must be >= {low} ({what}), got {v}")
        return v
    return parse


def _positive(key, text, where):
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}{key} must be a number") from exc
    if not 0 < v < np.inf:
        raise ConfigError(f"{where}{key} must be positive and finite")
    return v


def _text(key, text, where):
    return text


def _rule(key, text, where):
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in ("fixed", "threshold"):
        raise ConfigError(f"{where}coarse_rule must be fixed:n or threshold:tau")
    if parts[0] == "fixed":
        try:
            n = int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"{where}fixed rule needs an integer") from exc
        if n < 0:
            raise ConfigError(f"{where}fixed mode count must be >= 0")
        return ("fixed", n)
    try:
        tau = float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{where}threshold rule needs a number") from exc
    if not 0 <= tau < np.inf:
        raise ConfigError(f"{where}threshold must be finite and >= 0")
    return ("threshold", tau)


def _sweep(key, text, where):
    sweep = []
    if text.strip():
        for tok in text.split(","):
            try:
                sweep.append(int(tok.strip()))
            except ValueError as exc:
                raise ConfigError(
                    f"{where}coarse_n_sweep must be comma-separated integers") from exc
        if any(n < 0 for n in sweep):
            raise ConfigError(f"{where}sweep entries must be >= 0")
    return sweep


def _checks(key, text, where):
    if text not in ("on", "off", "only"):
        raise ConfigError(f"{where}checks must be on, off or only")
    return text


def _key(default, parse):
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """The run's keys, in config-file order, with defaults and parsers."""

    mesh_n: int = _key(64, _int(1, "mesh subdivision count"))
    grid_m: int = _key(4, _int(1, "subdomain grid size"))
    overlap_layers: int = _key(2, _int(2, "overlap needed by the partition of unity"))
    oversampling_layers: int = _key(4, _int(1, "oversampling rings"))
    gamma0_sq: float = _key(10.0, _positive)
    coefficient: str = _key("constant:1", _text)
    seed: int = _key(0, _int(0, "generator seed"))
    source: str = _key("constant:1", _text)
    coarse_rule: tuple = _key(("fixed", 4), _rule)
    coarse_n_sweep: list = field(default_factory=list, metadata={"parse": _sweep})
    threads: int = _key(1, _int(1, "worker threads"))
    checks: str = _key("on", _checks)   # "only": the property suite alone

    @property
    def gamma0(self) -> float:
        return float(np.sqrt(self.gamma0_sq))

    def sweep_values(self) -> list:
        """Coarse sizes of the error sweep; the single configured rule if empty."""
        if self.coarse_n_sweep:
            return [("fixed", n) for n in self.coarse_n_sweep]
        return [self.coarse_rule]


def parse_config(text: str) -> RunConfig:
    """Parse and validate; defaults apply for every key not present."""
    keys = {f.name: f for f in fields(RunConfig)}
    given = {}                        # key -> (where it was given, value text)
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (s.strip() for s in content.split("=", 1))
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {lineno}: key {key!r} repeats {given[key][0]}")
        given[key] = (f"line {lineno}", value)
    return RunConfig(**{key: keys[key].metadata["parse"](key, value, f"{where}: ")
                        for key, (where, value) in given.items()})


def _value_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    if isinstance(value, list):
        return ",".join(str(n) for n in value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Textual form that parses back to an equal config."""
    return "".join(f"{f.name} = {_value_text(getattr(config, f.name))}\n"
                   for f in fields(RunConfig))
