"""Strict flat key-value configuration files.

Format: `key = value` lines, blank lines and full-line comments (# or ;)
allowed, with optional `[tool]` sections after the top-level state block.
Unknown keys, unknown sections and duplicates are hard errors carrying
the file name and line number; silent misconfiguration of a stability
verdict is worse than a noisy one.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .domain import STATE_FIELDS, BasicState, ModelKind, require_valid
from .errors import ConfigError


def parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{value}'")


def _int_list(value: str) -> tuple:
    return tuple(int(tok) for tok in value.split(","))


class Linspace(Sequence):
    """count evenly spaced floats from lo to hi, each built when indexed: value i is
    np.linspace(lo, hi, count)[i] bit for bit (of two NaN ends, either may carry)."""

    def __init__(self, lo: float, hi: float, count: int):
        self.lo, self.hi, self.size = lo, hi, count

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i) -> float:
        i, div, delta = range(self.size)[i], self.size - 1, self.hi - self.lo
        if div == 0:
            return self.lo + 0.0 * delta
        if i == div:
            return self.hi
        step = delta / div
        # np.linspace scales by i/div instead where the step underflows to 0
        return (i / div * delta if step == 0 else i * step) + self.lo


def parse_grid(spec: str) -> tuple:
    """Sweep axes from 'name=lo:hi:count;name=v1,v2,...', in the given order."""
    axes = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"grid axis '{chunk}' must look like name=lo:hi:count")
        name, _, body = (part.strip() for part in chunk.partition("="))
        if ":" in body:
            try:
                lo, hi, count = body.split(":")
                lo, hi, count = float(lo), float(hi), int(count)
            except ValueError:
                raise ConfigError(f"grid axis '{chunk}': expected lo:hi:count") from None
            if not 0 < count <= sys.maxsize:
                raise ConfigError(f"grid axis '{name}': count must be in 1..{sys.maxsize}")
            values = Linspace(lo, hi, count)
        else:
            try:
                values = tuple(float(tok) for tok in body.split(","))
            except ValueError:
                raise ConfigError(f"grid axis '{chunk}': expected numbers v1,v2,...") from None
        axes.append((name, values))
    if not axes:
        raise ConfigError("empty grid specification")
    return tuple(axes)


_MODEL_NAMES = {kind.value: kind for kind in ModelKind}


def _model(value: str) -> ModelKind:
    if value not in _MODEL_NAMES:
        raise ConfigError(f"unknown model '{value}'; choose one of {sorted(_MODEL_NAMES)}")
    return _MODEL_NAMES[value]


# the top-level state block: key -> parser
_STATE_PARSERS = {"model": _model, **dict.fromkeys(STATE_FIELDS, float)}

# [section] -> key -> parser; sections hold the parsed values
SECTION_KEYS = {
    "classify": {"numeric": parse_bool},
    "roots": {"n": _int_list, "omega2": float, "omega3": float},
    "sweep": {"grid": parse_grid, "max_points": int, "numeric": parse_bool},
    "hadamard": {
        "n_list": _int_list,
        "t": float,
        "omega2": float,
        "omega3": float,
        "dump_fields": parse_bool,
    },
}

_KINDS = {
    float: "a number",
    int: "an integer",
    _int_list: "comma-separated integers",
    parse_bool: "a boolean",
    parse_grid: "axes like 'a_hat=-2:2:11;a0_hat=0,1'",
}


@dataclass(frozen=True)
class Config:
    """Parsed and validated configuration: a state plus tool sections."""

    model: ModelKind
    state: BasicState
    sections: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})


def _err(source: str, lineno: int, message: str) -> ConfigError:
    return ConfigError(f"{source}:{lineno}: {message}")


def parse_config_text(text: str, source: str = "<config>") -> Config:
    top: dict = {}
    sections: dict = {}
    # the block being read: the state block until the first [section]
    name, parsers, values = "", _STATE_PARSERS, top
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTION_KEYS:
                raise _err(source, lineno, f"unknown section '{name}'")
            if name in sections:
                raise _err(source, lineno, f"duplicate section '{name}'")
            parsers = SECTION_KEYS[name]
            values = sections[name] = {}
            continue
        if "=" not in line:
            raise _err(source, lineno, f"expected 'key = value', got '{line}'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in parsers:
            where = f" in section [{name}]" if name else ""
            raise _err(source, lineno, f"unknown key '{key}'{where}")
        if key in values:
            raise _err(source, lineno, f"duplicate key '{key}'")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            kind = _KINDS.get(parsers[key])
            message = f"key '{key}' needs {kind}, got '{value}'" if kind else str(exc)
            raise _err(source, lineno, message) from None

    if "model" not in top:
        raise ConfigError(f"{source}: missing required key 'model'")
    model = top.pop("model")
    state = BasicState.from_fields(top)
    require_valid(model, state)
    return Config(model=model, state=state, sections=sections)


def load_config(path) -> Config:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"config file not readable: {p} ({exc})") from None
    return parse_config_text(text, source=str(p))

