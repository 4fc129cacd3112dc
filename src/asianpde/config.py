"""Run configuration: defaults, config-file parsing, and CLI merging.

Settings live in a flat ``key = value`` text file mirrored one-to-one by CLI
flags (flag ``--maturity-months`` <-> key ``maturity_months``).  Explicit CLI
flags override file values; anything still unset falls back to the defaults,
which individual commands may specialise (the transect command defaults to
the coarse figure grid and its coarser time step).
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError

TABLE_DT = 1.0 / 1760.0
TRANSECT_DT = 1.0 / 500.0


@dataclass(frozen=True)
class RunConfig:
    """One valuation run: instrument, domain, discretisation, and MC settings."""

    kind: str = "call"
    strike: float = 100.0
    spot: float = 100.0
    rate: float = 0.1
    sigma: float = 0.2
    maturity_months: float = 6.0
    smin: float = 50.0
    smax: float = 200.0
    amax: float = 200.0
    nx: int = 102
    ny: int = 121
    dt: float = TABLE_DT
    iters: int = 2
    nonosc: bool = True
    seed: int = 1
    paths: int = 10000
    steps: int = 1000
    workers: int | None = None  # the table's pool: None sizes it to every usable CPU
    out: str | None = None

    @property
    def maturity_years(self) -> float:
        return self.maturity_months / 12.0

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        for name in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")


# per-command defaults layered on top of the dataclass defaults
COMMAND_DEFAULTS: dict[str, dict] = {
    "transect": {"nx": 21, "ny": 31, "dt": TRANSECT_DT},
    "converge": {"nx": 24},
}

# setting name -> str, int, float or bool, in field order (an optional X is an X)
SETTING_TYPES: dict[str, type] = {
    name: typing.get_args(hint)[0] if typing.get_args(hint) else hint
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_FLOAT_KEYS = sorted(name for name, kind in SETTING_TYPES.items() if kind is float)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind = SETTING_TYPES[key]
    if kind is str:
        return raw
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"config key {key!r}: cannot parse {raw!r}") from exc


def load_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` file; blank lines and ``#`` comments allowed."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in SETTING_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def resolve_config(command: str, file_values: dict, cli_values: dict) -> RunConfig:
    """Merge defaults < per-command defaults < config file < explicit CLI flags."""
    merged = dict(COMMAND_DEFAULTS.get(command, {}))
    merged.update(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    unknown = set(merged) - set(SETTING_TYPES)
    if unknown:
        raise ConfigurationError(f"unknown settings: {sorted(unknown)}")
    return RunConfig(**merged)
