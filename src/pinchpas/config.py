"""Flat key = value configuration files for the sweep driver.

Grammar (documented in full in the README): one ``key = value`` pair per
line, ``#`` starts a comment, blank lines are ignored. System keys map
straight onto SystemConfig fields; sweep keys pick the metric, the swept
axis, its values, and the antenna counts to tabulate. The parser only
reads the text: unknown or repeated keys and malformed numbers are
rejected with their line number. Every sweep rule is checked once, by
`SweepSpec`, whose errors the parser prefixes with the line of the key.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields

from .system import SystemConfig

__all__ = ["ConfigError", "SweepSpec", "load_config", "parse_config_text"]

METRICS = ("outage", "rate", "pde", "regions", "simulate")
SWEEP_AXES = ("gamma_t_db", "m", "alpha", "d_x")

_SYSTEM_KEYS = tuple(field.name for field in fields(SystemConfig))
_SWEEP_KEYS = ("metric", "sweep_axis", "axis_values", "m_values")

_DEFAULT_AXIS = {
    "outage": "gamma_t_db",
    "rate": "gamma_t_db",
    "simulate": "gamma_t_db",
    "pde": "m",
    "regions": "m",
}
_DEFAULT_AXIS_VALUES = {
    "gamma_t_db": "90:110:11",
    "m": "1:10:10",
    "alpha": "0.01,0.05,0.1",
    "d_x": "10,20,30",
}


# The most antennas a config may ask for, on m_values or along the m axis.
# Memory grows with m in the kernel pass, which holds a few arrays of a
# point's 2m sub-rectangles: a one-point `rate` op at 10**5 antennas peaks
# at 44 MB resident in a fresh process (30 MB of it the import; x86-64,
# numpy 2.4), and at 10**6 at 148 MB. A larger count is a typo or an
# overflowing range, not a room.
_MAX_ANTENNAS = 10**6


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


def _check_counts(key: str, values) -> None:
    """Raise a ConfigError, led by `key`, unless each value is a whole count in [1, cap]."""
    for v in values:
        # v - v is 0 for a finite int or float (an int may exceed any float)
        # and nan for inf and nan.
        if not (v - v == 0 and v == int(v) and v >= 1):
            raise ConfigError(f"{key} must be positive integers, got {v!r}")
        if v > _MAX_ANTENNAS:
            raise ConfigError(f"{key} must be at most {_MAX_ANTENNAS} antennas, got {v!r}")


@dataclass(frozen=True)
class SweepSpec:
    """What to compute: a metric swept along one axis for several antenna counts.

    Every sweep rule is checked here, once, and each error starts with the
    key it is about. The antenna counts are stored as ints.
    """

    metric: str
    sweep_axis: str
    axis_values: tuple[float, ...]
    fixed_params: SystemConfig
    m_values: tuple[int, ...]

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        # The rate closed form needs the waveguide above the user plane, at a
        # height whose square is a normal float: h >= about 1.5e-154 m.
        h = self.fixed_params.h
        if self.metric in ("rate", "pde") and not h * h >= sys.float_info.min:
            raise ConfigError(
                f"h must be > 0, with h^2 a normal float (h >= about 1.5e-154 m), "
                f"for the {self.metric} metric, got {h!r}"
            )
        # The counts come before the axis: a regions spec's axis is its counts.
        if not self.m_values:
            raise ConfigError("m_values must be nonempty")
        _check_counts("m_values", self.m_values)
        # Each m writes its own table, named by the int.
        m_values = tuple(map(int, self.m_values))
        if len(set(m_values)) < len(m_values):
            raise ConfigError(f"m_values must not repeat, got {m_values}")
        object.__setattr__(self, "m_values", m_values)
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}"
            )
        if not self.axis_values:
            raise ConfigError("axis_values must be nonempty")
        if self.sweep_axis == "m":
            _check_counts("axis_values along m", self.axis_values)
        if any(b <= a for a, b in zip(self.axis_values, self.axis_values[1:])):
            raise ConfigError(
                f"axis_values must be strictly increasing, got {self.axis_values}"
            )


def _split_lines(text: str) -> list[tuple[int, str, str]]:
    """Yield (line_number, key, value) pairs, with comments stripped."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        pairs.append((lineno, key, value))
    return pairs


def _parse_float(key: str, value: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be a number, got {value!r}") from None


def _parse_numbers(key: str, value: str, lineno: int) -> tuple[float, ...]:
    """Either an explicit comma list or the inclusive range shorthand lo:hi:count."""
    if ":" not in value:
        tokens = (token.strip() for token in value.split(","))
        return tuple(_parse_float(key, token, lineno) for token in tokens if token)
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: range shorthand is lo:hi:count, got {value!r}")
    lo, hi = (_parse_float(key, part, lineno) for part in parts[:2])
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(
            f"line {lineno}: range count must be an integer, got {parts[2]!r}"
        ) from None
    if not 1 <= count <= _MAX_ANTENNAS:  # before a value is formed: 10**9 would be 32 GB
        bound = ">= 1" if count < 1 else f"at most {_MAX_ANTENNAS}"
        raise ConfigError(f"line {lineno}: range count must be {bound}, got {count}")
    if count == 1:
        return (lo,)
    step = (hi - lo) / (count - 1)
    return tuple(lo + i * step for i in range(count - 1)) + (hi,)


def parse_config_text(
    text: str, metric: str | None = None
) -> tuple[SystemConfig, SweepSpec]:
    """Parse configuration text into a validated (SystemConfig, SweepSpec) pair.

    A given metric (the CLI subcommand) overrides any ``metric`` key in the
    text, and the sweep defaults are resolved for it. The sweep rules are
    `SweepSpec`'s; an error about a key read from the text names its line.
    """
    system_raw: dict[str, float] = {}
    sweep_raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, key, value in _split_lines(text):
        if key in lines:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        lines[key] = lineno
        if key in _SYSTEM_KEYS:
            system_raw[key] = _parse_float(key, value, lineno)
        elif key in _SWEEP_KEYS:
            sweep_raw[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if "d_x" not in system_raw:
        raise ConfigError("d_x is required (room length along the waveguide, meters)")
    try:
        config = SystemConfig(**system_raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    file_metric = sweep_raw.get("metric")
    if metric is None:
        metric = file_metric or "outage"
    else:
        # The given metric replaces the file's, which SweepSpec never sees.
        lineno = lines.pop("metric", None)
        if file_metric not in (None, *METRICS):
            raise ConfigError(
                f"line {lineno}: metric must be one of {METRICS}, got {file_metric!r}"
            )

    def numbers(key: str, default: str) -> tuple[float, ...]:
        # The defaults are valid, so a bad value always has a line.
        return _parse_numbers(key, sweep_raw.get(key, default), lines.get(key, 0))

    m_values = numbers("m_values", "1")
    if metric == "regions":
        # The regions metric tabulates the partition itself, one table per
        # antenna count; a swept axis has no meaning for it. A file written
        # for regions may not set one; a file shared with other metrics may.
        for key in ("sweep_axis", "axis_values"):
            if key in sweep_raw and file_metric == "regions":
                raise ConfigError(
                    f"line {lines[key]}: {key} does not apply to the regions metric"
                )
        axis, axis_values = "m", tuple(sorted(set(m_values)))
    else:
        # An unknown metric or axis has no default; SweepSpec names it.
        axis = sweep_raw.get("sweep_axis", _DEFAULT_AXIS.get(metric))
        axis_values = numbers("axis_values", _DEFAULT_AXIS_VALUES.get(axis, ""))
    try:
        spec = SweepSpec(
            metric=metric,
            sweep_axis=axis,
            axis_values=axis_values,
            fixed_params=config,
            m_values=m_values,
        )
    except ConfigError as exc:
        key = str(exc).split(" ", 1)[0]  # each SweepSpec error starts with its key
        if key not in lines:
            raise
        raise ConfigError(f"line {lines[key]}: {exc}") from None
    return config, spec


def load_config(
    path: str | os.PathLike, metric: str | None = None
) -> tuple[SystemConfig, SweepSpec]:
    """Read and parse a configuration file, optionally for a given metric.

    Raises ConfigError for malformed content, and OSError for a path that
    cannot be read (FileNotFoundError, IsADirectoryError, ...).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, metric)
