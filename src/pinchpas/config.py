"""Flat key = value configuration files for the sweep driver.

Grammar (documented in full in the README): one ``key = value`` pair per
line, ``#`` starts a comment, blank lines are ignored. System keys map
straight onto SystemConfig fields; sweep keys pick the metric, the swept
axis, its values, and the antenna counts to tabulate. Unknown or repeated
keys are rejected with their line number.
"""

from __future__ import annotations

import math
import os
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
# Memory grows with m in the kernel pass, which takes a point's 2m
# sub-rectangles as one run: a one-point `rate` op at 10**5 antennas peaks
# at 95 MB resident in a fresh process (29 MB of it the import; x86-64,
# numpy 2.4), and at 10**6 at 660 MB. A larger count is a typo or an
# overflowing range, not a room.
_MAX_ANTENNAS = 10**6


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


def _check_m_axis(values, at: str = "") -> None:
    """Raise a ConfigError, led by `at`, unless each value is a count in [1, cap]."""
    for v in values:
        if not math.isfinite(v) or v != int(v) or v < 1:
            raise ConfigError(f"{at}axis_values along m must be positive integers, got {v!r}")
        if v > _MAX_ANTENNAS:
            raise ConfigError(
                f"{at}axis_values along m must be at most {_MAX_ANTENNAS} antennas, "
                f"got {v!r}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """What to compute: a metric swept along one axis for several antenna counts."""

    metric: str
    sweep_axis: str
    axis_values: tuple[float, ...]
    fixed_params: SystemConfig
    m_values: tuple[int, ...]

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}"
            )
        if not self.axis_values:
            raise ConfigError("axis_values must be nonempty")
        if any(b <= a for a, b in zip(self.axis_values, self.axis_values[1:])):
            raise ConfigError(
                f"axis_values must be strictly increasing, got {self.axis_values}"
            )
        if not self.m_values:
            raise ConfigError("m_values must be nonempty")
        if not all(1 <= m <= _MAX_ANTENNAS for m in self.m_values):
            raise ConfigError(f"m_values must all lie in [1, {_MAX_ANTENNAS}] antennas")
        if len(set(self.m_values)) < len(self.m_values):
            raise ConfigError(f"m_values must not repeat, got {self.m_values}")
        if self.sweep_axis == "m":
            _check_m_axis(self.axis_values)


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
        out = float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be a number, got {value!r}") from None
    return out


def _parse_axis_values(value: str, lineno: int) -> tuple[float, ...]:
    """Either an explicit comma list or the inclusive range shorthand lo:hi:count."""
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"line {lineno}: range shorthand is lo:hi:count, got {value!r}"
            )
        lo = _parse_float("axis_values", parts[0], lineno)
        hi = _parse_float("axis_values", parts[1], lineno)
        try:
            count = int(parts[2])
        except ValueError:
            raise ConfigError(
                f"line {lineno}: range count must be an integer, got {parts[2]!r}"
            ) from None
        if count < 1:
            raise ConfigError(f"line {lineno}: range count must be >= 1, got {count}")
        if count == 1:
            return (lo,)
        step = (hi - lo) / (count - 1)
        return tuple(lo + i * step for i in range(count - 1)) + (hi,)
    values = []
    for token in value.split(","):
        token = token.strip()
        if token:
            values.append(_parse_float("axis_values", token, lineno))
    if not values:
        raise ConfigError(f"line {lineno}: axis_values is empty")
    return tuple(values)


def _parse_m_values(value: str, lineno: int) -> tuple[int, ...]:
    # Accepts the same lo:hi:count shorthand as axis_values, so long as
    # every resulting value is a whole number. Each m writes its own
    # table, so none may repeat.
    values = []
    if ":" in value:
        for v in _parse_axis_values(value, lineno):
            if not math.isfinite(v) or abs(v - round(v)) > 1e-9:
                raise ConfigError(
                    f"line {lineno}: m_values range produced {v!r}, not an integer"
                )
            values.append(int(round(v)))
    else:
        for token in value.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                values.append(int(token))
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: m_values entries must be integers, got {token!r}"
                ) from None
        if not values:
            raise ConfigError(f"line {lineno}: m_values is empty")
    if any(m > _MAX_ANTENNAS for m in values):
        raise ConfigError(
            f"line {lineno}: m_values must be at most {_MAX_ANTENNAS} antennas, "
            f"got {value!r}"
        )
    if len(set(values)) < len(values):
        raise ConfigError(f"line {lineno}: m_values must not repeat, got {value!r}")
    return tuple(values)


def parse_config_text(
    text: str, metric: str | None = None
) -> tuple[SystemConfig, SweepSpec]:
    """Parse configuration text into a validated (SystemConfig, SweepSpec) pair.

    A given metric (the CLI subcommand) overrides any ``metric`` key in the
    text, and the sweep defaults are resolved for it.
    """
    system_raw: dict[str, float] = {}
    sweep_raw: dict[str, tuple[int, str]] = {}
    seen: dict[str, int] = {}
    for lineno, key, value in _split_lines(text):
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno
        if key in _SYSTEM_KEYS:
            system_raw[key] = _parse_float(key, value, lineno)
        elif key in _SWEEP_KEYS:
            sweep_raw[key] = (lineno, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if "d_x" not in system_raw:
        raise ConfigError("d_x is required (room length along the waveguide, meters)")
    try:
        config = SystemConfig(**system_raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    file_metric = None
    if "metric" in sweep_raw:
        lineno, value = sweep_raw["metric"]
        if value not in METRICS:
            raise ConfigError(
                f"line {lineno}: metric must be one of {METRICS}, got {value!r}"
            )
        file_metric = value
    if metric is None:
        metric = file_metric or "outage"
    elif metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric in ("rate", "pde") and config.h == 0.0:
        raise ConfigError(
            f"h must be > 0 for the {metric} metric (the rate closed form needs "
            "the waveguide above the user plane), got 0.0"
        )

    m_values = (1,)
    if "m_values" in sweep_raw:
        lineno, value = sweep_raw["m_values"]
        m_values = _parse_m_values(value, lineno)

    if metric == "regions":
        # The regions metric tabulates the partition itself, one table per
        # antenna count; a swept axis has no meaning for it. A file written
        # for regions may not set one; a file shared with other metrics may.
        for key in ("sweep_axis", "axis_values"):
            if key in sweep_raw and file_metric == "regions":
                lineno, _ = sweep_raw[key]
                raise ConfigError(
                    f"line {lineno}: {key} does not apply to the regions metric"
                )
        axis = "m"
        axis_values = tuple(float(m) for m in sorted(set(m_values)))
    else:
        axis = _DEFAULT_AXIS[metric]
        if "sweep_axis" in sweep_raw:
            lineno, value = sweep_raw["sweep_axis"]
            if value not in SWEEP_AXES:
                raise ConfigError(
                    f"line {lineno}: sweep_axis must be one of {SWEEP_AXES}, "
                    f"got {value!r}"
                )
            axis = value
        # The defaults are valid, so a bad value always has a line.
        lineno, value = sweep_raw.get("axis_values", (0, _DEFAULT_AXIS_VALUES[axis]))
        axis_values = _parse_axis_values(value, lineno)
        if axis == "m":
            _check_m_axis(axis_values, f"line {lineno}: ")

    spec = SweepSpec(
        metric=metric,
        sweep_axis=axis,
        axis_values=axis_values,
        fixed_params=config,
        m_values=m_values,
    )
    return config, spec


def load_config(
    path: str | os.PathLike, metric: str | None = None
) -> tuple[SystemConfig, SweepSpec]:
    """Read and parse a configuration file, optionally for a given metric.

    Raises ConfigError for malformed content, FileNotFoundError for a
    missing path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, metric)
