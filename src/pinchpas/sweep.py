"""Sweep execution and plain-text table emission.

A sweep evaluates one metric along one axis, producing one table per
requested antenna count (or a single table when the antenna count itself
is the axis). Tables are two or three numeric columns behind a '#' header
that echoes every effective parameter; stripping the single-hash prefix
recovers a loadable configuration, so every emitted file doubles as the
recipe that produced it. Double-hash lines are annotations and are not
part of the round trip.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass

from ._version import __version__
from .config import SweepSpec, parse_config_text
from .metrics import (
    MetricResult,
    NumericalDiagnosticError,
    _continuous_rate_curve,
    _efficiency_ratio,
    _ergodic_rates,
    _settled_rate,
    outage_probability,
)
from .montecarlo import SimEstimate, SimulationSpec, simulate_outage_curve
from .regions import RegionPartition, optimize_partition
from .system import PaLayout, SystemConfig, make_layout

__all__ = ["OutputTable", "run_sweep", "emit_table", "header_config_text"]

logger = logging.getLogger(__name__)

_ROW_FORMAT = "%.12g"
# Table flag for a point dropped because a numerical self-check failed.
_DIAGNOSTIC_FLAG = "numerical_diagnostic"


@dataclass(frozen=True)
class OutputTable:
    """Numeric rows plus the self-describing header they are emitted under."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for line in self.header:
            if not line.startswith("#"):
                raise ValueError(f"header lines must start with '#', got {line!r}")
        widths = {len(row) for row in self.rows}
        if len(widths) > 1:
            raise ValueError(f"rows must all have the same width, got {sorted(widths)}")
        for row in self.rows:
            if len(row) < 2:
                raise ValueError(f"rows need at least two columns, got {row!r}")
            for value in row:
                if not math.isfinite(value):
                    raise ValueError(f"row values must be finite, got {row!r}")


def _echo_lines(config: SystemConfig, spec: SweepSpec) -> list[str]:
    """Single-hash key = value lines that re-load to this exact run."""
    lines = [
        f"# {field.name} = {getattr(config, field.name)!r}"
        for field in dataclasses.fields(config)
    ]
    lines.append(f"# metric = {spec.metric}")
    if spec.metric != "regions":
        lines.append(f"# sweep_axis = {spec.sweep_axis}")
        lines.append(
            "# axis_values = " + ",".join(repr(v) for v in spec.axis_values)
        )
    lines.append("# m_values = " + ",".join(str(m) for m in spec.m_values))
    return lines


def _table_header(
    config: SystemConfig,
    spec: SweepSpec,
    columns: str,
    note: str,
    sim: SimulationSpec | None = None,
) -> tuple[str, ...]:
    lines = [f"## pinchpas {__version__}", f"## table: {note}", f"## columns: {columns}"]
    if sim is not None:
        lines.append(f"## seed = {sim.seed}")
        lines.append(f"## n_samples = {sim.n_samples}")
        lines.append(f"## chunk_size = {sim.chunk_size}")
    lines.extend(_echo_lines(config, spec))
    return tuple(lines)


def _point_config(base: SystemConfig, axis: str, value: float) -> SystemConfig:
    if axis == "m":
        return base
    return dataclasses.replace(base, **{axis: value})


class _PartitionCache:
    """Memoizes optimized partitions across sweep points.

    The partition depends only on the geometry and the attenuation, not on
    transmit power or threshold, so gamma sweeps reuse a single partition
    per antenna count.
    """

    def __init__(self):
        self._store: dict[tuple, tuple[PaLayout, RegionPartition]] = {}

    def get(self, config: SystemConfig, m: int) -> tuple[PaLayout, RegionPartition]:
        key = (config.d_x, config.d_y, config.h, config.alpha, m)
        if key not in self._store:
            layout = make_layout(config, m)
            self._store[key] = (layout, optimize_partition(config, layout))
        return self._store[key]


def _gamma_curve(
    spec: SweepSpec, config: SystemConfig
) -> tuple[SystemConfig, tuple[float, ...]]:
    """The transmit-SNR curve a sweep point belongs to: its key and its gamma_t points.

    Transmit SNR only scales every SNR, so along a gamma_t_db axis one
    curve, keyed by the config at axis_values[0], answers every point. On
    any other axis each point is a curve of its own gamma_t alone.
    """
    gammas = spec.axis_values if spec.sweep_axis == "gamma_t_db" else (config.gamma_t_db,)
    return dataclasses.replace(config, gamma_t_db=gammas[0]), gammas


class _ContinuousRateCache:
    """Memoizes the continuous baseline, which is independent of m, per curve.

    Each point's base-vs-refined self-check runs when the point is asked
    for, so a point that does not settle costs its own row only.
    """

    def __init__(self, spec: SweepSpec):
        self._spec = spec
        self._curves: dict[SystemConfig, dict[float, tuple[float, float]]] = {}
        self._settled: dict[SystemConfig, MetricResult] = {}

    def get(self, config: SystemConfig) -> MetricResult:
        if config not in self._settled:
            key, gammas = _gamma_curve(self._spec, config)
            if key not in self._curves:
                self._curves[key] = dict(zip(gammas, _continuous_rate_curve(key, gammas)))
            rates = self._curves[key][config.gamma_t_db]
            self._settled[config] = _settled_rate(config, rates)
        return self._settled[config]


class _OutageCurveCache:
    """Memoizes simulated outage curves over transmit SNR, one draw per curve."""

    def __init__(self, spec: SweepSpec, sim: SimulationSpec):
        self._spec = spec
        self._sim = sim
        self._store: dict[tuple, dict[float, SimEstimate]] = {}

    def get(self, config: SystemConfig, m: int) -> SimEstimate:
        key, gammas = _gamma_curve(self._spec, config)
        if (key, m) not in self._store:
            curve = simulate_outage_curve(key, make_layout(key, m), self._sim, gammas)
            self._store[(key, m)] = dict(zip(gammas, curve))
        return self._store[(key, m)][config.gamma_t_db]


class _TableRates:
    """The discrete ergodic rate at each point of one table, from one kernel pass.

    The pass runs when the first rate is asked for.
    """

    def __init__(
        self, points: list[tuple[SystemConfig, int]], partitions: _PartitionCache
    ):
        self._points = points
        self._partitions = partitions
        self._rates: dict[tuple[SystemConfig, int], MetricResult] | None = None

    def get(self, config: SystemConfig, m: int) -> MetricResult:
        if self._rates is None:
            results = _ergodic_rates(
                [(point, *self._partitions.get(point, k)) for point, k in self._points]
            )
            self._rates = dict(zip(self._points, results))
        return self._rates[(config, m)]


def _metric_point(
    metric: str,
    config: SystemConfig,
    m: int,
    partitions: _PartitionCache,
    rates: _TableRates,
    baselines: _ContinuousRateCache,
    curves: _OutageCurveCache,
) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """One row's trailing columns plus any numerical flags raised there."""
    if metric == "simulate":
        estimate = curves.get(config, m)
        return (estimate.mean, estimate.std_error), ()
    if metric == "outage":
        result = outage_probability(config, *partitions.get(config, m))
        return (result.value,), result.flags
    if metric == "rate":
        discrete = rates.get(config, m)
        return (discrete.value,), discrete.flags
    if metric == "pde":
        baseline = baselines.get(config)
        discrete = rates.get(config, m)
        return (_efficiency_ratio(discrete, baseline),), discrete.flags
    raise ValueError(f"unknown metric {metric!r}")


def run_sweep(spec: SweepSpec, sim: SimulationSpec | None = None) -> list[OutputTable]:
    """Evaluate the sweep and return its output tables.

    Points are evaluated in a fixed order so repeated runs are
    byte-identical; each point is independent of the others. Numerical
    flags raised at any point (for example the attenuation underflow
    clamp) are collected onto the affected table for the caller to
    surface. A point whose numerical self-check fails is logged and left
    out of its table, which then carries the flag "numerical_diagnostic".
    """
    config = spec.fixed_params
    sim = sim if sim is not None else SimulationSpec()
    partitions = _PartitionCache()
    baselines = _ContinuousRateCache(spec)
    curves = _OutageCurveCache(spec, sim)
    tables: list[OutputTable] = []

    if spec.metric == "regions":
        for m in spec.m_values:
            layout, partition = partitions.get(config, m)
            rows = tuple(
                (
                    float(k + 1),
                    layout.x_k[k],
                    partition.left_limits[k],
                    partition.right_limits[k],
                    partition.boundaries_b[k + 1],
                )
                for k in range(m)
            )
            header = _table_header(
                config,
                spec,
                columns="k x_k left_limit right_limit right_cut",
                note=f"serving-region partition, m = {m}",
            )
            tables.append(OutputTable(name=f"regions_m{m}", header=header, rows=rows))
        return tables

    sim_note = sim if spec.metric == "simulate" else None
    columns = {
        "outage": f"{spec.sweep_axis} outage",
        "rate": f"{spec.sweep_axis} rate_bits_per_hz",
        "pde": f"{spec.sweep_axis} efficiency",
        "simulate": f"{spec.sweep_axis} outage_estimate std_error",
    }[spec.metric]

    per_m = spec.sweep_axis != "m"
    for m in spec.m_values if per_m else (0,):
        rows = []
        flags: set[str] = set()
        points = [
            (_point_config(config, spec.sweep_axis, value), m if per_m else int(value))
            for value in spec.axis_values
        ]
        rates = _TableRates(points, partitions)
        for value, (point, point_m) in zip(spec.axis_values, points):
            try:
                tail, point_flags = _metric_point(
                    spec.metric, point, point_m, partitions, rates, baselines, curves
                )
            except NumericalDiagnosticError as exc:
                logger.warning(
                    "%s = %r, m = %d: row left out: %s",
                    spec.sweep_axis, value, point_m, exc,
                )
                flags.add(_DIAGNOSTIC_FLAG)
                continue
            rows.append((float(value),) + tail)
            flags.update(point_flags)
        if per_m:
            name = f"{spec.metric}_m{m}"
            note = f"{spec.metric} vs {spec.sweep_axis}, m = {m}"
        else:
            name = spec.metric
            note = f"{spec.metric} vs number of antennas"
        header = _table_header(config, spec, columns=columns, note=note, sim=sim_note)
        tables.append(
            OutputTable(
                name=name,
                header=header,
                rows=tuple(rows),
                flags=tuple(sorted(flags)),
            )
        )
    return tables


def emit_table(table: OutputTable, path: str | os.PathLike) -> None:
    """Write a table as deterministic text: 12 significant digits, LF endings."""
    if not table.rows:
        logger.warning("table %s has no rows; writing header only to %s", table.name, path)
    lines = list(table.header)
    for row in table.rows:
        lines.append(" ".join(_ROW_FORMAT % value for value in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def header_config_text(path: str | os.PathLike) -> str:
    """Recover configuration text from an emitted table's header.

    Lines beginning '# ' (single hash) are the parameter echo; '##' lines
    are annotations and are skipped. The returned text re-parses to the
    (SystemConfig, SweepSpec) pair that produced the table, which is the
    round-trip property the test suite pins down.
    """
    config_lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("##"):
                continue
            if line.startswith("# "):
                config_lines.append(line[2:])
    return "\n".join(config_lines) + "\n"


def reload_run(path: str | os.PathLike):
    """Parse an emitted table's header back into (SystemConfig, SweepSpec)."""
    return parse_config_text(header_config_text(path))
