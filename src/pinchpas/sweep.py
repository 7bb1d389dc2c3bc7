"""Sweep execution and plain-text table emission.

A sweep evaluates one metric along one axis, producing one table per
requested antenna count (or a single table when the antenna count itself
is the axis). The metric is evaluated once per run, for the points of
every table together: the sweep hands every point to one batch call per
metric (`regions._optimize_partitions`, then `metrics._outages`,
`metrics._ergodic_rates` or `metrics._pdes`; or
`montecarlo._simulate_outages`), and each batch call finds the work its
points share.

Tables are two or three numeric columns behind a '#' header that echoes
every effective parameter; stripping the single-hash prefix recovers a
loadable configuration, so every emitted file doubles as the recipe that
produced it. Double-hash lines are annotations and are not part of the
round trip.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from ._version import __version__
from .config import ConfigError, SweepSpec, parse_config_text
from .metrics import NumericalDiagnosticError, _ergodic_rates, _outages, _pdes
from .montecarlo import _CHUNK_USERS, SimulationSpec, _simulate_outages
from .regions import RegionPartition, _optimize_partitions
from .system import PaLayout, SystemConfig, make_layout

__all__ = ["OutputTable", "run_sweep", "emit_table", "header_config_text"]

_ROW_FORMAT = "%.12g"
# Table flag for a point dropped because a numerical self-check failed.
_DIAGNOSTIC_FLAG = "numerical_diagnostic"


@dataclass(frozen=True)
class OutputTable:
    """Numeric rows plus the self-describing header they are emitted under.

    `left_out` has one message per row dropped for a failed self-check.
    """

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    flags: tuple[str, ...] = ()
    left_out: tuple[str, ...] = ()

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
        lines.append(f"## chunk_size = {_CHUNK_USERS}")
    lines.extend(_echo_lines(config, spec))
    return tuple(lines)


def _laid_out(
    points: list[tuple[SystemConfig, int]],
) -> list[tuple[SystemConfig, PaLayout]]:
    """Each (config, m) point with its layout, built once per distinct (d_x, m)."""
    layouts: dict[tuple[float, int], PaLayout] = {}
    pairs = []
    for config, m in points:
        key = (config.d_x, m)
        if key not in layouts:
            layouts[key] = make_layout(config, m)
        pairs.append((config, layouts[key]))
    return pairs


def _partitioned(
    points: list[tuple[SystemConfig, int]],
) -> list[tuple[SystemConfig, PaLayout, RegionPartition]]:
    """Each (config, m) point with its layout and optimized partition."""
    pairs = _laid_out(points)
    return [pair + (part,) for pair, part in zip(pairs, _optimize_partitions(pairs))]


def _evaluate(
    metric: str, points: list[tuple[SystemConfig, int]], sim: SimulationSpec
) -> list[tuple[tuple[float, ...], tuple[str, ...]] | NumericalDiagnosticError]:
    """Per (config, m) point, its row's trailing columns and numerical flags.

    A point whose numerical self-check failed gets that error instead. The
    whole run is one batch call of the metric.
    """
    if metric == "simulate":
        estimates = _simulate_outages(_laid_out(points), sim)
        return [((e.mean, e.std_error), ()) for e in estimates]
    batch = {"outage": _outages, "rate": _ergodic_rates, "pde": _pdes}[metric]
    return [
        r if isinstance(r, NumericalDiagnosticError) else ((r.value,), r.flags)
        for r in batch(_partitioned(points))
    ]


def run_sweep(spec: SweepSpec, sim: SimulationSpec | None = None) -> list[OutputTable]:
    """Evaluate the sweep and return its output tables.

    The whole run is evaluated in one `_evaluate` call, in a fixed order,
    and the tables are cut from its results; repeated runs are
    byte-identical. Numerical flags raised at any point (for example the attenuation
    underflow clamp) are collected onto the affected table for the caller
    to surface. A point whose numerical self-check fails is left out of
    its table, which then carries the flag "numerical_diagnostic" and the
    point's message in `left_out`. An axis value that its config rejects
    raises a ConfigError led by `axis_values:`, the axis and the value.
    """
    config = spec.fixed_params
    sim = sim if sim is not None else SimulationSpec()
    tables: list[OutputTable] = []

    if spec.metric == "regions":
        points = [(config, m) for m in spec.m_values]
        for m, (_, layout, partition) in zip(spec.m_values, _partitioned(points)):
            rows = tuple(
                zip(
                    map(float, range(1, m + 1)),
                    layout.x_k.tolist(),
                    partition.left_limits.tolist(),
                    partition.right_limits.tolist(),
                    partition.boundaries_b[1:].tolist(),
                )
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
    if per_m:
        table_ms = spec.m_values
        # One validated config per axis value, shared by every m.
        configs = []
        for value in spec.axis_values:
            try:
                configs.append(dataclasses.replace(config, **{spec.sweep_axis: value}))
            except ValueError as exc:
                raise ConfigError(f"axis_values: {spec.sweep_axis} = {value!r}: {exc}") from None
        points = [(point, m) for m in table_ms for point in configs]
    else:
        table_ms = (0,)
        points = [(config, int(value)) for value in spec.axis_values]
    results = _evaluate(spec.metric, points, sim)
    count = len(spec.axis_values)
    for i, m in enumerate(table_ms):
        rows = []
        left_out = []
        flags: set[str] = set()
        table = slice(i * count, (i + 1) * count)
        for value, (_, point_m), result in zip(
            spec.axis_values, points[table], results[table]
        ):
            if isinstance(result, NumericalDiagnosticError):
                left_out.append(
                    f"{spec.sweep_axis} = {value!r}, m = {point_m}: row left out: {result}"
                )
                flags.add(_DIAGNOSTIC_FLAG)
                continue
            tail, point_flags = result
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
                left_out=tuple(left_out),
            )
        )
    return tables


def emit_table(table: OutputTable, path: str | os.PathLike) -> None:
    """Write a table as deterministic text: 12 significant digits, LF endings."""
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
