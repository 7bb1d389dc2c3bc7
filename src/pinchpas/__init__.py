"""Analysis toolkit for waveguide-fed discrete ("pinching") antenna systems.

Closed-form outage probability and ergodic rate for a line of antennas on
a lossy dielectric waveguide, the optimal serving-region partition, the
continuously-placed baseline rate, and the resulting discretization
efficiency, with Monte Carlo estimators for validation and a sweep CLI
that emits plot-ready text tables.
"""

from ._version import __version__
from .config import ConfigError, SweepSpec, load_config, parse_config_text
from .metrics import (
    MetricResult,
    NumericalDiagnosticError,
    c_l,
    continuous_optimal_position,
    continuous_rate,
    ergodic_rate,
    i_i,
    i_j,
    outage_probability,
    p_l,
    pde,
)
from .montecarlo import (
    SimEstimate,
    SimulationSpec,
    simulate_continuous_rate,
    simulate_outage,
    simulate_rate,
)
from .regions import RegionPartition, optimize_partition
from .specfun import CATALAN, ti2
from .sweep import OutputTable, emit_table, header_config_text, reload_run, run_sweep
from .system import (
    SPEED_OF_LIGHT,
    PaLayout,
    SystemConfig,
    UserPosition,
    best_snr,
    db_to_linear,
    make_layout,
    select_pa,
    snr_matrix,
)

__all__ = [
    "__version__",
    "CATALAN",
    "SPEED_OF_LIGHT",
    "ConfigError",
    "MetricResult",
    "NumericalDiagnosticError",
    "OutputTable",
    "PaLayout",
    "RegionPartition",
    "SimEstimate",
    "SimulationSpec",
    "SweepSpec",
    "SystemConfig",
    "UserPosition",
    "best_snr",
    "c_l",
    "continuous_optimal_position",
    "continuous_rate",
    "db_to_linear",
    "emit_table",
    "ergodic_rate",
    "header_config_text",
    "i_i",
    "i_j",
    "load_config",
    "make_layout",
    "optimize_partition",
    "outage_probability",
    "p_l",
    "parse_config_text",
    "pde",
    "reload_run",
    "run_sweep",
    "select_pa",
    "simulate_continuous_rate",
    "simulate_outage",
    "simulate_rate",
    "snr_matrix",
    "ti2",
]
