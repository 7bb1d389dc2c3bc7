"""The benchmark's workloads: named lists of `pinchpas` CLI invocations.

Each op is one subcommand run against one config file. Every config sets
`sweep_axis`, `axis_values` and `m_values` explicitly (or, for `regions`,
only `m_values`), so the emitted tables do not depend on which defaults
the config parser resolves for a metric. Why each workload exists is
written in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

SAMPLES = 1_000_000
# Seed of the stored golden tables; also the CLI's default `--seed`.
GOLDEN_SEED = 0


@dataclass(frozen=True)
class Op:
    id: str
    command: str
    config: str


def _gamma_room(d_x: int) -> list[Op]:
    sweep = (
        f"d_x = {d_x}\n"
        "sweep_axis = gamma_t_db\n"
        "axis_values = 90:110:21\n"
        "m_values = 1,2,10\n"
    )
    ops = [Op(f"{cmd}_dx{d_x}", cmd, sweep) for cmd in ("outage", "rate", "pde")]
    ops.append(Op(f"regions_dx{d_x}", "regions", f"d_x = {d_x}\nm_values = 1,2,10\n"))
    return ops


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "gamma_curves": tuple(_gamma_room(10) + _gamma_room(30)),
    "antenna_scaling": (
        Op(
            "pde_m_axis",
            "pde",
            "d_x = 30\nsweep_axis = m\naxis_values = 1:100:100\nm_values = 1\n",
        ),
        Op(
            "rate_m50_100",
            "rate",
            "d_x = 30\nsweep_axis = gamma_t_db\naxis_values = 90:110:21\n"
            "m_values = 50,100\n",
        ),
        Op("regions_m100", "regions", "d_x = 30\nm_values = 100\n"),
    ),
    "monte_carlo": (
        Op(
            "simulate_gamma_m1_10",
            "simulate",
            "d_x = 30\nsweep_axis = gamma_t_db\naxis_values = 90:110:11\n"
            "m_values = 1,10\n",
        ),
        Op(
            "simulate_gamma_m100",
            "simulate",
            "d_x = 30\nsweep_axis = gamma_t_db\naxis_values = 95:105:3\n"
            "m_values = 100\n",
        ),
        Op(
            "simulate_alpha_m10",
            "simulate",
            "d_x = 30\nsweep_axis = alpha\naxis_values = 0.02,0.05,0.1\n"
            "m_values = 10\n",
        ),
    ),
}


def sim_seed(seed: int) -> int:
    """The `--seed` handed to `pinchpas simulate` for a benchmark seed."""
    return seed % 2**32


def argv(op: Op, config_path: str, out_dir: str, seed: int) -> list[str]:
    """Arguments for `pinchpas.cli.main` that run one op."""
    return [
        op.command,
        "--config",
        config_path,
        "--out-dir",
        out_dir,
        "--seed",
        str(sim_seed(seed)),
        "--samples",
        str(SAMPLES),
    ]
