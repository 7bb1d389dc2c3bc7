"""Command-line driver.

One subcommand per metric (outage, rate, pde, regions, simulate) plus a
selftest that exercises the numerical core against internal oracles. The
subcommand overrides any metric named in the config file; everything else
comes from the file, with --seed and --samples steering the simulation
stream. Exit codes: 0 success, 1 usage or configuration error, 2 a
numerical flag or a failed self-check at some point (every table is
still written, without the failed rows).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ConfigError, load_config
from .metrics import (
    _ergodic_rates,
    c_l,
    ergodic_rate,
    i_i,
    i_j,
    outage_probability,
    p_l,
    pde,
)
from .montecarlo import SimulationSpec, simulate_outage, simulate_rate
from .numerics import gauss_legendre
from .regions import optimize_partition
from .specfun import CATALAN, ti2
from .sweep import emit_table, run_sweep
from .system import SystemConfig, best_snr, db_to_linear, make_layout, snr_matrix

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of its default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="pinchpas",
        description=(
            "Outage, rate, and discretization-efficiency sweeps for a "
            "waveguide-fed discrete antenna system."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pinchpas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("outage", "closed-form outage probability sweep"),
        ("rate", "closed-form ergodic rate sweep"),
        ("pde", "discretization-efficiency sweep"),
        ("regions", "dump the optimized serving-region partition"),
        ("simulate", "Monte Carlo outage sweep with standard errors"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument(
            "--out-dir",
            default=".",
            help="directory for the output tables (created if missing)",
        )
        p.add_argument("--seed", type=int, default=0, help="simulation stream seed")
        p.add_argument(
            "--samples",
            type=int,
            default=1_000_000,
            help="simulation sample count per sweep point",
        )
    sub.add_parser("selftest", help="run the built-in numerical consistency checks")
    return parser


def _check(name: str, ok: bool, detail: str = "") -> bool:
    if ok:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name}: {detail}")
    return ok


def _selftest() -> int:
    """Fast numerical consistency checks against internal oracles."""
    all_ok = True

    diff = abs(ti2(1.0) - CATALAN)
    all_ok &= _check("ti2(1) matches the Catalan constant", diff <= 1e-12, f"diff={diff:.3e}")

    worst = 0.0
    for z in (1.05, 1.3, 2.0, 7.5, 40.0):
        lhs = ti2(z)
        rhs = ti2(1.0 / z) + 0.5 * math.pi * math.log(z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    all_ok &= _check("ti2 inversion identity", worst <= 1e-12, f"worst rel={worst:.3e}")

    # Conditional outage is continuous across its regime boundaries.
    delta, d_y = 2.0, 10.0
    worst = 0.0
    for a_edge in (delta**2, d_y**2 / 4.0, delta**2 + d_y**2 / 4.0):
        lo = p_l(delta, a_edge * (1.0 - 1e-9), d_y)
        hi = p_l(delta, a_edge * (1.0 + 1e-9), d_y)
        worst = max(worst, abs(hi - lo))
    all_ok &= _check("outage regime continuity", worst <= 1e-6, f"worst jump={worst:.3e}")

    # Rate building blocks against direct quadrature of their integrands.
    worst = 0.0
    for x, dw, wy in ((9.0, 2.0, 10.0), (1e4, 0.5, 10.0), (25.0, 6.0, 4.0)):
        nodes, weights = gauss_legendre(200, 0.0, wy / 2.0)
        quad_i = sum(
            w * dw * math.log(dw * dw + x + y * y) for y, w in zip(nodes, weights)
        )
        quad_j = sum(
            w * 2.0 * math.sqrt(x + y * y) * math.atan(dw / math.sqrt(x + y * y))
            for y, w in zip(nodes, weights)
        )
        worst = max(worst, abs(i_i(x, dw, wy) - quad_i) / abs(quad_i))
        worst = max(worst, abs(i_j(x, dw, wy) - quad_j) / abs(quad_j))
    all_ok &= _check("rate kernels match quadrature", worst <= 1e-10, f"worst rel={worst:.3e}")

    config = SystemConfig(d_x=10.0, gamma_t_db=96.0)
    layout = make_layout(config, 2)
    partition = optimize_partition(config, layout)
    sim = SimulationSpec(n_samples=100_000, seed=7)
    analytic = outage_probability(config, layout, partition).value
    estimate = simulate_outage(config, layout, sim)
    gap = abs(analytic - estimate.mean)
    band = 5.0 * max(estimate.std_error, 1e-12)
    all_ok &= _check(
        "analytic outage within 5 sigma of simulation",
        gap <= band,
        f"analytic={analytic:.6f} simulated={estimate.mean:.6f} band={band:.2e}",
    )

    analytic_rate = ergodic_rate(config, layout, partition).value
    rate_est = simulate_rate(config, layout, sim)
    gap = abs(analytic_rate - rate_est.mean)
    band = 5.0 * rate_est.std_error
    all_ok &= _check(
        "analytic rate within 5 sigma of simulation",
        gap <= band,
        f"analytic={analytic_rate:.6f} simulated={rate_est.mean:.6f} band={band:.2e}",
    )

    # The simulator's candidate window holds every user's best antenna.
    users = np.random.default_rng(2000)
    differ = 0
    for alpha in (0.05, 0.4):
        room = SystemConfig(d_x=30.0, alpha=alpha)
        grid = make_layout(room, 100)
        x = users.uniform(0.0, room.d_x, 2000)
        y = users.uniform(-room.d_y / 2.0, room.d_y / 2.0, 2000)
        full = snr_matrix(room, grid, x, y).max(axis=0)
        differ += int(np.count_nonzero(best_snr(room, grid, x, y) != full))
    all_ok &= _check(
        "best-antenna window matches full max",
        differ == 0,
        f"{differ} of 4000 users differ",
    )

    # One kernel pass over a whole table keeps each point's rate its own.
    room = SystemConfig(d_x=30.0)
    points = []
    for m in range(1, 21):
        grid = make_layout(room, m)
        points.append((room, grid, optimize_partition(room, grid)))
    worst = 0.0
    for batched, point in zip(_ergodic_rates(points), points):
        single = ergodic_rate(*point).value
        worst = max(worst, abs(batched.value - single) / single)
    all_ok &= _check(
        "batched rate table matches pointwise rates",
        worst <= 1e-13,
        f"worst rel={worst:.3e}",
    )

    efficiency = pde(config, layout, partition).value
    all_ok &= _check(
        "discretization efficiency lies in (0, 1]",
        0.0 < efficiency <= 1.0,
        f"value={efficiency!r}",
    )

    # Spot-check the conditional rate against its defining double integral.
    c0 = db_to_linear(config.gamma_t_db) * 1e-7
    nodes_e, weights_e = gauss_legendre(120, 0.0, 3.0)
    nodes_y, weights_y = gauss_legendre(120, 0.0, 5.0)
    quad = 0.0
    for eps, we in zip(nodes_e, weights_e):
        for y, wy in zip(nodes_y, weights_y):
            quad += (
                we
                * wy
                * math.log2(1.0 + c0 / (eps * eps + y * y + config.h * config.h))
            )
    quad *= 2.0 / (3.0 * 10.0)
    closed = c_l(3.0, c0, config)
    rel = abs(closed - quad) / abs(quad)
    all_ok &= _check("conditional rate matches quadrature", rel <= 1e-9, f"rel={rel:.3e}")

    if not all_ok:
        print("selftest: FAILURES detected")
        return 2
    print("selftest: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "selftest":
        return _selftest()

    try:
        _, spec = load_config(args.config, metric=args.command)
        sim = SimulationSpec(n_samples=args.samples, seed=args.seed)
    except FileNotFoundError as exc:
        print(f"pinchpas: config file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"pinchpas: {exc}", file=sys.stderr)
        return 1

    try:
        tables = run_sweep(spec, sim)
    except ValueError as exc:
        print(f"pinchpas: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    flagged: set[str] = set()
    for table in tables:
        path = out_dir / f"{table.name}.dat"
        try:
            emit_table(table, path)
        except OSError as exc:
            print(f"pinchpas: cannot write {path}: {exc}", file=sys.stderr)
            return 1
        if not table.rows:
            status = max(status, 1)
        flagged.update(table.flags)
        print(f"wrote {path} ({len(table.rows)} rows)")
    if flagged:
        print(
            "pinchpas: numerical flags raised: " + ", ".join(sorted(flagged)),
            file=sys.stderr,
        )
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
