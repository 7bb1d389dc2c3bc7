"""Command-line driver.

One flat parser: a command, one per metric (outage, rate, pde, regions,
simulate) plus a selftest that exercises the numerical core against
internal oracles, and four options. The sweep commands need --config;
selftest takes no options. The command overrides any metric named in the
config file; everything else comes from the file, with --seed and
--samples steering the simulation stream. Every diagnostic is one
'pinchpas: ...' line on stderr, a left-out row's message included. Exit
codes: 0 success, 1 usage or configuration error, 2 a numerical flag or a
failed self-check at some point (every table is still written, without the
failed rows).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ConfigError, SweepSpec, load_config
from .metrics import (
    c_l,
    ergodic_rate,
    i_i,
    i_j,
    outage_probability,
    p_l,
    pde,
)
from .montecarlo import SimulationSpec, simulate_outage, simulate_rate
from .numerics import gauss_legendre, leggauss_cached
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


_COMMANDS = {
    "outage": "closed-form outage probability sweep",
    "rate": "closed-form ergodic rate sweep",
    "pde": "discretization-efficiency sweep",
    "regions": "dump the optimized serving-region partition",
    "simulate": "Monte Carlo outage sweep with standard errors",
    "selftest": "run the built-in numerical consistency checks (takes no options)",
}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="pinchpas",
        usage=(
            "%(prog)s [-h] [--version]\n"
            "       %(prog)s {outage,rate,pde,regions,simulate} --config CONFIG\n"
            "                [--out-dir OUT_DIR] [--seed SEED] [--samples SAMPLES]\n"
            "       %(prog)s selftest"
        ),
        description=(
            "Outage, rate, and discretization-efficiency sweeps for a\n"
            "waveguide-fed discrete antenna system."
        ),
        epilog="commands:\n"
        + "".join(f"  {name:<10}{text}\n" for name, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"pinchpas {__version__}")
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    # An option left out stays off the namespace, so main sees which were given.
    for flag, kind, text in (
        ("--config", str, "path to a key = value config file"),
        ("--out-dir", str, "directory for the output tables (default .; created if missing)"),
        ("--seed", int, "simulation stream seed"),
        ("--samples", int, "simulation sample count per sweep point"),
    ):
        parser.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=text)
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

    # An n-node rule is exact to degree 2n - 1, and x^(2n-2) rests on its end nodes.
    worst = 0.0
    for n in (64, 128):
        nodes, weights = leggauss_cached(n)
        exact = 2.0 / (2 * n - 1)
        worst = max(worst, abs(float(weights @ nodes ** (2 * n - 2)) - exact) / exact)
    all_ok &= _check(
        "Gauss-Legendre rules integrate x^(2n-2) exactly",
        worst <= 1e-13,
        f"worst rel={worst:.3e}",
    )

    diff = abs(ti2(1.0) - CATALAN)
    all_ok &= _check("ti2(1) matches the Catalan constant", diff <= 1e-12, f"diff={diff:.3e}")

    # ti2 is Im Li2(iz) up to |z| = 1 and the inversion identity above it;
    # quadrature checks both sides of that seam.
    worst = 0.0
    for z in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0):
        nodes, weights = gauss_legendre(200, 0.0, z)
        quad = float(weights @ (np.arctan(nodes) / nodes))
        worst = max(worst, abs(ti2(z) - quad) / quad)
    all_ok &= _check(
        "ti2 matches quadrature across its seam", worst <= 1e-12, f"worst rel={worst:.3e}"
    )

    # Conditional outage is continuous across its regime boundaries.
    delta, d_y = 2.0, 10.0
    edges = np.array([delta**2, d_y**2 / 4.0, delta**2 + d_y**2 / 4.0])
    jumps = p_l(delta, edges * (1.0 + 1e-9), d_y) - p_l(delta, edges * (1.0 - 1e-9), d_y)
    worst = float(np.abs(jumps).max())
    all_ok &= _check("outage regime continuity", worst <= 1e-6, f"worst jump={worst:.3e}")

    # Rate building blocks against direct quadrature of their integrands.
    worst = 0.0
    for x, dw, wy in ((9.0, 2.0, 10.0), (1e4, 0.5, 10.0), (25.0, 6.0, 4.0)):
        nodes, weights = gauss_legendre(200, 0.0, wy / 2.0)
        root = np.sqrt(x + nodes * nodes)
        quad_i = float(weights @ (dw * np.log(dw * dw + x + nodes * nodes)))
        quad_j = float(weights @ (2.0 * root * np.arctan(dw / root)))
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

    # The simulator's best gains, by antenna rows (m = 10) and by the
    # candidate window (m = 100), hold every user's best antenna.
    users = np.random.default_rng(2000)
    differ = 0
    for m in (10, 100):
        for alpha in (0.05, 0.4):
            room = SystemConfig(d_x=30.0, alpha=alpha)
            grid = make_layout(room, m)
            x = users.uniform(0.0, room.d_x, 2000)
            y = users.uniform(-room.d_y / 2.0, room.d_y / 2.0, 2000)
            full = snr_matrix(room, grid, x, y).max(axis=0)
            differ += int(np.count_nonzero(best_snr(room, grid, x, y) != full))
    all_ok &= _check(
        "best-antenna window matches full max",
        differ == 0,
        f"{differ} of 8000 users differ",
    )

    # Outage, rate and pde sweeps along m, one batch each, keep each
    # point's value its own: each outage and rate bit for bit.
    room = SystemConfig(d_x=30.0)
    counts = tuple(float(m) for m in range(1, 21))
    spec = SweepSpec(
        metric="rate", sweep_axis="m", axis_values=counts, fixed_params=room, m_values=(1,)
    )
    (outage_table,) = run_sweep(replace(spec, metric="outage"))
    (rate_table,) = run_sweep(spec)
    (pde_table,) = run_sweep(replace(spec, metric="pde"))
    outages_differ, rates_differ, worst_pde = 0, 0, 0.0
    for (m, outage), (_, rate), (_, efficiency) in zip(
        outage_table.rows, rate_table.rows, pde_table.rows
    ):
        grid = make_layout(room, int(m))
        cuts = optimize_partition(room, grid)
        outages_differ += outage != outage_probability(room, grid, cuts).value
        rates_differ += rate != ergodic_rate(room, grid, cuts).value
        single = pde(room, grid, cuts).value
        worst_pde = max(worst_pde, abs(efficiency - single) / single)
    all_ok &= _check(
        "batched outage table matches pointwise outage",
        len(outage_table.rows) == len(counts) and outages_differ == 0,
        f"{outages_differ} of {len(counts)} outages differ",
    )
    all_ok &= _check(
        "batched rate table matches pointwise rates",
        len(rate_table.rows) == len(counts) and rates_differ == 0,
        f"{rates_differ} of {len(counts)} rates differ",
    )
    all_ok &= _check(
        "batched pde table matches pointwise pde",
        len(pde_table.rows) == len(counts) and worst_pde <= 1e-13,
        f"worst rel={worst_pde:.3e}",
    )

    # A simulate run along alpha at two antenna counts draws its users once;
    # each point still equals its own simulation exactly.
    spec = SweepSpec(
        metric="simulate",
        sweep_axis="alpha",
        axis_values=(0.02, 0.05, 0.1),
        fixed_params=room,
        m_values=(1, 10),
    )
    small = SimulationSpec(n_samples=20_000, seed=7)
    differ = 0
    for table, m in zip(run_sweep(spec, small), spec.m_values):
        for alpha, mean, std_error in table.rows:
            point = replace(room, alpha=alpha)
            single = simulate_outage(point, make_layout(point, m), small)
            differ += (mean, std_error) != (single.mean, single.std_error)
    all_ok &= _check(
        "shared-draw simulate run matches pointwise simulation",
        differ == 0,
        f"{differ} of 6 points differ",
    )

    # The conditional rate, by both of its paths, against its defining integral.
    nodes_e, weights_e = gauss_legendre(120, 0.0, 3.0)
    nodes_y, weights_y = gauss_legendre(120, 0.0, 5.0)
    for name, c0, tol in (
        ("conditional rate matches quadrature", db_to_linear(config.gamma_t_db) * 1e-7, 1e-9),
        ("conditional rate below the trust bound matches quadrature", 1e-5, 1e-10),
    ):
        dist_sq = nodes_e[:, None] ** 2 + nodes_y**2 + config.h * config.h
        quad = float(weights_e @ np.log1p(c0 / dist_sq) @ weights_y)
        quad *= 2.0 / (3.0 * 10.0 * math.log(2.0))
        rel = abs(c_l(3.0, c0, config) - quad) / abs(quad)
        all_ok &= _check(name, rel <= tol, f"rel={rel:.3e}")

    if not all_ok:
        print("selftest: FAILURES detected")
        return 2
    print("selftest: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        options = vars(parser.parse_args(argv))
        command = options.pop("command")
        if command == "selftest" and options:
            given = ", ".join("--" + name.replace("_", "-") for name in options)
            parser.error(f"selftest takes no options, got {given}")
        if command != "selftest" and "config" not in options:
            parser.error("the following arguments are required: --config")
    except SystemExit as exc:
        return int(exc.code or 0)

    if command == "selftest":
        return _selftest()

    try:
        _, spec = load_config(options["config"], metric=command)
        sim = SimulationSpec(
            n_samples=options.get("samples", SimulationSpec.n_samples),
            seed=options.get("seed", SimulationSpec.seed),
        )
    except OSError as exc:
        print(f"pinchpas: cannot read config {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"pinchpas: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(options.get("out_dir", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"pinchpas: cannot make output dir {out_dir}: {exc.strerror}", file=sys.stderr)
        return 1

    try:
        tables = run_sweep(spec, sim)
    except ValueError as exc:
        print(f"pinchpas: {exc}", file=sys.stderr)
        return 1
    flagged: set[str] = set()
    for table in tables:
        path = out_dir / f"{table.name}.dat"
        try:
            emit_table(table, path)
        except OSError as exc:
            print(f"pinchpas: cannot write {path}: {exc}", file=sys.stderr)
            return 1
        for message in table.left_out:
            print(f"pinchpas: {message}", file=sys.stderr)
        flagged.update(table.flags)
        print(f"wrote {path} ({len(table.rows)} rows)")
    if flagged:
        print(
            "pinchpas: numerical flags raised: " + ", ".join(sorted(flagged)),
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
