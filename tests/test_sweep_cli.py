"""Sweep orchestration, table emission, and the command-line surface."""

import logging
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchpas import (
    OutputTable,
    SimulationSpec,
    SweepSpec,
    SystemConfig,
    continuous_rate,
    emit_table,
    ergodic_rate,
    make_layout,
    optimize_partition,
    pde,
    header_config_text,
    load_config,
    parse_config_text,
    run_sweep,
    simulate_outage,
)
from pinchpas import __version__, cli, metrics, montecarlo, sweep
from pinchpas.cli import main


def _spec(text):
    return parse_config_text(text)[1]


# ---------------------------------------------------------------- sweeps --

def test_sweep_one_table_per_antenna_count():
    spec = _spec("d_x = 10\nmetric = outage\nm_values = 1, 2, 10\n")
    tables = run_sweep(spec)
    assert [t.name for t in tables] == ["outage_m1", "outage_m2", "outage_m10"]
    for t in tables:
        assert len(t.rows) == 11
        assert all(len(r) == 2 for r in t.rows)
        xs = [r[0] for r in t.rows]
        assert xs == sorted(xs)


def test_sweep_outage_columns_monotone_nonincreasing():
    # More transmit power can only reduce outage, for every antenna count.
    spec = _spec("d_x = 10\nmetric = outage\nm_values = 1, 2, 10\n")
    for table in run_sweep(spec):
        vals = [r[1] for r in table.rows]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), table.name


def test_sweep_m_axis_collapses_to_single_table():
    spec = _spec("d_x = 10\nmetric = pde\n")
    tables = run_sweep(spec)
    assert len(tables) == 1
    assert tables[0].name == "pde"
    assert [r[0] for r in tables[0].rows] == [float(i) for i in range(1, 11)]


def test_sweep_pde_equals_rate_over_continuous():
    # Cross-metric consistency: fixed parameters, same antenna counts.
    base = "d_x = 14\nalpha = 0.05\ngamma_t_db = 95\nsweep_axis = m\naxis_values = 1:6:6\n"
    pde_rows = run_sweep(_spec(base + "metric = pde\n"))[0].rows
    rate_rows = run_sweep(_spec(base + "metric = rate\n"))[0].rows
    cont = continuous_rate(SystemConfig(d_x=14.0, alpha=0.05, gamma_t_db=95.0)).value
    for (m1, eff), (m2, rate) in zip(pde_rows, rate_rows):
        assert m1 == m2
        assert abs(eff - rate / cont) < 1e-10


def test_sweep_regions_tables():
    spec = _spec("d_x = 20\nmetric = regions\nm_values = 1, 3\n")
    tables = run_sweep(spec)
    assert [t.name for t in tables] == ["regions_m1", "regions_m3"]
    t3 = tables[1]
    assert len(t3.rows) == 3
    for i, row in enumerate(t3.rows):
        k, x_k, left, right, cut = row
        assert k == float(i + 1)
        assert left > 0 and right > 0
        assert cut == pytest.approx(x_k + right, rel=1e-12)
    # strips tile the room
    assert t3.rows[-1][4] == pytest.approx(20.0)
    total = sum(r[2] + r[3] for r in t3.rows)
    assert total == pytest.approx(20.0, rel=1e-12)


def test_sweep_simulate_carries_stderr_column():
    spec = _spec("d_x = 10\nmetric = simulate\naxis_values = 94:96:2\nm_values = 2\n")
    tables = run_sweep(spec, SimulationSpec(n_samples=50_000, seed=5))
    assert len(tables) == 1
    assert all(len(r) == 3 for r in tables[0].rows)
    # The stream's identity follows the column line, chunk size included.
    header = tables[0].header
    after = header.index("## columns: gamma_t_db outage_estimate std_error") + 1
    assert header[after : after + 3] == (
        "## seed = 5",
        "## n_samples = 50000",
        "## chunk_size = 250000",
    )


def _count_user_draws(monkeypatch):
    calls = []
    users = montecarlo._users

    def counting_users(spec, d_x, d_y):
        calls.append((d_x, d_y))
        return users(spec, d_x, d_y)

    monkeypatch.setattr(montecarlo, "_users", counting_users)
    return calls


def test_sweep_simulate_gamma_draws_users_once_per_run(monkeypatch):
    calls = _count_user_draws(monkeypatch)
    spec = _spec(
        "d_x = 30\nmetric = simulate\naxis_values = 90:110:5\nm_values = 1,20\n"
    )
    sim = SimulationSpec(n_samples=20_000, seed=7)
    tables = run_sweep(spec, sim)
    # One stream of users for the run, not one per table or per point.
    assert calls == [(30.0, 10.0)]
    for table, m in zip(tables, (1, 20)):
        for gamma_t_db, mean, std_error in table.rows:
            point = replace(spec.fixed_params, gamma_t_db=gamma_t_db)
            expected = simulate_outage(point, make_layout(point, m), sim)
            assert (mean, std_error) == (expected.mean, expected.std_error)


def test_sweep_simulate_alpha_draws_users_once_per_run(monkeypatch):
    calls = _count_user_draws(monkeypatch)
    spec = _spec(
        "d_x = 30\nmetric = simulate\nsweep_axis = alpha\n"
        "axis_values = 0.02,0.05,0.1\nm_values = 10\n"
    )
    sim = SimulationSpec(n_samples=20_000, seed=7)
    (table,) = run_sweep(spec, sim)
    # One stream shared by the three alpha values, not one each.
    assert calls == [(30.0, 10.0)]
    expected = []
    for alpha in (0.02, 0.05, 0.1):
        point = replace(spec.fixed_params, alpha=alpha)
        estimate = simulate_outage(point, make_layout(point, 10), sim)
        expected.append((alpha, estimate.mean, estimate.std_error))
    assert list(table.rows) == expected


def _count_kink_calls(monkeypatch):
    calls = []
    kinks = metrics._continuous_kinks

    def counting_kinks(config, dist_sq):
        calls.append(config)
        return kinks(config, dist_sq)

    monkeypatch.setattr(metrics, "_continuous_kinks", counting_kinks)
    return calls


def test_sweep_pde_gamma_builds_baseline_geometry_once(monkeypatch):
    calls = _count_kink_calls(monkeypatch)
    spec = _spec(
        "d_x = 30\nmetric = pde\nsweep_axis = gamma_t_db\naxis_values = 90:110:21\n"
        "m_values = 1,2,10\n"
    )
    tables = run_sweep(spec)
    # Once for the whole curve, both quadrature orders together, not once
    # per point.
    assert len(calls) == 1
    for table, m in zip(tables, (1, 2, 10)):
        assert len(table.rows) == 21
        for i, (gamma_t_db, efficiency) in enumerate(table.rows):
            point = replace(spec.fixed_params, gamma_t_db=gamma_t_db)
            layout = make_layout(point, m)
            expected = pde(point, layout, optimize_partition(point, layout)).value
            if i == 0:
                assert efficiency == expected
            assert efficiency == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_sweep_pde_alpha_builds_baseline_geometry_per_point(monkeypatch):
    calls = _count_kink_calls(monkeypatch)
    spec = _spec(
        "d_x = 30\nmetric = pde\nsweep_axis = alpha\n"
        "axis_values = 0.02,0.05,0.1\nm_values = 1,2\n"
    )
    (table_m1, table_m2) = run_sweep(spec)
    assert len(calls) == 3
    for table, m in ((table_m1, 1), (table_m2, 2)):
        expected = []
        for alpha in (0.02, 0.05, 0.1):
            point = replace(spec.fixed_params, alpha=alpha)
            layout = make_layout(point, m)
            expected.append(
                (alpha, pde(point, layout, optimize_partition(point, layout)).value)
            )
        assert list(table.rows) == expected


def _count_rate_passes(monkeypatch):
    # A rate run looks the pass up in `sweep`, and `metrics._pdes` in `metrics`.
    calls = []
    rates = metrics._ergodic_rates

    def counting_rates(points):
        calls.append(len(points))
        return rates(points)

    monkeypatch.setattr(sweep, "_ergodic_rates", counting_rates)
    monkeypatch.setattr(metrics, "_ergodic_rates", counting_rates)
    return calls


def test_sweep_pde_m_axis_is_one_rate_pass(monkeypatch):
    calls = _count_rate_passes(monkeypatch)
    spec = _spec("d_x = 30\nmetric = pde\nsweep_axis = m\naxis_values = 1:30:30\n")
    (table,) = run_sweep(spec)
    # All 30 points in one call, not one per point.
    assert calls == [30]
    assert len(table.rows) == 30
    for m, efficiency in table.rows:
        layout = make_layout(spec.fixed_params, int(m))
        partition = optimize_partition(spec.fixed_params, layout)
        expected = pde(spec.fixed_params, layout, partition).value
        assert efficiency == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_sweep_rate_gamma_is_one_rate_pass_per_run(monkeypatch):
    calls = _count_rate_passes(monkeypatch)
    spec = _spec(
        "d_x = 30\nmetric = rate\nsweep_axis = gamma_t_db\naxis_values = 90:110:21\n"
        "m_values = 1,2,10\n"
    )
    tables = run_sweep(spec)
    # Every table's 21 points in one call, not one call per table.
    assert calls == [63]
    for table, m in zip(tables, (1, 2, 10)):
        assert len(table.rows) == 21
        for gamma_t_db, rate in table.rows:
            point = replace(spec.fixed_params, gamma_t_db=gamma_t_db)
            layout = make_layout(point, m)
            expected = ergodic_rate(point, layout, optimize_partition(point, layout)).value
            assert rate == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_sweep_builds_one_config_per_axis_value(monkeypatch, tmp_path):
    built = []
    validate = SystemConfig.__post_init__

    def counting_post_init(self):
        built.append(self.gamma_t_db)
        validate(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counting_post_init)
    base = "d_x = 30\nmetric = pde\nsweep_axis = gamma_t_db\naxis_values = 90:110:5\n"
    tables = run_sweep(_spec(base + "m_values = 1,2,10\n"))
    # The loaded config, then one per axis value, shared by every m.
    assert built == [100.0, 90.0, 95.0, 100.0, 105.0, 110.0]

    def table_bytes(table):
        path = tmp_path / f"{table.name}.dat"
        emit_table(table, path)
        lines = path.read_bytes().splitlines()
        return [line for line in lines if not line.startswith(b"# m_values")]

    for table, m in zip(tables, (1, 2, 10)):
        (alone,) = run_sweep(_spec(base + f"m_values = {m}\n"))
        assert table.flags == alone.flags
        assert table_bytes(table) == table_bytes(alone)


@pytest.mark.parametrize("metric", ["rate", "simulate"])
def test_sweep_builds_one_layout_per_room_length_and_count(monkeypatch, metric):
    built = []
    make_layout_once = sweep.make_layout

    def counting_make_layout(config, m):
        built.append((config.d_x, m))
        return make_layout_once(config, m)

    monkeypatch.setattr(sweep, "make_layout", counting_make_layout)
    sim = SimulationSpec(n_samples=2000, seed=3)
    run_sweep(
        _spec(
            f"d_x = 30\nmetric = {metric}\nsweep_axis = gamma_t_db\n"
            "axis_values = 90:110:5\nm_values = 1,10\n"
        ),
        sim,
    )
    assert built == [(30.0, 1), (30.0, 10)]
    built.clear()
    run_sweep(
        _spec(
            f"d_x = 10\nmetric = {metric}\nsweep_axis = d_x\n"
            "axis_values = 10,20\nm_values = 2,3\n"
        ),
        sim,
    )
    assert built == [(10.0, 2), (20.0, 2), (10.0, 3), (20.0, 3)]


def test_sweep_d_x_axis():
    spec = _spec("d_x = 10\nmetric = rate\nsweep_axis = d_x\nm_values = 2\n")
    tables = run_sweep(spec)
    rows = tables[0].rows
    assert [r[0] for r in rows] == [10.0, 20.0, 30.0]
    # longer rooms spread the same antennas thinner: the rate drops
    vals = [r[1] for r in rows]
    assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------- tables --

def test_output_table_validation():
    header = ("# d_x = 10.0",)
    with pytest.raises(ValueError):
        OutputTable(name="t", header=("no hash",), rows=())
    with pytest.raises(ValueError):
        OutputTable(name="t", header=header, rows=((1.0,),))
    with pytest.raises(ValueError):
        OutputTable(name="t", header=header, rows=((1.0, 2.0), (1.0, 2.0, 3.0)))
    with pytest.raises(ValueError):
        OutputTable(name="t", header=header, rows=((1.0, math.inf),))


def test_emit_table_format(tmp_path):
    table = OutputTable(
        name="demo",
        header=("## pinchpas test", "# d_x = 10.0"),
        rows=((90.0, 0.123456789012345), (92.0, 1e-9)),
    )
    path = tmp_path / "demo.dat"
    emit_table(table, path)
    text = path.read_bytes().decode("utf-8")
    assert text == "## pinchpas test\n# d_x = 10.0\n90 0.123456789012\n92 1e-09\n"


def test_emit_table_writes_header_only_when_empty(tmp_path):
    table = OutputTable(name="empty", header=("## pinchpas test", "# d_x = 1.0"), rows=())
    emit_table(table, tmp_path / "empty.dat")
    assert (tmp_path / "empty.dat").read_bytes() == b"## pinchpas test\n# d_x = 1.0\n"


def test_header_round_trip(tmp_path):
    text = (
        "d_x = 17\nd_y = 9\nalpha = 0.033\ngamma_t_db = 97\n"
        "metric = rate\nm_values = 2, 5\n"
    )
    system, spec = parse_config_text(text)
    tables = run_sweep(spec)
    path = tmp_path / f"{tables[0].name}.dat"
    emit_table(tables[0], path)
    assert parse_config_text(header_config_text(path)) == (system, spec)


def test_emitted_tables_are_byte_identical_across_runs(tmp_path):
    spec = _spec("d_x = 12\nmetric = pde\nalpha = 0.08\n")
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        for table in run_sweep(spec):
            emit_table(table, d / f"{table.name}.dat")
    a = (tmp_path / "a" / "pde.dat").read_bytes()
    b = (tmp_path / "b" / "pde.dat").read_bytes()
    assert a == b


# ------------------------------------------------------------------- CLI --

def _write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_outage_end_to_end(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d_x = 10\nm_values = 2\naxis_values = 94:96:3\n")
    out = tmp_path / "out"
    code = main(["outage", "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    data = (out / "outage_m2.dat").read_text(encoding="utf-8")
    assert data.startswith("## pinchpas")
    assert len([l for l in data.splitlines() if not l.startswith("#")]) == 3


def test_cli_subcommand_overrides_config_metric(tmp_path):
    cfg = _write_cfg(tmp_path, "d_x = 10\nmetric = rate\nm_values = 2\n")
    out = tmp_path / "out"
    code = main(["pde", "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    # pde sweeps its own default axis, m, in one table.
    assert sorted(p.name for p in out.iterdir()) == ["pde.dat"]


def test_cli_subcommand_sets_sweep_defaults(tmp_path):
    cfg = _write_cfg(tmp_path, "d_x = 10\n")
    out = tmp_path / "out"
    assert main(["pde", "--config", cfg, "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["pde.dat"]
    _, spec = parse_config_text(header_config_text(out / "pde.dat"))
    assert spec.metric == "pde"
    assert spec.sweep_axis == "m"
    assert spec.axis_values == tuple(float(i) for i in range(1, 11))
    rows = np.loadtxt(out / "pde.dat", ndmin=2)
    assert rows[:, 0].tolist() == [float(i) for i in range(1, 11)]


def test_cli_zero_height_rate_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d_x = 10\nh = 0\n")
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out-dir", str(out)]) == 1
    assert "h must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rate", "pde"])
def test_cli_subnormal_height_squared_is_config_error(tmp_path, capsys, command):
    # h^2 rounds to 0: a config error with its line, not the kernel's check.
    cfg = _write_cfg(tmp_path, "d_x = 10\nh = 1e-170\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pinchpas: line 2: h must be > 0, with h^2 a normal float")
    assert err.count("\n") == 1
    assert not out.exists()


# A reach c_0k / gamma_thr that overflows to inf: an overflowing h^2 made it inf - inf.
_EXTREME_SNR = "gamma_t_db = 3000\ngamma_thr_db = -3000\nf_c = 1e6\n"


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("outage", "d_x = 10\ngamma_thr_db = -inf\n", "gamma_thr_db"),
        ("outage", "d_x = 10\ngamma_thr_db = -4000\n", "gamma_thr_db"),
        ("simulate", "d_x = inf\naxis_values = 95\n", "d_x"),
        ("simulate", "d_x = 10\nd_y = inf\naxis_values = 95\n", "d_y"),
        ("pde", "d_x = 10\ngamma_t_db = 1e308\n", "gamma_t_db"),
        ("outage", "d_x = 10\nsweep_axis = gamma_t_db\naxis_values = 90,4000\n",
         "gamma_t_db"),
        ("pde", "d_x = 10\nsweep_axis = alpha\naxis_values = 0.05,inf\n", "alpha"),
        ("outage", "d_x = 10\nsweep_axis = d_x\naxis_values = 10,inf\n", "d_x"),
        ("rate", "d_x = 10\nf_c = 1e-300\n", "f_c"),
        ("pde", "d_x = 10\nf_c = 1e300\n", "f_c"),
        ("simulate", "d_x = 10\ngamma_t_db = -3076\naxis_values = -3076\n", "gamma_t_db"),
        ("outage", _EXTREME_SNR + "d_x = 10\nh = 1e200\n", "h^2"),
        ("outage", _EXTREME_SNR + "d_x = 10\nd_y = 1e200\n", "d_y^2"),
        ("outage", _EXTREME_SNR + "d_x = 1e200\n", "d_x^2"),
        ("outage", "d_x = 10\nd_y = 1.34e154\nh = 1.34e154\n", "d_x^2 + (d_y/2)^2 + h^2"),
        ("rate", _EXTREME_SNR + "d_x = 1e-3\nd_y = 1e-3\nh = 1.34078e154\n",
         "big_c + d_x^2 + (d_y/2)^2 + h^2"),
    ],
    ids=[
        "threshold_minus_inf", "threshold_underflows", "d_x_inf", "d_y_inf",
        "gamma_t_overflows", "gamma_t_axis_overflows", "alpha_axis_inf", "d_x_axis_inf",
        "wavelength_overflows", "eta_underflows", "big_c_subnormal",
        "h_squared_overflows", "d_y_squared_overflows", "d_x_squared_overflows",
        "farthest_distance_squared_overflows", "big_c_plus_distance_squared_overflows",
    ],
)
def test_cli_non_finite_config_names_its_field(tmp_path, capsys, command, text, field):
    # Infinite fields, dB values whose linear ratio is 0 or overflows, an
    # f_c or gamma_t_db whose wavelength, eta or big_c leaves the normal
    # floats, and lengths whose square overflows are rejected when read
    # (or when the axis sets them), by name.
    cfg = _write_cfg(tmp_path, text + "m_values = 2\n")
    out = tmp_path / "o"
    code = main([command, "--config", cfg, "--out-dir", str(out), "--samples", "1000"])
    err = capsys.readouterr().err
    assert code == 1
    if "sweep_axis" in text:
        # A value the axis sets is named by the key that set it.
        assert err.startswith(f"pinchpas: axis_values: {field} = ")
        assert f": {field} must" in err
    else:
        assert f"pinchpas: {field} must" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "axis, values, bad",
    [("d_x", "10,1e200", "1e+200"), ("alpha", "-1,0.05", "-1.0"),
     ("gamma_t_db", "10,1e200", "1e+200")],
)
def test_cli_invalid_axis_value_names_axis_values(tmp_path, capsys, axis, values, bad):
    # The fixed d_x = 30 is valid and only one axis value is not, so the
    # one error line names axis_values, the axis and that value.
    cfg = _write_cfg(tmp_path, f"d_x = 30\nsweep_axis = {axis}\naxis_values = {values}\n")
    out = tmp_path / "o"
    assert main(["outage", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pinchpas: axis_values: {axis} = {bad}: ")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


_FLOAT_RANGE_ROOMS = [
    pytest.param(command, f"d_x = {d_x}\nm_values = 2\n", id=f"{command}_dx{d_x}")
    for d_x in ("1e12", "1e20", "1e100")
    for command in ("regions", "outage", "rate")
] + [
    pytest.param(
        "pde",
        _EXTREME_SNR + "d_x = 10\nh = 1e154\nsweep_axis = gamma_t_db\n"
        "axis_values = 3000\nm_values = 2\n",
        id="pde_series_near_max_float",
    ),
    pytest.param(
        "pde",
        "d_x = 10\nd_y = 1e154\nalpha = 1000\nm_values = 2\n",
        id="pde_baseline_alpha_d_overflows",
    ),
]


@pytest.mark.parametrize("command, text", _FLOAT_RANGE_ROOMS)
def test_cli_float_range_rooms_end_cleanly(tmp_path, capsys, command, text):
    # Past d_x of about 1e12 m the partition's offset reaches delta; near
    # the largest float, x = c_0k + h^2 and alpha^2 d^2 would overflow.
    # Each run exits 0 or 2 with no warning and no traceback.
    cfg = _write_cfg(tmp_path, text)
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where",
    [
        ("m_values = inf:inf:1\n", "line 2: m_values"),
        ("sweep_axis = m\naxis_values = nan\n", "line 3: axis_values"),
    ],
    ids=["m_values_inf", "m_axis_nan"],
)
def test_cli_non_finite_antenna_count_is_config_error(tmp_path, capsys, text, where):
    cfg = _write_cfg(tmp_path, "d_x = 10\n" + text)
    out = tmp_path / "o"
    assert main(["outage", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pinchpas: {where} ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, where",
    [
        ("m_values = 1e300:1e300:1\n", "line 2: m_values"),
        ("sweep_axis = m\naxis_values = 1e300\n", "line 3: axis_values"),
    ],
    ids=["m_values", "m_axis"],
)
def test_cli_huge_antenna_count_is_config_error(tmp_path, capsys, text, where):
    cfg = _write_cfg(tmp_path, "d_x = 10\n" + text)
    out = tmp_path / "o"
    assert main(["rate", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pinchpas: {where} ")
    assert "must be at most 1000000 antennas" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_simulate_seed_and_samples_flags(tmp_path):
    cfg = _write_cfg(tmp_path, "d_x = 10\nm_values = 2\naxis_values = 95:95:1\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out1),
                 "--seed", "11", "--samples", "20000"]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(out2),
                 "--seed", "11", "--samples", "20000"]) == 0
    b1 = (out1 / "simulate_m2.dat").read_bytes()
    assert b1 == (out2 / "simulate_m2.dat").read_bytes()
    assert b"## seed = 11" in b1
    assert b"## n_samples = 20000" in b1


@pytest.mark.parametrize(
    "text, name, rows",
    [
        # At alpha >= 0.2 the equal-SNR circles miss the edge rows, which
        # the partition step rejects.
        (
            "d_x = 30\nsweep_axis = alpha\naxis_values = 0.05,0.2,0.3\nm_values = 10\n",
            "simulate_m10",
            3,
        ),
        # alpha * delta = 1500 overflows the partition step's expm1.
        ("d_x = 3000\nalpha = 1\naxis_values = 100:100:1\nm_values = 2\n", "simulate_m2", 1),
    ],
    ids=["edge_rows_uncrossed", "expm1_overflow"],
)
def test_cli_simulate_builds_no_partition(tmp_path, text, name, rows):
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out),
                 "--samples", "1000"]) == 0
    table = (out / f"{name}.dat").read_text(encoding="utf-8").splitlines()
    data = [line.split() for line in table if not line.startswith("#")]
    assert len(data) == rows
    assert all(0.0 <= float(row[1]) <= 1.0 for row in data)


@pytest.mark.parametrize(
    "command, code, err_text, rows",
    [
        ("outage", 2, "pinchpas: numerical flags raised: c0k_underflow_clamp\n", 11),
        ("regions", 0, "", 2),
    ],
    ids=["outage", "regions"],
)
def test_cli_large_alpha_delta_is_named_error(tmp_path, capsys, command, code, err_text, rows):
    # alpha * delta = 1500 would overflow e^(alpha delta), and the equal-SNR
    # circle misses every row, so antenna 1 serves its whole strip. The far
    # antenna's attenuation underflows, which outage flags by name.
    cfg = _write_cfg(tmp_path, "d_x = 3000\nalpha = 1\nm_values = 2\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == err_text
    table = (out / f"{command}_m2.dat").read_text(encoding="utf-8").splitlines()
    assert len([line for line in table if not line.startswith("#")]) == rows


def test_cli_pde_along_alpha_writes_every_row(tmp_path):
    # From alpha = 0.15 on at d_x = 30, the equal-SNR circle misses the rows
    # near the walls; those rows belong to the nearer antenna.
    cfg = _write_cfg(
        tmp_path,
        "d_x = 30\nsweep_axis = alpha\naxis_values = 0.05:0.5:10\nm_values = 2, 10\n",
    )
    out = tmp_path / "o"
    assert main(["pde", "--config", cfg, "--out-dir", str(out)]) == 0
    for m in (2, 10):
        table = (out / f"pde_m{m}.dat").read_text(encoding="utf-8").splitlines()
        data = [line.split() for line in table if not line.startswith("#")]
        assert len(data) == 10
        assert all(0.0 < float(row[1]) <= 1.0 for row in data)


def test_cli_one_search_per_run_writes_the_single_m_tables(tmp_path):
    # A run searches all its partitions together; its tables must be the
    # bytes that one run per antenna count writes, apart from the echoed
    # m_values and axis_values. At alpha = 0.2 the circle misses the rows
    # near the walls for m = 10.
    def tables(name, command, text):
        out = tmp_path / name
        cfg = _write_cfg(tmp_path, text)
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes().splitlines() for p in out.iterdir()}

    def without_echo(lines):
        echo = (b"# m_values", b"# axis_values")
        return [line for line in lines if not line.startswith(echo)]

    room = "d_x = 30\nalpha = 0.2\n"
    ms = (2, 10, 100)
    together = tables("regions", "regions", room + "m_values = 2,10,100\n")
    assert sorted(together) == sorted(f"regions_m{m}.dat" for m in ms)
    for m in ms:
        alone = tables(f"regions{m}", "regions", room + f"m_values = {m}\n")
        name = f"regions_m{m}.dat"
        assert without_echo(alone[name]) == without_echo(together[name])
    along_m = room + "sweep_axis = m\nm_values = 1\n"
    together = tables("pde", "pde", along_m + "axis_values = 1,2,10,100\n")["pde.dat"]
    together = without_echo(together)
    header = [line for line in together if line.startswith(b"#")]
    rows = [line for line in together if not line.startswith(b"#")]
    assert len(rows) == 4
    for m, row in zip((1, 2, 10, 100), rows):
        alone = tables(f"pde{m}", "pde", along_m + f"axis_values = {m}\n")["pde.dat"]
        assert without_echo(alone) == header + [row]


def test_cli_pde_along_d_x_in_long_rooms(tmp_path):
    # In rooms of a few hundred metres the feed end serves the far end of
    # every row again; the continuous baseline must still settle there.
    cfg = _write_cfg(
        tmp_path,
        "d_x = 30\nsweep_axis = d_x\naxis_values = 100,300,500\nm_values = 10\n",
    )
    out = tmp_path / "o"
    assert main(["pde", "--config", cfg, "--out-dir", str(out)]) == 0
    table = (out / "pde_m10.dat").read_text(encoding="utf-8").splitlines()
    data = [line.split() for line in table if not line.startswith("#")]
    assert [float(row[0]) for row in data] == [100.0, 300.0, 500.0]
    assert all(0.0 < float(row[1]) <= 1.0 for row in data)


def _data_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(v) for v in line.split()] for line in lines if not line.startswith("#")]


_OVERFLOWING_PDE = "d_x = 30\nh = 1.5e-154\nsweep_axis = gamma_t_db\nm_values = 1\n"
_OVERFLOW_LEFT_OUT = "gamma_t_db = 70.0, m = 1: row left out: continuous rate not computed"


def test_cli_failed_self_check_costs_one_row(tmp_path, capsys):
    # At 70 dB the baseline's peak SNR big_c / h^2 overflows and pde fails
    # its self-check; the 60 dB row must still be written.
    text = _OVERFLOWING_PDE + "axis_values = 60,70\n"
    (table,) = run_sweep(_spec(text + "metric = pde\n"))
    assert len(table.left_out) == 1 and _OVERFLOW_LEFT_OUT in table.left_out[0]
    out = tmp_path / "o"
    assert main(["pde", "--config", _write_cfg(tmp_path, text), "--out-dir", str(out)]) == 2
    assert _data_rows(out / "pde_m1.dat") == [[60.0, 0.0621257235571]]
    err = capsys.readouterr().err
    assert f"pinchpas: {_OVERFLOW_LEFT_OUT}" in err
    assert "numerical flags raised: numerical_diagnostic" in err


def test_cli_every_row_left_out_writes_header_only(tmp_path, capsys):
    # The only point fails its self-check: the table is its header alone.
    cfg = _write_cfg(tmp_path, _OVERFLOWING_PDE + "axis_values = 70\n")
    out = tmp_path / "o"
    assert main(["pde", "--config", cfg, "--out-dir", str(out)]) == 2
    lines = (out / "pde_m1.dat").read_text(encoding="utf-8").splitlines()
    assert lines and all(line.startswith("#") for line in lines)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith(f"pinchpas: {_OVERFLOW_LEFT_OUT}")
    assert err[1] == "pinchpas: numerical flags raised: numerical_diagnostic"


def test_cli_unsettled_baseline_point_costs_one_row(tmp_path, monkeypatch, capsys):
    # One gamma_t point's base-order baseline is pushed 1e-5 off its refined
    # value, past the self-check's 1e-6, so exactly that point is unsettled;
    # every other row is still written.
    gammas = (90.0, 95.0, 100.0, 105.0, 110.0)
    worst = 2
    continuous_rates = metrics._continuous_rates

    def perturbed_rates(configs):
        rates = continuous_rates(configs)
        for i, config in enumerate(configs):
            if config.gamma_t_db == gammas[worst]:
                base, refined = rates[i]
                rates[i] = (base * (1.0 + 1e-5), refined)
        return rates

    monkeypatch.setattr(metrics, "_continuous_rates", perturbed_rates)
    text = "d_x = 10\nsweep_axis = gamma_t_db\naxis_values = 90:110:5\nm_values = 1,2\n"
    tables = run_sweep(_spec(text + "metric = pde\n"))
    out = tmp_path / "o"
    assert main(["pde", "--config", _write_cfg(tmp_path, text), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    settled = [g for i, g in enumerate(gammas) if i != worst]
    for i, m in enumerate((1, 2)):
        assert [row[0] for row in _data_rows(out / f"pde_m{m}.dat")] == settled
        message = (
            f"gamma_t_db = {gammas[worst]!r}, m = {m}: row left out: "
            "continuous-rate quadrature did not settle"
        )
        assert len(tables[i].left_out) == 1 and message in tables[i].left_out[0]
        assert f"pinchpas: {message}" in err
    assert err.count("row left out") == 2


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["outage", "rate", "pde", "regions"]),
    d_x=_log_uniform(-2.0, 4.0),
    d_y=_log_uniform(-2.0, 3.0),
    h=_log_uniform(-6.0, 1.5),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 10.0), _log_uniform(-6.0, 1.0)),
    gammas=st.lists(st.floats(40.0, 160.0), min_size=2, max_size=2, unique=True),
    gamma_thr_db=st.floats(-10.0, 50.0),
    m=st.integers(1, 200),
)
# The room of test_cli_failed_self_check_costs_one_row, so a sweep that
# drops its table on one failed point fails here whatever the draw.
@example(
    command="pde", d_x=30.0, d_y=10.0, h=1.5e-154, alpha=0.05,
    gammas=[60.0, 70.0], gamma_thr_db=20.0, m=1,
)
def test_cli_validated_configs_write_every_table(
    command, d_x, d_y, h, alpha, gammas, gamma_thr_db, m
):
    # The rooms of test_validated_configs_end_cleanly, through the CLI:
    # every run exits 0 or 2, writes its table, and writes only finite rows.
    lo, hi = sorted(gammas)
    text = (
        f"d_x = {d_x!r}\nd_y = {d_y!r}\nh = {h!r}\nalpha = {alpha!r}\n"
        f"gamma_thr_db = {gamma_thr_db!r}\nsweep_axis = gamma_t_db\n"
        f"axis_values = {lo!r},{hi!r}\nm_values = {m}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = Path(tmp) / "o"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) in (0, 2)
        assert sorted(p.name for p in out.iterdir()) == [f"{command}_m{m}.dat"]
        rows = _data_rows(out / f"{command}_m{m}.dat")
        assert all(math.isfinite(v) for row in rows for v in row)


def test_cli_missing_config_is_usage_error(tmp_path):
    assert main(["outage", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_bad_config_is_usage_error(tmp_path):
    cfg = _write_cfg(tmp_path, "alpha = 0.05\n")  # d_x missing
    assert main(["outage", "--config", cfg]) == 1


def test_cli_config_directory_is_usage_error(tmp_path, capsys):
    assert main(["outage", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path) in err and err.count("\n") == 1


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_cli_out_dir_on_a_file_is_usage_error(tmp_path, capsys, below):
    cfg = _write_cfg(tmp_path, "d_x = 10\nm_values = 1\n")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out = taken / "o" if below else taken
    assert main(["outage", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and err.count("\n") == 1


def test_cli_out_dir_is_checked_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*_):
        raise AssertionError("the sweep ran before --out-dir was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg = _write_cfg(tmp_path, "d_x = 10\nm_values = 1\n")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["simulate", "--config", cfg, "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pinchpas: cannot make output dir") and err.count("\n") == 1


def test_cli_seed_past_the_philox_key_is_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d_x = 10\nm_values = 1\n")
    argv = ["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]
    assert main([*argv, "--seed", str(2**128)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _fresh_run_imports(tmp_path, command, *modules):
    """A run's exit code in a fresh interpreter, then whether it imported each module."""
    cfg = _write_cfg(
        tmp_path, "d_x = 10\nsweep_axis = gamma_t_db\naxis_values = 90,100\nm_values = 1,2\n"
    )
    script = (
        "import sys\n"
        "from pinchpas.cli import main\n"
        f"code = main([{command!r}, '--config', {cfg!r}, '--out-dir', {str(tmp_path / 'o')!r}])\n"
        f"print(code, *(name in sys.modules for name in {modules!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1 - len(modules):]


@pytest.mark.parametrize("command", ["outage", "pde", "simulate"])
def test_cli_run_never_imports_logging(tmp_path, command):
    # Every diagnostic is printed; importing logging adds about 0.4 MB to a run's peak memory.
    assert _fresh_run_imports(tmp_path, command, "logging") == ["0", "False"]


def test_cli_closed_form_run_never_imports_numpy_polynomial(tmp_path):
    # A fresh interpreter: this one imported numpy.polynomial for the oracles.
    imported = _fresh_run_imports(tmp_path, "rate", "numpy.polynomial", "numpy.random")
    assert imported == ["0", "False", "False"]


@pytest.mark.parametrize("command", ["outage", "pde"])
def test_cli_closed_form_run_never_imports_numpy_random(tmp_path, command):
    # Importing numpy.random adds about 5.5 MB to a closed-form run's peak resident memory.
    imported = _fresh_run_imports(tmp_path, command, "numpy.random", "numpy.polynomial")
    assert imported == ["0", "False", "False"]


def test_cli_leaves_the_root_logger_alone(tmp_path):
    # A bare root logger, as in a fresh interpreter, where logging.basicConfig
    # would give it a handler and a level.
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        cfg = _write_cfg(tmp_path, "d_x = 10\nm_values = 1\n")
        assert main(["outage", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert (root.handlers, root.level) == ([], level)
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


@pytest.mark.parametrize(
    "argv, code, named",
    [
        ([], 1, ["the following arguments are required: command"]),
        (["frobnicate"], 1, ["argument command: invalid choice: 'frobnicate'"]),
        (["outage"], 1, ["the following arguments are required: --config"]),
        (["selftest", "--config", "x"], 1, ["--config"]),
        (["outage", "--config", "x", "--bogus"], 1, ["unrecognized arguments: --bogus"]),
        (["--version"], 0, [f"pinchpas {__version__}"]),
        (["--help"], 0, ["outage", "rate", "pde", "regions", "simulate", "selftest", "--config"]),
    ],
    ids=[
        "empty", "unknown_command", "no_config", "selftest_option", "bad_flag", "version", "help"
    ],
)
def test_cli_usage_contract(capsys, argv, code, named):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        # A usage line first, then one error line that names the fault.
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: pinchpas")
        assert lines[-1].startswith("pinchpas") and ": error: " in lines[-1]
        assert all(text in lines[-1] for text in named)
        assert captured.out == ""
    else:
        assert captured.err == ""
        assert all(text in captured.out for text in named)


def test_cli_numerical_flags_exit_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d_x = 20\nalpha = 80\nm_values = 1\n")
    code = main(["outage", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "numerical flags" in capsys.readouterr().err


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def _off_leggauss(right):
    def wrong(n):
        nodes, weights = right(n)
        return nodes, weights * (1.0 + 1e-12)

    return wrong


@pytest.mark.parametrize(
    "name, spoil, line",
    [
        (
            "ti2",
            lambda right: lambda z: right(z) * (1.0 + 1e-9),
            "ti2 matches quadrature across its seam",
        ),
        # Off by 1e-5 once the circle reaches past the sub-rectangle's depth.
        (
            "p_l",
            lambda right: lambda w, a, d: right(w, a, d) + 1e-5 * (a > w * w),
            "outage regime continuity",
        ),
        (
            "i_i",
            lambda right: lambda *args: right(*args) * (1.0 + 1e-8),
            "rate kernels match quadrature",
        ),
        ("leggauss_cached", _off_leggauss, "Gauss-Legendre rules integrate x^(2n-2) exactly"),
    ],
    ids=["ti2", "p_l", "i_i", "leggauss_cached"],
)
def test_cli_selftest_reports_a_wrong_kernel(monkeypatch, capsys, name, spoil, line):
    monkeypatch.setattr(cli, name, spoil(getattr(cli, name)))
    assert main(["selftest"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert any(text.startswith(f"FAIL {line}: ") for text in out), out
    assert out[-1] == "selftest: FAILURES detected"
