"""Sweep orchestration, table emission, and the command-line surface."""

import logging
import math
import tempfile
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
    header_config_text,
    load_config,
    parse_config_text,
    reload_run,
    run_sweep,
)
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
    assert any("seed = 5" in line for line in tables[0].header)
    assert any("n_samples = 50000" in line for line in tables[0].header)


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


def test_emit_table_warns_on_empty(tmp_path, caplog):
    table = OutputTable(name="empty", header=("# d_x = 1.0",), rows=())
    with caplog.at_level(logging.WARNING):
        emit_table(table, tmp_path / "empty.dat")
    assert any("no rows" in rec.message for rec in caplog.records)


def test_header_round_trip(tmp_path):
    text = (
        "d_x = 17\nd_y = 9\nalpha = 0.033\ngamma_t_db = 97\n"
        "metric = rate\nm_values = 2, 5\n"
    )
    system, spec = parse_config_text(text)
    tables = run_sweep(spec)
    path = tmp_path / f"{tables[0].name}.dat"
    emit_table(tables[0], path)
    system2, spec2 = reload_run(path)
    assert system2 == system
    assert spec2 == spec
    # and the recovered text re-parses standalone
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
    _, spec = reload_run(out / "pde.dat")
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


def test_cli_failed_self_check_costs_one_row(tmp_path, capsys, caplog):
    # At alpha = 5 the discrete rate rounds to 0 and pde fails its
    # self-check; the alpha = 0.05 row must still be written.
    cfg = _write_cfg(
        tmp_path,
        "d_x = 200\ngamma_t_db = 40\nsweep_axis = alpha\naxis_values = 0.05,5\n"
        "m_values = 1\n",
    )
    out = tmp_path / "o"
    assert main(["pde", "--config", cfg, "--out-dir", str(out)]) == 2
    assert _data_rows(out / "pde_m1.dat") == [[0.05, 0.00382089366214]]
    assert "alpha = 5.0, m = 1: row left out: discrete rate rounds to 0" in caplog.text
    assert "numerical flags raised: numerical_diagnostic" in capsys.readouterr().err


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
    command="pde", d_x=200.0, d_y=10.0, h=3.0, alpha=5.0,
    gammas=[40.0, 50.0], gamma_thr_db=20.0, m=1,
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


def test_cli_bad_flag_is_usage_error():
    assert main(["outage", "--config", "x", "--bogus"]) == 1
    assert main(["frobnicate"]) == 1


def test_cli_numerical_flags_exit_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d_x = 20\nalpha = 80\nm_values = 1\n")
    code = main(["outage", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "numerical flags" in capsys.readouterr().err


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert "pinchpas" in capsys.readouterr().out


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
