"""Scenario dataclasses, the SNR scale big_c, and antenna selection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchpas import (
    PaLayout,
    SweepSpec,
    SystemConfig,
    UserPosition,
    best_snr,
    db_to_linear,
    make_layout,
    select_pa,
    snr_matrix,
)
from pinchpas.sweep import _echo_lines
from pinchpas.system import SPEED_OF_LIGHT, _unscaled, _window_gain


def test_db_round_trip():
    for v in (1e-6, 0.5, 1.0, 42.0, 1e9):
        v_db = 10.0 * math.log10(v)
        assert abs(10.0 * math.log10(db_to_linear(v_db)) - v_db) < 1e-12
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)


def test_big_c_matches_hand_computation():
    cfg = SystemConfig(d_x=10.0, f_c=28e9, n_eff=1.4, gamma_t_db=100.0)
    lam = SPEED_OF_LIGHT / 28e9
    eta = lam * lam / (16.0 * math.pi * math.pi)
    assert cfg.big_c == pytest.approx(eta * 1e10, rel=1e-14)


def test_big_c_is_not_a_field():
    # big_c is kept, not declared: equality, the header echo and the key
    # of a transmit-SNR curve read the fields alone.
    low = SystemConfig(d_x=10.0, gamma_t_db=90.0)
    high = SystemConfig(d_x=10.0, gamma_t_db=110.0)
    assert low.big_c < high.big_c
    assert _unscaled(low) == _unscaled(high)
    assert "big_c" not in {f.name for f in dataclasses.fields(SystemConfig)}
    spec = SweepSpec(metric="outage", sweep_axis="gamma_t_db", axis_values=(90.0,),
                     fixed_params=low, m_values=(1,))
    assert not any("big_c" in line for line in _echo_lines(low, spec))
    assert "big_c" not in repr(low)
    assert dataclasses.replace(low, gamma_t_db=110.0) == high
    assert dataclasses.replace(low, gamma_t_db=110.0).big_c == high.big_c


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(d_x=0.0)
    with pytest.raises(ValueError):
        SystemConfig(d_x=10.0, d_y=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(d_x=10.0, alpha=-0.01)
    with pytest.raises(ValueError):
        SystemConfig(d_x=10.0, n_eff=0.9)
    with pytest.raises(ValueError):
        SystemConfig(d_x=10.0, h=-0.1)
    # h = 0 is allowed at construction; only the rate closed form needs h > 0
    SystemConfig(d_x=10.0, h=0.0)
    # A length whose square overflows is rejected by name; 1e154 squares finitely.
    for name in ("d_x", "d_y", "h"):
        with pytest.raises(ValueError, match=rf"{name}\^2 must be finite"):
            SystemConfig(**{"d_x": 10.0, name: 1e200})
        SystemConfig(**{"d_x": 10.0, name: 1e154})
    # So must the largest squared distance from an antenna to a user.
    with pytest.raises(ValueError, match=r"d_x\^2 \+ \(d_y/2\)\^2 \+ h\^2 must be finite"):
        SystemConfig(d_x=1e154, d_y=1e154, h=1e154)
    # And big_c plus it, which bounds every sum the rate kernels form.
    with pytest.raises(ValueError, match=r"^big_c \+ d_x\^2 \+ \(d_y/2\)\^2 \+ h\^2 must be"):
        SystemConfig(d_x=1e-3, d_y=1e-3, h=1.34078e154, gamma_t_db=3000.0, f_c=1e6)
    SystemConfig(d_x=1e-3, d_y=1e-3, h=1.34078e154, gamma_t_db=100.0, f_c=1e6)
    with pytest.raises(ValueError, match="noise_dbm must be finite"):
        SystemConfig(d_x=10.0, noise_dbm=math.nan)
    with pytest.raises(ValueError, match="gamma_t_db must lie in"):
        SystemConfig(d_x=10.0, gamma_t_db=3083.0)
    # The edges of the dB range still give normal, finite big_c and threshold.
    edge = SystemConfig(d_x=10.0, gamma_t_db=3082.0, gamma_thr_db=-3076.0)
    assert math.isfinite(edge.big_c)
    assert db_to_linear(edge.gamma_thr_db) >= 2.2250738585072014e-308


def test_layout_geometry():
    cfg = SystemConfig(d_x=12.0)
    lay = make_layout(cfg, 4)
    assert lay.m == 4
    assert lay.delta == pytest.approx(3.0)
    assert lay.x_k == pytest.approx((1.5, 4.5, 7.5, 10.5))
    # grid is symmetric inside the room
    assert lay.x_k[0] == pytest.approx(cfg.d_x - lay.x_k[-1])

    with pytest.raises(ValueError):
        make_layout(cfg, 0)


@pytest.mark.parametrize("d_x", [0.01, 30.0, 1e4])
@pytest.mark.parametrize("m", [1, 2, 3, 100, 12345])
def test_layout_grid_is_its_formula(m, d_x):
    # Each abscissa is the one rounding of (2k - 1) * (delta / 2), as the
    # Python formula gives it.
    lay = make_layout(SystemConfig(d_x=d_x), m)
    half = lay.delta / 2.0
    assert lay.x_k.tolist() == [(2 * k - 1) * half for k in range(1, m + 1)]


def test_layout_is_its_count_and_spacing():
    lay = make_layout(SystemConfig(d_x=12.0), 4)
    with pytest.raises(ValueError):
        lay.x_k[0] = 0.0
    twin = PaLayout(m=4, delta=3.0)
    twin.x_k  # a computed grid is not part of the layout's identity
    assert lay == twin and hash(lay) == hash(twin)
    assert lay != PaLayout(m=4, delta=3.5) and lay != PaLayout(m=5, delta=3.0)
    with pytest.raises(ValueError, match="m must"):
        PaLayout(m=0, delta=1.0)
    with pytest.raises(ValueError, match="delta must"):
        PaLayout(m=2, delta=0.0)


def _hand_snr(cfg, x_k, x, y):
    """big_c e^(-alpha x_k) / ((x - x_k)^2 + y^2 + h^2), written out."""
    big_c = cfg.big_c
    return big_c * math.exp(-cfg.alpha * x_k) / ((x - x_k) ** 2 + y * y + cfg.h * cfg.h)


def test_snr_formula_direct():
    cfg = SystemConfig(d_x=10.0, alpha=0.08, gamma_t_db=95.0)
    lay = make_layout(cfg, 2)
    snr = snr_matrix(cfg, lay, np.array([4.0]), np.array([-2.0]))
    assert snr.shape == (2, 1)
    for k in (1, 2):
        expected = _hand_snr(cfg, lay.x_k[k - 1], 4.0, -2.0)
        assert snr[k - 1, 0] == pytest.approx(expected, rel=1e-15)


def test_select_pa_prefers_smaller_index_on_tie():
    # With alpha = 0 a user at the exact midpoint sees identical SNR from
    # both neighbors; the smaller index must win.
    cfg = SystemConfig(d_x=10.0, alpha=0.0)
    lay = make_layout(cfg, 2)
    mid = 0.5 * (lay.x_k[0] + lay.x_k[1])
    assert select_pa(cfg, lay, UserPosition(x_m=mid, y_m=1.0)) == 1


def test_select_pa_matches_max_over_snr():
    rng = np.random.default_rng(7)
    cfg = SystemConfig(d_x=25.0, alpha=0.07)
    lay = make_layout(cfg, 6)
    for _ in range(200):
        user = UserPosition(
            x_m=float(rng.uniform(0.0, cfg.d_x)),
            y_m=float(rng.uniform(-cfg.d_y / 2.0, cfg.d_y / 2.0)),
        )
        snrs = [_hand_snr(cfg, x_k, user.x_m, user.y_m) for x_k in lay.x_k]
        assert select_pa(cfg, lay, user) == 1 + int(np.argmax(snrs))


def test_attenuation_shifts_selection_toward_feed():
    # Place the user exactly between two antennas: with attenuation the
    # earlier antenna (smaller x, less feed loss) must be selected.
    cfg = SystemConfig(d_x=10.0, alpha=0.1)
    lay = make_layout(cfg, 2)
    mid = 0.5 * (lay.x_k[0] + lay.x_k[1])
    assert select_pa(cfg, lay, UserPosition(x_m=mid, y_m=0.0)) == 1


# alpha = 0.4 with h = 3 puts alpha * r >= 1 for every user: no feed-side
# stationary point, so antenna 1 wins the whole feed side.
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2, 0.4])
@pytest.mark.parametrize("d_x", [3.0, 30.0, 300.0])
@pytest.mark.parametrize("m", [1, 2, 4, 5, 12, 13, 100, 1000])
def test_best_snr_equals_full_max_on_grid(alpha, d_x, m):
    cfg = SystemConfig(d_x=d_x, alpha=alpha)
    lay = make_layout(cfg, m)
    big_c = cfg.big_c
    x_k = np.asarray(lay.x_k)
    xs = np.concatenate(
        (
            x_k,
            0.5 * (x_k[:-1] + x_k[1:]),
            [0.0, d_x],
            np.random.default_rng(m).uniform(0.0, d_x, 500),
        )
    )
    for y_m in (0.0, 1.3, cfg.d_y / 2.0, -cfg.d_y / 2.0):
        y = np.full_like(xs, y_m)
        full = snr_matrix(cfg, lay, xs, y).max(axis=0)
        assert np.array_equal(big_c * _window_gain(cfg, lay, xs, y), full)
        assert np.array_equal(best_snr(cfg, lay, xs, y), full)


@pytest.mark.parametrize("m", [10, 100])
def test_best_snr_spans_several_user_blocks(m):
    # 40,000 users: two whole blocks of 16,384 and a partial one.
    cfg = SystemConfig(d_x=30.0)
    lay = make_layout(cfg, m)
    rng = np.random.default_rng(40)
    x = rng.uniform(0.0, cfg.d_x, 40_000)
    y = rng.uniform(-cfg.d_y / 2.0, cfg.d_y / 2.0, 40_000)
    full = snr_matrix(cfg, lay, x, y).max(axis=0)
    assert np.array_equal(best_snr(cfg, lay, x, y), full)


@settings(max_examples=200, deadline=None)
@given(
    d_x=st.floats(1.0, 1e4),
    d_y=st.floats(0.1, 100.0),
    h=st.floats(0.0, 30.0),
    alpha=st.floats(0.0, 10.0),
    f_c=st.floats(1e9, 3e11),
    gamma_t_db=st.floats(0.0, 200.0),
    m=st.integers(1, 1000),
    x_frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    y_frac=st.floats(-0.5, 0.5),
    on_antenna=st.lists(st.integers(0, 999), max_size=8),
)
def test_best_snr_equals_full_max_property(
    d_x, d_y, h, alpha, f_c, gamma_t_db, m, x_frac, y_frac, on_antenna
):
    """Rooms of 1 m to 10 km, up to 1000 antennas, any attenuation.

    Users sit anywhere, including on antennas. NaN appears only as 0/0
    (an antenna attenuated to zero right at a user with y = h = 0), and
    then in both.
    """
    cfg = SystemConfig(
        d_x=d_x, d_y=d_y, h=h, alpha=alpha, f_c=f_c, gamma_t_db=gamma_t_db
    )
    lay = make_layout(cfg, m)
    x = np.concatenate(
        (
            np.asarray(x_frac) * d_x,
            np.asarray(lay.x_k)[[i % m for i in on_antenna]],
        )
    )
    y = np.full_like(x, y_frac * d_y)
    y[len(x_frac):] = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        full = snr_matrix(cfg, lay, x, y).max(axis=0)
        window = cfg.big_c * _window_gain(cfg, lay, x, y)
        best = best_snr(cfg, lay, x, y)
    assert np.array_equal(window, full, equal_nan=True)
    assert np.array_equal(best, full, equal_nan=True)
