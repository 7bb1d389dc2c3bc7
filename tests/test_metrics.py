"""Closed-form metrics against quadrature oracles and brute force."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pinchpas import (
    MetricResult,
    NumericalDiagnosticError,
    SystemConfig,
    UserPosition,
    c_l,
    continuous_optimal_position,
    continuous_rate,
    ergodic_rate,
    i_i,
    i_j,
    make_layout,
    optimize_partition,
    outage_probability,
    p_l,
    pde,
    simulate_outage,
)
from pinchpas import SimulationSpec, metrics
from pinchpas.system import _unscaled

import oracle_utils as oracle


# ---------------------------------------------------------------- outage --

def _regime_triples(rng, count):
    """Random (delta, d_y, a) triples labeled with their regime index."""
    triples = []
    per = count // 6 + 1
    for regime in range(6):
        for _ in range(per):
            delta = float(rng.uniform(0.3, 8.0))
            d_y = float(rng.uniform(0.6, 14.0))
            w = d_y * d_y / 4.0
            d = delta * delta
            lo_hi = {
                0: (-3.0, 0.0),
                1: (0.0, min(w, d)),
                2: (d, w),  # empty unless d < w
                3: (w, d),  # empty unless w < d
                4: (max(w, d), w + d),
                5: (w + d, w + d + 30.0),
            }[regime]
            if lo_hi[1] <= lo_hi[0]:
                continue
            a = float(rng.uniform(*lo_hi))
            triples.append((regime, delta, a, d_y))
    return triples[:count]


def test_outage_kernel_matches_indicator_quadrature():
    rng = np.random.default_rng(30)
    triples = _regime_triples(rng, 240)
    seen = set()
    for regime, delta, a, d_y in triples:
        seen.add(regime)
        ref = oracle.outage_indicator_quad(delta, a, d_y)
        assert abs(p_l(delta, a, d_y) - ref) < 1e-9, (regime, delta, a, d_y)
    assert seen == set(range(6))


def test_outage_kernel_limits():
    assert p_l(2.0, -1.0, 6.0) == 1.0
    assert p_l(2.0, 0.0, 6.0) == 1.0
    assert p_l(2.0, 1e9, 6.0) == 0.0
    # interior values stay inside [0, 1]
    rng = np.random.default_rng(31)
    for _ in range(200):
        v = p_l(float(rng.uniform(0.1, 5.0)), float(rng.uniform(-1.0, 40.0)),
                float(rng.uniform(0.5, 12.0)))
        assert 0.0 <= v <= 1.0


def test_outage_kernel_continuity_across_regime_edges():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 120:
        delta = float(rng.uniform(0.4, 6.0))
        d_y = float(rng.uniform(0.8, 12.0))
        w = d_y * d_y / 4.0
        d = delta * delta
        for edge in (min(w, d), max(w, d), w + d):
            lo = p_l(delta, edge * (1.0 - 1e-12), d_y)
            hi = p_l(delta, edge * (1.0 + 1e-12), d_y)
            assert abs(hi - lo) < 1e-9
            checked += 1


def test_outage_kernel_monotone_in_threshold_radius():
    # Larger coverage disc means less outage.
    a_grid = np.linspace(0.01, 30.0, 300)
    vals = [p_l(3.0, float(a), 8.0) for a in a_grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_outage_kernel_validation():
    with pytest.raises(ValueError):
        p_l(0.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        p_l(1.0, 1.0, -5.0)


def test_outage_kernel_array_call_matches_scalar_reference():
    # One call across all six regimes and the ties between them; numpy's
    # arcsin may differ from math.asin by an ulp.
    rng = np.random.default_rng(38)
    triples = [t[1:] for t in _regime_triples(rng, 240)]
    for _, delta, _, d_y in _regime_triples(rng, 60):
        w, d = d_y * d_y / 4.0, delta * delta
        triples += [(delta, a, d_y) for a in (0.0, min(w, d), w, d, w + d)]
    delta, a, d_y = (np.array(column) for column in zip(*triples))
    values = p_l(delta, a, d_y)
    assert values.shape == a.shape
    for value, args in zip(values.tolist(), triples):
        assert abs(value - oracle.p_l_scalar(*args)) <= 1e-15, args
    assert isinstance(p_l(2.0, 3.0, 6.0), float)
    with pytest.raises(ValueError, match="delta_width must be > 0"):
        p_l(np.array([1.0, 0.0]), 1.0, 5.0)


def test_outage_probability_matches_composed_oracle():
    for alpha, m in ((0.05, 3), (0.0, 2), (0.1, 5)):
        cfg = SystemConfig(d_x=15.0, alpha=alpha, gamma_t_db=93.0)
        lay = make_layout(cfg, m)
        part = optimize_partition(cfg, lay)
        res = outage_probability(cfg, lay, part)
        ref = oracle.outage_prob_quad(cfg, lay, part)
        assert res.value == pytest.approx(ref, abs=1e-9)
        assert res.kind == "outage"
        assert res.flags == ()


def test_outage_probability_monotone_in_transmit_snr():
    cfg0 = SystemConfig(d_x=12.0)
    lay = make_layout(cfg0, 3)
    vals = []
    import dataclasses
    for g in np.linspace(88.0, 104.0, 9):
        cfg = dataclasses.replace(cfg0, gamma_t_db=float(g))
        part = optimize_partition(cfg, lay)
        vals.append(outage_probability(cfg, lay, part).value)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ rate kernel --

def test_ii_matches_defining_integral():
    rng = np.random.default_rng(33)
    for _ in range(120):
        delta = float(rng.uniform(0.2, 8.0))
        d_y = float(rng.uniform(0.8, 14.0))
        x = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e10))))
        ref = oracle.ii_defining_quad(x, delta, d_y)
        assert i_i(x, delta, d_y) == pytest.approx(ref, rel=1e-10), (x, delta, d_y)


def test_ij_matches_defining_integral():
    rng = np.random.default_rng(34)
    for _ in range(120):
        delta = float(rng.uniform(0.2, 8.0))
        d_y = float(rng.uniform(0.8, 14.0))
        x = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e10))))
        ref = oracle.ij_defining_quad(x, delta, d_y)
        assert i_j(x, delta, d_y) == pytest.approx(ref, rel=1e-9), (x, delta, d_y)


def test_ij_stays_accurate_when_x_dwarfs_delta():
    # The raw special-function form of the arctangent kernel loses about
    # x * eps to cancellation; the implementation must not. From the
    # branch edge x = 1e4 delta^2 on, where its series converges slowest.
    rng = np.random.default_rng(35)
    for _ in range(60):
        delta = float(rng.uniform(0.2, 4.0))
        d_y = float(rng.uniform(1.0, 12.0))
        ratio = float(np.exp(rng.uniform(math.log(1e4), math.log(1e12))))
        x = ratio * delta * delta
        ref = oracle.ij_defining_quad(x, delta, d_y)
        assert i_j(x, delta, d_y) == pytest.approx(ref, rel=1e-9), (ratio, delta, d_y)


def test_ij_continuous_across_evaluation_switch():
    # The implementation changes evaluation strategy at x = 1e4 delta^2.
    delta, d_y = 1.7, 9.0
    edge = 1e4 * delta * delta
    lo = i_j(edge * (1.0 - 1e-10), delta, d_y)
    hi = i_j(edge * (1.0 + 1e-10), delta, d_y)
    assert abs(hi - lo) < 1e-9 * abs(hi)


# x / delta^2 on both sides of the switch at 1e4, with i_j's tolerance
# there. Below it the slope's closed form in ti2 cancels most where d_y is
# small against sqrt(x): 4.7e-12 at delta = 8, d_y = 0.5. From the switch
# on the slope's series holds i_j to rounding, up to x = 6.4e307, where
# 10 x overflows.
_IJ_RATIOS = (
    (1e3, 1e-11),
    (5e3, 1e-11),
    (1e4 * (1.0 - 1e-12), 1e-11),
    (1e4 * (1.0 + 1e-12), 1e-14),
    (3e4, 1e-14),
    *((10.0**e, 1e-14) for e in range(5, 15)),
    (1e306, 1e-14),
)


@pytest.mark.parametrize("delta", [0.01, 0.3, 1.7, 8.0])
@pytest.mark.parametrize("d_y", [0.5, 9.0, 100.0])
def test_ij_matches_mpmath_on_both_sides_of_the_switch(delta, d_y):
    # i_j is one form in every regime: its closed edge and core terms plus
    # x times the kernels' slope, which takes its series from x = 1e4 delta^2.
    for ratio, rel in _IJ_RATIOS:
        x = ratio * delta * delta
        ref = oracle.ij_mpmath(x, delta, d_y)
        assert i_j(x, delta, d_y) == pytest.approx(ref, rel=rel, abs=0.0), ratio


def test_rate_kernel_matches_2d_quadrature():
    cfg = SystemConfig(d_x=10.0)
    rng = np.random.default_rng(36)
    for _ in range(25):
        delta = float(rng.uniform(0.3, 6.0))
        c0 = float(np.exp(rng.uniform(math.log(1.0), math.log(1e7))))
        ref = oracle.rate_kernel_quad(delta, c0, cfg.d_y, cfg.h)
        assert c_l(delta, c0, cfg) == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("gamma_t_db", [90.0, 100.0, 110.0])
def test_rate_kernel_matches_mpmath_in_the_benchmark_room(gamma_t_db):
    # The d_x = 30 room at the first and last of ten antennas, so c_0k / h^2
    # runs from about 19 to 7,500; widths span the partitions' 0.15 to 15 m.
    cfg = SystemConfig(d_x=30.0, gamma_t_db=gamma_t_db)
    positions = np.asarray(make_layout(cfg, 10).x_k)
    scales, _ = metrics._c0k_scales(cfg.alpha, cfg.big_c, positions)
    for c0 in (float(scales[0]), float(scales[-1])):
        for delta in (0.15, 0.5, 1.5, 5.0, 15.0):
            ref = oracle.rate_kernel_mpmath(delta, c0, cfg.d_y, cfg.h)
            assert c_l(delta, c0, cfg) == pytest.approx(ref, rel=1e-13, abs=0.0), (
                f"delta={delta} c0={c0}"
            )


@pytest.mark.parametrize("c0", [1e-14, 1e-12, 1e-10, 1e-8])
def test_rate_kernel_small_c0k_matches_log1p_quadrature(c0):
    # The difference of kernels at c_0k + h^2 and h^2 cancels here, to
    # relative errors of 2.6, 0.31, 6.4e-4 and 1.0e-5 at these points.
    cfg = SystemConfig(d_x=100.0, d_y=10.0, h=1.0)
    ref = oracle.rate_kernel_scaled_quad(100.0, c0, cfg.d_y, cfg.h)
    assert c_l(100.0, c0, cfg) == pytest.approx(ref, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("delta", [100.0, 3.0, 1e-3, 3.4e-7])
def test_rate_kernel_continuous_across_slope_switch(delta):
    # c_l switches from the kernel difference to the slope form at
    # c_0k = 1e-4 h^2; both sides must agree with each other and the oracle.
    cfg = SystemConfig(d_x=100.0, d_y=10.0, h=2.0)
    edge = 1e-4 * cfg.h * cfg.h
    below = c_l(delta, edge * (1.0 - 1e-12), cfg)
    above = c_l(delta, edge * (1.0 + 1e-12), cfg)
    assert abs(above - below) < 1e-8 * above
    ref = oracle.rate_kernel_scaled_quad(delta, edge, cfg.d_y, cfg.h)
    assert below == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_rate_kernel_requires_height():
    flat = SystemConfig(d_x=10.0, h=0.0)
    with pytest.raises(ValueError):
        c_l(1.0, 100.0, flat)


def test_ergodic_rate_matches_composed_oracle():
    cfg = SystemConfig(d_x=16.0, alpha=0.06, gamma_t_db=97.0)
    lay = make_layout(cfg, 4)
    part = optimize_partition(cfg, lay)
    res = ergodic_rate(cfg, lay, part)
    ref = oracle.discrete_rate_quad(cfg, lay, part)
    assert res.value == pytest.approx(ref, rel=1e-9)
    assert res.kind == "ergodic_rate"


def test_rate_kernels_broadcast_and_match_scalar_calls():
    # Arrays give arrays of the broadcast shape, each element equal to the
    # kernel's scalar call; floats give floats.
    cfg = SystemConfig(d_x=30.0, alpha=0.2)
    xs = np.array([[9.0], [9.0 + 7e3]])  # h^2, and c_0k + h^2 at 100 dB
    widths = np.array([3.4e-7, 0.3, 3.0, 15.0])  # both i_j branches
    for kernel in (i_i, i_j, metrics._kernel_slope):
        values = kernel(xs, widths, cfg.d_y)
        assert values.shape == (2, 4)
        for (i, j), value in np.ndenumerate(values):
            single = kernel(float(xs[i, 0]), float(widths[j]), cfg.d_y)
            assert isinstance(single, float) and value == single
    scales = np.array([[1e-30], [1e-5], [1e3]])  # exact 0, slope, difference
    rates = c_l(widths, scales, cfg)
    assert rates.shape == (3, 4) and not rates[0].any()
    for (i, j), value in np.ndenumerate(rates):
        assert value == c_l(float(widths[j]), float(scales[i, 0]), cfg)


def test_rate_kernels_name_the_bad_array_argument():
    cfg = SystemConfig(d_x=10.0)
    with pytest.raises(ValueError, match="delta_width must be > 0"):
        c_l(np.array([1.0, 0.0]), 100.0, cfg)
    with pytest.raises(ValueError, match="c_0k must be > 0"):
        c_l(1.0, np.array([100.0, -1.0]), cfg)
    with pytest.raises(ValueError, match="x must be > 0"):
        i_j(np.array([1.0, np.nan]), 1.0, 4.0)
    with pytest.raises(ValueError, match="x must be > 0"):
        i_i(np.array([-1.0]), 1.0, 4.0)


def _kernel_cases(points):
    """The c_l forms and i_j branches that a table's sub-rectangles reach."""
    cases = set()
    for cfg, lay, part in points:
        h_sq = cfg.h * cfg.h
        positions = np.asarray(lay.x_k)
        scales, _ = metrics._c0k_scales(cfg.alpha, cfg.big_c, positions)
        scales = np.repeat(scales, 2)
        widths = np.column_stack((part.left_limits, part.right_limits)).ravel()
        lost = scales + h_sq == h_sq
        if lost.any():
            cases.add("exact 0")
        if (~lost & (scales <= 1e-4 * h_sq)).any():
            cases.add("slope")
        difference = scales > 1e-4 * h_sq
        for x in (scales + h_sq, np.full(scales.shape, h_sq)):
            series = (x > 1e4 * widths * widths)[difference]
            if series.any():
                cases.add("i_j series")
            if not series.all():
                cases.add("i_j closed")
    return cases


def _rate_tables():
    """The point lists of rate tables along m (1..100) and gamma_t (40..120 dB)."""
    tables = []
    for alpha in (0.05, 0.2):
        cfg = SystemConfig(d_x=30.0, alpha=alpha)
        layouts = [make_layout(cfg, m) for m in range(1, 101)]
        tables.append([(cfg, lay, optimize_partition(cfg, lay)) for lay in layouts])
    # alpha = 1.5 takes the far antennas' c_0k below eps * h^2 at low gamma_t.
    for alpha in (0.05, 0.2, 1.5):
        cfg = SystemConfig(d_x=30.0, alpha=alpha)
        for m in (1, 10, 100):
            lay = make_layout(cfg, m)
            part = optimize_partition(cfg, lay)
            tables.append(
                [(replace(cfg, gamma_t_db=float(g)), lay, part)
                 for g in np.linspace(40.0, 120.0, 17)]
            )
    return tables


def test_batched_rates_match_pointwise_rates():
    reached = set()
    for table in _rate_tables():
        reached |= _kernel_cases(table)
        batched = metrics._ergodic_rates(table)
        assert len(batched) == len(table)
        for result, point in zip(batched, table):
            single = ergodic_rate(*point)
            assert result.value == single.value
            assert (result.kind, result.flags) == (single.kind, single.flags)
    assert reached == {"exact 0", "slope", "i_j series", "i_j closed"}


def _clamped_room_points():
    # m = 2 in a 200 m room puts the antennas at 50 and 150 m, so alpha * x_k
    # passes the clamp's 700 at alpha = 6 (the far antenna) and 20 (both).
    points = []
    for alpha in (0.05, 4.0, 6.0, 20.0, 0.1):
        cfg = SystemConfig(d_x=200.0, alpha=alpha)
        lay = make_layout(cfg, 2)
        points.append((cfg, lay, optimize_partition(cfg, lay)))
    return points


def test_batched_rates_flag_only_the_clamped_points():
    points = _clamped_room_points()
    results = metrics._ergodic_rates(points)
    flag = ("c0k_underflow_clamp",)
    assert [r.flags for r in results] == [(), (), flag, flag, ()]
    assert [r.value for r in results] == [ergodic_rate(*p).value for p in points]
    assert results[0].value > 0.0 and results[4].value > 0.0


def _partitioned(points):
    pairs = [(config, make_layout(config, m)) for config, m in points]
    return [pair + (optimize_partition(*pair),) for pair in pairs]


@pytest.mark.parametrize("block", [None, 2, 10**6], ids=["default", "2", "1e6"])
def test_batched_rates_equal_the_per_point_assembly(monkeypatch, block):
    # Runs of whole points, of a single point each, and one run for all:
    # every value and flag is the one-point-at-a-time assembly's, bit for bit.
    if block is not None:
        monkeypatch.setattr(metrics, "_RATE_BLOCK", block)
    cases = {f"mixed_batch({seed})": oracle.mixed_batch(seed) for seed in (0, 1)}
    for alpha in (0.05, 0.2):
        cfg = SystemConfig(d_x=30.0, alpha=alpha)
        cases[f"m = 1..100, alpha {alpha}"] = [(cfg, m) for m in range(1, 101)]
    cases = {name: _partitioned(points) for name, points in cases.items()}
    cases["clamped 200 m room"] = _clamped_room_points()
    for name, points in cases.items():
        results = metrics._ergodic_rates(points)
        assert [(r.value, r.flags) for r in results] == oracle.per_point_rates(
            points
        ), name


@pytest.mark.parametrize("block", [2, 2048, 10**6])
def test_batched_outages_equal_pointwise_outages(monkeypatch, block):
    # Runs of a single point each, of whole points, and one run for all:
    # every value and flag is the one-point outage's, bit for bit.
    monkeypatch.setattr(metrics, "_RATE_BLOCK", block)
    room = SystemConfig(d_x=30.0)
    cases = {f"mixed_batch({seed})": oracle.mixed_batch(seed) for seed in (0, 1)}
    cases["m = 1..100"] = [(room, m) for m in range(1, 101)]
    cases = {name: _partitioned(points) for name, points in cases.items()}
    cases["clamped 200 m room"] = _clamped_room_points()
    for name, points in cases.items():
        results = metrics._outages(points)
        assert results == [outage_probability(*point) for point in points], name


def test_point_blocks_bound_the_sub_rectangles(monkeypatch):
    # A run's points have at most the cap's sub-rectangles (2m each) in
    # all, unless one point has more alone; the points keep their order.
    monkeypatch.setattr(metrics, "_RATE_BLOCK", 40)
    cfg = SystemConfig(d_x=30.0)
    points = [(cfg, make_layout(cfg, m), None) for m in (1, 1, 1, 5, 30, 2, 2, 9, 1)]
    runs = list(metrics._point_blocks(points))
    assert [p for run in runs for p in run] == points
    assert [[p[1].m for p in run] for run in runs] == [[1, 1, 1, 5], [30], [2, 2, 9, 1]]
    for run in runs:
        assert len(run) == 1 or sum(2 * p[1].m for p in run) <= 40


# ------------------------------------------------- continuous benchmark --

def test_optimal_position_matches_brute_force():
    rng = np.random.default_rng(37)
    for alpha in (0.01, 0.05, 0.1):
        cfg = SystemConfig(d_x=25.0, alpha=alpha)
        for _ in range(60):
            user = UserPosition(
                x_m=float(rng.uniform(0.0, cfg.d_x)),
                y_m=float(rng.uniform(-cfg.d_y / 2.0, cfg.d_y / 2.0)),
            )
            mine = continuous_optimal_position(cfg, user)
            ref = oracle.brute_force_best_x(cfg, user)
            assert abs(mine - ref) < 1e-6, (alpha, user)


def test_optimal_position_zero_attenuation_clamps_to_user():
    cfg = SystemConfig(d_x=10.0, alpha=0.0)
    assert continuous_optimal_position(cfg, UserPosition(4.2, 1.0)) == 4.2
    assert continuous_optimal_position(cfg, UserPosition(-3.0, 1.0)) == 0.0
    assert continuous_optimal_position(cfg, UserPosition(12.0, 1.0)) == 10.0


def test_optimal_position_sits_feedward_of_user():
    rng = np.random.default_rng(38)
    cfg = SystemConfig(d_x=30.0, alpha=0.08)
    for _ in range(200):
        user = UserPosition(
            x_m=float(rng.uniform(1e-3, cfg.d_x)),
            y_m=float(rng.uniform(-cfg.d_y / 2.0, cfg.d_y / 2.0)),
        )
        assert continuous_optimal_position(cfg, user) < user.x_m


def test_continuous_rate_matches_simulation():
    from pinchpas import SimulationSpec, simulate_continuous_rate

    cfg = SystemConfig(d_x=14.0, alpha=0.05, gamma_t_db=95.0)
    quad = continuous_rate(cfg)
    sim = simulate_continuous_rate(cfg, SimulationSpec(n_samples=400_000, seed=9))
    assert abs(quad.value - sim.mean) < 4.0 * sim.std_error
    assert quad.kind == "continuous_rate"


@pytest.mark.parametrize(
    "params",
    [
        {"d_x": 10.0, "alpha": 0.0},  # no feed-side piece
        {"d_x": 30.0, "alpha": 0.05},  # interior feed switch in every row
        {"d_x": 30.0, "alpha": 0.4},  # feed end serves every row
        {"d_x": 3.0, "h": 0.5},
        {"d_x": 500.0},  # the feed end takes over again past x_c in every row
    ],
)
def test_continuous_rate_matches_nested_quadrature(params):
    cfg = SystemConfig(**params)
    ref = oracle.continuous_rate_quad(cfg)
    assert continuous_rate(cfg).value == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("gamma_t_db", [100.0, 20.0])
@pytest.mark.parametrize("d_x", [10.0, 30.0, 500.0])
@pytest.mark.parametrize("alpha", [0.0, 1e-8, 1e-6, 0.05, 0.2, 0.25, 0.3])
def test_continuous_rate_matches_oracle_without_cancellation(alpha, d_x, gamma_t_db):
    # The middle pieces' dilogarithm difference over alpha cancels as
    # alpha -> 0, and the feed pieces' G(d^2 + C) - G(d^2) at low SNR
    # (C = 7e-5 against d^2 >= 9 at 20 dB); neither may cost digits. At
    # alpha 0.2 and 0.25 in the 10 m room the feed end starts winning the
    # far end of the row again inside the room (y = 1.43 at alpha 0.25).
    cfg = SystemConfig(d_x=d_x, alpha=alpha, gamma_t_db=gamma_t_db)
    ref = oracle.continuous_rate_quad(cfg)
    assert continuous_rate(cfg).value == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_softplus_derivative_table_follows_its_recurrence():
    q = np.polynomial.Polynomial([0.0, 1.0])
    derivative = q
    for coefficients in metrics._SOFTPLUS_EVEN_DERIVATIVES:
        assert derivative.coef.tolist() == [0.0, *coefficients]
        derivative = derivative.deriv(2) * q * q * (1.0 - 4.0 * q) + (
            derivative.deriv() * (q - 6.0 * q * q)
        )


@pytest.mark.parametrize("start_snr", [1e-12, 1e-3, 1.0, 7.0, 1e3, 1e10, 1e20])
def test_middle_piece_branches_meet_at_the_switch(start_snr):
    # The mean of ln(1 + w0 e^(-alpha L s)) over s in [0, 1], from the
    # midpoint series and from the dilogarithm difference, where
    # _middle_integral switches from one to the other.
    import mpmath

    decay = metrics._MIDDLE_SERIES_SPAN
    with mpmath.workdps(30):
        ref = float(
            mpmath.quad(lambda s: mpmath.log1p(start_snr * mpmath.exp(-decay * s)), [0, 1])
        )
    for branch in (metrics._middle_series, metrics._middle_dilog):
        value = float(branch(np.array([start_snr]), np.array([decay]))[0])
        assert value == pytest.approx(ref, rel=1e-14, abs=0.0), branch.__name__


def test_continuous_rate_settles_when_room_is_wide_against_height():
    # d_y/h = 1.8e4: the rows' 1/(y^2 + h^2) peak is 1e-4 m wide, which a
    # rule even in y did not resolve (its base and refined orders differed
    # by 1.1e-6, past the self-check). The rule is even in asinh(y / h).
    cfg = SystemConfig(d_x=0.059, d_y=2.16, h=1.2e-4, alpha=0.41)
    ref = oracle.continuous_rate_quad(cfg)
    assert continuous_rate(cfg).value == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_continuous_rate_settles_in_random_rooms():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        cfg = SystemConfig(
            d_x=10.0 ** rng.uniform(-2.0, 4.0),
            d_y=10.0 ** rng.uniform(-2.0, 4.0),
            h=10.0 ** rng.uniform(-4.0, 2.0),
            alpha=rng.uniform(0.0, 10.0),
            gamma_t_db=rng.uniform(40.0, 120.0),
        )
        assert continuous_rate(cfg).value > 0.0, cfg


def test_continuous_rate_with_partial_feed_rows_within_self_check():
    # Rows with alpha^2 (y^2 + h^2) >= 1 (|y| >= 4 at alpha = 0.2, |y| >= 1.2
    # at alpha = 0.3) are served from the feed end throughout, so the y
    # integrand has a kink there, which the outer rule splits at.
    for alpha in (0.2, 0.3):
        cfg = SystemConfig(d_x=30.0, alpha=alpha)
        ref = oracle.continuous_rate_quad(cfg)
        assert continuous_rate(cfg).value == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_continuous_rate_requires_height():
    with pytest.raises(ValueError, match="h must be > 0"):
        continuous_rate(SystemConfig(d_x=10.0, h=0.0))


_CURVE_GAMMAS = tuple(90.0 + i for i in range(21))


@pytest.mark.parametrize("d_x", [10.0, 30.0, 500.0])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2, 0.4])
def test_continuous_rate_curve_matches_pointwise(alpha, d_x):
    # One geometry per transmit-SNR curve: the SNR is computed at the first
    # gamma_t and rescaled, so each point is a few roundings from its own
    # evaluation, and the first point is the same arithmetic exactly.
    from pinchpas import metrics

    cfg = SystemConfig(d_x=d_x, alpha=alpha, gamma_t_db=_CURVE_GAMMAS[0])
    points = [replace(cfg, gamma_t_db=gamma_t_db) for gamma_t_db in _CURVE_GAMMAS]
    curve = metrics._continuous_rates(points)
    for point, rates in zip(points, curve):
        value = metrics._settled_rate(rates).value
        expected = continuous_rate(point).value
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert "%.12g" % value == "%.12g" % expected
    assert metrics._settled_rate(curve[0]).value == continuous_rate(cfg).value


def test_continuous_rate_exceeds_discrete():
    cfg = SystemConfig(d_x=22.0, alpha=0.05, gamma_t_db=92.0)
    cont = continuous_rate(cfg).value
    for m in (1, 3, 8):
        lay = make_layout(cfg, m)
        part = optimize_partition(cfg, lay)
        assert ergodic_rate(cfg, lay, part).value < cont


def test_pde_value_and_flags():
    cfg = SystemConfig(d_x=18.0, alpha=0.05, gamma_t_db=94.0)
    lay = make_layout(cfg, 3)
    part = optimize_partition(cfg, lay)
    result = pde(cfg, lay, part)
    rate = ergodic_rate(cfg, lay, part).value
    cont = continuous_rate(cfg).value
    assert result.value == pytest.approx(rate / cont, rel=1e-12)
    assert 0.0 < result.value <= 1.0
    assert result.kind == "pde"


def test_pde_increases_with_antenna_count():
    cfg = SystemConfig(d_x=18.0, alpha=0.05, gamma_t_db=94.0)
    vals = []
    for m in range(1, 8):
        lay = make_layout(cfg, m)
        part = optimize_partition(cfg, lay)
        vals.append(pde(cfg, lay, part).value)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pde_batch_gives_each_point_its_own_pde():
    # One rate pass and one baseline per transmit-SNR curve, worked out at
    # the curve's first config: a point at that config is its own pde
    # exactly, and every other point within a few roundings of it.
    runs = []
    for seed in (0, 1):
        batch, firsts = [], {}
        for config, m in oracle.mixed_batch(seed):
            layout = make_layout(config, m)
            batch.append((config, layout, optimize_partition(config, layout)))
            firsts.setdefault(_unscaled(config), config)
        results = metrics._pdes(batch)
        assert len(results) == len(batch)
        for point, result in zip(batch, results):
            expected = pde(*point)
            assert (result.kind, result.flags) == (expected.kind, expected.flags)
            if point[0] == firsts[_unscaled(point[0])]:
                assert result.value == expected.value
            assert result.value == pytest.approx(expected.value, rel=1e-14, abs=0.0)
        runs.append({(c, lay.m): r.value for (c, lay, _), r in zip(batch, results)})
    assert runs[0] == pytest.approx(runs[1], rel=1e-14, abs=0.0)


# --------------------------------------------------------------- plumbing --

def test_metric_result_validation():
    with pytest.raises(ValueError):
        MetricResult(kind="outage", value=1.5)
    with pytest.raises(ValueError):
        MetricResult(kind="pde", value=0.0)
    with pytest.raises(ValueError):
        MetricResult(kind="ergodic_rate", value=-0.1)
    with pytest.raises(ValueError):
        MetricResult(kind="bogus", value=0.5)
    assert not hasattr(MetricResult(kind="outage", value=0.5), "params")


def test_underflow_clamp_raises_flag():
    cfg = SystemConfig(d_x=20.0, alpha=80.0)
    lay = make_layout(cfg, 1)
    part = optimize_partition(cfg, lay)
    res = outage_probability(cfg, lay, part)
    assert res.value == 1.0
    assert any("underflow" in f for f in res.flags)


@pytest.mark.parametrize("h", [3.0, 1e154])
def test_outage_of_an_overflowing_reach_is_zero(h):
    # c_0k / gamma_thr overflows to inf: the threshold circle covers every
    # sub-rectangle, so the outage is exactly 0, with no warning, up to the
    # largest h whose square is finite (`SystemConfig` rejects the rest).
    cfg = SystemConfig(
        d_x=10.0, h=h, gamma_t_db=3000.0, gamma_thr_db=-3000.0, f_c=1e6
    )
    lay = make_layout(cfg, 2)
    result = outage_probability(cfg, lay, optimize_partition(cfg, lay))
    assert (result.value, result.flags) == (0.0, ())


def test_pde_of_a_rate_that_rounds_to_zero():
    # Clamped against underflow, the rate is a flagged 0, and so is pde,
    # as the sweep writes it. Unclamped but below the closed form's
    # precision (alpha x_1 = 500), a 0 rate is a named diagnostic.
    flagged = SystemConfig(
        d_x=2185.24, d_y=5.0975, h=1.0643, alpha=2.1146, gamma_t_db=154.287
    )
    lay = make_layout(flagged, 1)
    result = pde(flagged, lay, optimize_partition(flagged, lay))
    assert result.value == 0.0
    assert result.flags == ("c0k_underflow_clamp",)

    # At alpha = 3.4, c_0k = 1.6e-150 is lost in c_0k + h^2 = 1; unless
    # c_l returns an exact 0, rounding noise of 3.7e-16 passes as a rate.
    for unflagged in (
        SystemConfig(d_x=200.0, alpha=5.0, gamma_t_db=40.0),
        SystemConfig(d_x=200.0, alpha=3.4, h=1.0, gamma_t_db=40.0),
    ):
        lay = make_layout(unflagged, 1)
        part = optimize_partition(unflagged, lay)
        assert ergodic_rate(unflagged, lay, part).value == 0.0
        with pytest.raises(NumericalDiagnosticError, match="rounds to 0"):
            pde(unflagged, lay, part)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(
    d_x=_log_uniform(-2.0, 4.0),
    d_y=_log_uniform(-2.0, 3.0),
    h=st.one_of(st.just(0.0), _log_uniform(-6.0, 1.5)),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 10.0), _log_uniform(-6.0, 1.0)),
    gamma_t_db=st.floats(40.0, 160.0),
    gamma_thr_db=st.floats(-10.0, 50.0),
    m=st.integers(1, 200),
)
def test_validated_configs_end_cleanly(d_x, d_y, h, alpha, gamma_t_db, gamma_thr_db, m):
    # Rooms of 1 cm to 10 km: every partition is valid, outage lies in
    # [0, 1] (flagged or not), and with a positive height the rate is
    # finite and pde, through the continuous baseline, is in (0, 1], a
    # flagged value in [0, 1], or a named numerical diagnostic.
    cfg = SystemConfig(
        d_x=d_x, d_y=d_y, h=h, alpha=alpha,
        gamma_t_db=gamma_t_db, gamma_thr_db=gamma_thr_db,
    )
    lay = make_layout(cfg, m)
    part = optimize_partition(cfg, lay)  # RegionPartition validates itself
    assert len(part.left_limits) == m
    assert 0.0 <= outage_probability(cfg, lay, part).value <= 1.0
    if h > 0.0:
        assert math.isfinite(ergodic_rate(cfg, lay, part).value)
        try:
            efficiency = pde(cfg, lay, part)
        except NumericalDiagnosticError:
            return
        if efficiency.flags:
            assert 0.0 <= efficiency.value <= 1.0
        else:
            assert 0.0 < efficiency.value <= 1.0


def test_float_range_corners_end_cleanly():
    # Corners of the validated range that warned, raised or ran out of
    # memory before.
    # A missed row's boundary quotient overflows; its offset is inf anyway.
    cfg = SystemConfig(d_x=1e-3, h=1e154, alpha=1e3)
    assert optimize_partition(cfg, make_layout(cfg, 2)).offset > 0.0
    # 1e4 * delta^2 overflows at the kernel slope's switch: the closed form.
    assert math.isfinite(metrics._kernel_slope(1.0, 1e153, 1.0))
    # c_0k = big_c e^(-alpha x_1) = 5.7e-30 * e^-690 underflows to 0 short
    # of the exponent clamp: it is clamped and flagged too.
    cfg = SystemConfig(d_x=10.0, alpha=138.0, gamma_t_db=-200.0, f_c=1e12)
    lay = make_layout(cfg, 1)
    result = ergodic_rate(cfg, lay, optimize_partition(cfg, lay))
    assert result.flags == ("c0k_underflow_clamp",) and math.isfinite(result.value)
    # The peak SNR big_c / h^2 = 5.7e290 / 1e-20 is past the largest float,
    # so the continuous baseline cannot be formed: a named diagnostic.
    cfg = SystemConfig(d_x=10.0, h=1e-10, gamma_t_db=3000.0, f_c=1e12)
    lay = make_layout(cfg, 2)
    with pytest.raises(NumericalDiagnosticError, match="peak SNR"):
        pde(cfg, lay, optimize_partition(cfg, lay))
    # log(y^2 + h^2) - log(h^2 + t1^2) is rounding noise near its root, and
    # its sign flips in every refined bracket: each keeps one breakpoint.
    cfg = SystemConfig(
        d_x=1e-6, d_y=148.73603659748014, h=0.016662592928856593, alpha=1e-8,
        gamma_t_db=2630.9652593690294, gamma_thr_db=-3000.0, f_c=1e6,
    )
    assert metrics._outer_edges(cfg).size <= 66


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d_y, h, gamma_t_db", [(1e3, 1e-153, -100.0), (10.0, 1e-154, -200.0)])
def test_takeover_scan_past_d_y_over_h_of_1e154(d_y, h, gamma_t_db):
    # The baseline's takeover scan reaches cosh(u) = d_y/(2h), past
    # 1.3e154 here, whose square overflows; h cosh(u), squared, does not.
    # At such a height the baseline's two orders disagree: a named diagnostic.
    cfg = SystemConfig(d_x=10.0, d_y=d_y, h=h, gamma_t_db=gamma_t_db)
    lay = make_layout(cfg, 2)
    with pytest.raises(NumericalDiagnosticError):
        pde(cfg, lay, optimize_partition(cfg, lay))


def test_rate_of_a_room_past_2_to_the_1000_is_scaled():
    # The rate does not change, to rounding, when lengths grow by 2^500 and
    # c_0k and h^2 by 2^1000; width times d_y then passes 2^1000, where the
    # kernels' integrals would overflow unless scaled back.
    cfg = SystemConfig(d_x=10.0)
    s = 2.0**500
    big = SystemConfig(d_x=cfg.d_x * s, d_y=cfg.d_y * s, h=cfg.h * s)
    widths = np.array([0.5, 2.0, 5.0])
    for c_0k in (1e-2, 1e3, 1e6):
        scaled = c_l(widths * s, c_0k * s * s, big)
        assert scaled == pytest.approx(c_l(widths, c_0k, cfg), rel=1e-13)
    room = SystemConfig(d_x=6.5e153, d_y=6.5e153, alpha=0.0, gamma_t_db=3000.0, f_c=1e6)
    lay = make_layout(room, 1)
    assert math.isfinite(ergodic_rate(room, lay, optimize_partition(room, lay)).value)


@settings(max_examples=100, deadline=None)
@given(
    d_x=_log_uniform(-6.0, 160.0),
    d_y=_log_uniform(-6.0, 160.0),
    h=st.one_of(st.just(0.0), _log_uniform(-10.0, 160.0)),
    alpha=st.one_of(st.just(0.0), _log_uniform(-8.0, 3.0)),
    gamma_t_db=st.floats(-200.0, 3000.0),
    gamma_thr_db=st.floats(-3000.0, 200.0),
    f_c=_log_uniform(6.0, 12.0),
    m=st.integers(1, 299),
)
# big_c + h^2 overflows: rejected, where the rate returned 0.0 after two warnings.
@example(d_x=1e-3, d_y=1e-3, h=1.34078e154, alpha=0.0, gamma_t_db=3000.0,
         gamma_thr_db=20.0, f_c=1e6, m=1)
def test_validated_configs_end_cleanly_over_the_float_range(
    d_x, d_y, h, alpha, gamma_t_db, gamma_thr_db, f_c, m
):
    # Every config that validates, out to rooms of 1e154 m and dB values
    # near the float range's ends, ends in a value, a flagged value or a
    # named error, with no warning: its partition builds (the offset may
    # reach delta), outage lies in [0, 1], a 1,000-user simulation runs,
    # and with a positive height the rate is finite and pde is in (0, 1],
    # flagged, or a NumericalDiagnosticError.
    try:
        cfg = SystemConfig(
            d_x=d_x, d_y=d_y, h=h, alpha=alpha, f_c=f_c,
            gamma_t_db=gamma_t_db, gamma_thr_db=gamma_thr_db,
        )
    except ValueError:
        assume(False)
    lay = make_layout(cfg, m)
    part = optimize_partition(cfg, lay)
    assert len(part.left_limits) == m
    assert 0.0 <= outage_probability(cfg, lay, part).value <= 1.0
    estimate = simulate_outage(cfg, lay, SimulationSpec(n_samples=1_000, seed=m))
    assert 0.0 <= estimate.mean <= 1.0
    if h > 0.0:
        assert math.isfinite(ergodic_rate(cfg, lay, part).value)
        try:
            efficiency = pde(cfg, lay, part)
        except NumericalDiagnosticError:
            return
        if efficiency.flags:
            assert 0.0 <= efficiency.value <= 1.0
        else:
            assert 0.0 < efficiency.value <= 1.0
