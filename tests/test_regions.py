"""Equal-SNR boundary geometry and the rectangular partition optimizer."""

import math

import numpy as np
import pytest

from pinchpas import (
    RegionPartition,
    SystemConfig,
    UserPosition,
    make_layout,
    optimize_partition,
    select_pa,
    snr_matrix,
)
from pinchpas.numerics import gauss_legendre, golden_section
from pinchpas.regions import _boundary_offset


def _crossing(cfg, lay, k, y):
    """Abscissa where antennas k and k+1 give equal SNR in row y; inf if none."""
    return lay.x_k[k - 1] + _boundary_offset(cfg, lay.delta, y)


def _circle(cfg, lay, k):
    """Center and squared radius of the equal-SNR circle of antennas k and k+1."""
    delta, g = lay.delta, math.expm1(cfg.alpha * lay.delta)
    r_sq = delta * delta * (1.0 + g) / (g * g) - cfg.h * cfg.h
    return lay.x_k[k - 1] + delta * (1.0 + 1.0 / g), r_sq


def _row_snr(cfg, lay, xs, y):
    """SNR of every antenna along row y, shape (m, len(xs))."""
    xs = np.asarray(xs, dtype=float)
    return snr_matrix(cfg, lay, xs, np.full(xs.shape, y))


def _snr_residual(cfg, lay, k, y):
    """Relative SNR mismatch between antennas k and k+1 at the computed cut."""
    snr = _row_snr(cfg, lay, [_crossing(cfg, lay, k, y)], y)[:, 0]
    return abs(snr[k - 1] - snr[k]) / snr[k - 1]


def _wins_whole_row(cfg, lay, k, y):
    """Antenna k out-delivers antenna k+1 everywhere along row y."""
    snr = _row_snr(cfg, lay, np.linspace(0.0, cfg.d_x, 101), y)
    return bool(np.all(snr[k - 1] >= snr[k]))


def test_boundary_equalizes_snr():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d_x = float(rng.uniform(5.0, 40.0))
        m = int(rng.integers(2, 9))
        cfg = SystemConfig(
            d_x=d_x,
            d_y=float(rng.uniform(4.0, 12.0)),
            alpha=float(rng.uniform(0.005, 0.12)),
            h=float(rng.uniform(1.0, 5.0)),
        )
        lay = make_layout(cfg, m)
        k = int(rng.integers(1, m))
        y = float(rng.uniform(-cfg.d_y / 2.0, cfg.d_y / 2.0))
        if math.isinf(_crossing(cfg, lay, k, y)):
            # No crossing at this height: antenna k must dominate everywhere.
            assert _wins_whole_row(cfg, lay, k, y)
        else:
            assert _snr_residual(cfg, lay, k, y) < 1e-12


def test_boundary_is_even_in_y():
    cfg = SystemConfig(d_x=20.0, alpha=0.06)
    lay = make_layout(cfg, 4)
    for y in (0.5, 2.0, 4.9):
        assert _crossing(cfg, lay, 2, y) == _crossing(cfg, lay, 2, -y)


def test_boundary_zero_attenuation_is_midpoint():
    cfg = SystemConfig(d_x=18.0, alpha=0.0)
    lay = make_layout(cfg, 3)
    for k in (1, 2):
        mid = 0.5 * (lay.x_k[k - 1] + lay.x_k[k])
        for y in (0.0, 3.0):
            assert _crossing(cfg, lay, k, y) == pytest.approx(mid, abs=1e-12)


def test_boundary_small_alpha_limit_is_smooth():
    # As alpha -> 0 the cut must converge to the midpoint without
    # cancellation blow-up.
    lay_args = dict(d_x=18.0, d_y=8.0, h=3.0)
    for alpha in (1e-3, 1e-6, 1e-9, 1e-12):
        cfg = SystemConfig(alpha=alpha, **lay_args)
        lay = make_layout(cfg, 3)
        mid = 0.5 * (lay.x_k[0] + lay.x_k[1])
        xb = _crossing(cfg, lay, 1, 2.0)
        assert xb > mid  # attenuation always pushes the cut away from the feed
        assert xb - mid < 20.0 * alpha * lay.delta * lay.delta  # vanishes linearly
        assert _snr_residual(cfg, lay, 1, 2.0) < 1e-10


def test_boundary_lies_on_equal_snr_circle():
    cfg = SystemConfig(d_x=24.0, d_y=9.0, alpha=0.08, h=2.5)
    lay = make_layout(cfg, 4)
    for k in (1, 2, 3):
        center, r_sq = _circle(cfg, lay, k)
        for y in (0.0, 1.1, 3.7, 4.5):
            xb = _crossing(cfg, lay, k, y)
            assert (xb - center) ** 2 + y * y == pytest.approx(r_sq, rel=1e-9)


def test_offset_is_inf_in_every_row_without_a_real_circle():
    # Strong attenuation with a short spacing: the equal-SNR circle would
    # need an imaginary radius, so no row has a crossing and antenna k
    # wins each one.
    cfg = SystemConfig(d_x=1.0, d_y=4.0, alpha=0.5, h=3.0)
    lay = make_layout(cfg, 10)
    assert _circle(cfg, lay, 1)[1] < 0.0
    y_nodes, _ = gauss_legendre(64, -cfg.d_y / 2.0, cfg.d_y / 2.0)
    for y in (*y_nodes, 0.0, cfg.d_y / 2.0):
        assert _boundary_offset(cfg, lay.delta, float(y)) == math.inf
    assert _wins_whole_row(cfg, lay, 1, 0.0)


def test_boundary_row_without_crossing_is_inf():
    # Wide room, tight spacing: rows far from the axis never see the
    # crossing, and antenna k wins them whole.
    cfg = SystemConfig(d_x=10.0, d_y=50.0, alpha=0.05, h=3.0)
    lay = make_layout(cfg, 10)
    radius = math.sqrt(_circle(cfg, lay, 1)[1])
    assert math.isinf(_crossing(cfg, lay, 1, radius + 0.5))
    assert _wins_whole_row(cfg, lay, 1, radius + 0.5)
    # Just inside the circle the crossing exists and equalizes the SNR,
    # even though it falls beyond the next antenna.
    xb = _crossing(cfg, lay, 1, radius - 0.05)
    assert xb > lay.x_k[1]
    assert _snr_residual(cfg, lay, 1, radius - 0.05) < 1e-9


def test_boundary_bow_matches_circle_geometry():
    # The cut's retreat between the room axis and the wall equals the
    # sagitta of the equal-SNR circle over the half-width.
    for alpha in (0.01, 0.05, 0.1):
        for m in (2, 4, 6):
            cfg = SystemConfig(d_x=24.0, d_y=10.0, alpha=alpha, h=3.0)
            lay = make_layout(cfg, m)
            radius = math.sqrt(_circle(cfg, lay, 1)[1])
            half = cfg.d_y / 2.0
            bow = _crossing(cfg, lay, 1, half) - _crossing(cfg, lay, 1, 0.0)
            sagitta = radius - math.sqrt(radius**2 - half * half)
            assert bow == pytest.approx(sagitta, rel=1e-9)
            assert bow > 0.0


def test_boundary_bow_small_in_weak_attenuation_slice():
    # For alpha = 0.01 and spacings of a few meters the bow stays under
    # 5% of the spacing, which justifies the vertical-cut approximation
    # there; stronger attenuation does not obey that figure, which the
    # geometry identity above already pins down exactly.
    cfg = SystemConfig(d_x=24.0, d_y=10.0, alpha=0.01, h=3.0)
    for m in (4, 6, 8):  # delta = 6, 4, 3 meters
        lay = make_layout(cfg, m)
        half = cfg.d_y / 2.0
        bow = _crossing(cfg, lay, 1, half) - _crossing(cfg, lay, 1, 0.0)
        assert bow < 0.05 * lay.delta


def test_partition_shape_and_coverage():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cfg = SystemConfig(
            d_x=float(rng.uniform(8.0, 35.0)),
            d_y=float(rng.uniform(5.0, 12.0)),
            alpha=float(rng.uniform(0.0, 0.1)),
        )
        m = int(rng.integers(1, 9))
        lay = make_layout(cfg, m)
        part = optimize_partition(cfg, lay)
        b = part.boundaries_b
        assert len(b) == m + 1
        assert b[0] == 0.0 and b[-1] == cfg.d_x
        assert all(hi > lo for lo, hi in zip(b, b[1:]))
        # cuts bracket the antennas they separate
        for k in range(1, m):
            assert lay.x_k[k - 1] < b[k] < lay.x_k[k]
        total = sum(part.left_limits) + sum(part.right_limits)
        assert total == pytest.approx(cfg.d_x, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, m, offset_hex",
    [
        (0.05, 10, "0x1.ef52fcf2aba96p+0"),
        (0.05, 100, "0x1.33331c47cfd08p-2"),
        (0.2, 10, "0x1.7ffffbd1f3120p+1"),
        (0.2, 100, "0x1.33331c47cfd08p-2"),
    ],
)
def test_partition_offset_is_pinned_bit_for_bit(alpha, m, offset_hex):
    # The shared offset of the golden-section search, recorded before its
    # objective moved from numpy scalars to Python floats. Any change in
    # the search's arithmetic shows here first.
    cfg = SystemConfig(d_x=30.0, alpha=alpha)
    lay = make_layout(cfg, m)
    part = optimize_partition(cfg, lay)
    assert part.right_limits[0].hex() == offset_hex
    assert (lay.delta - part.left_limits[1]).hex() == offset_hex


def test_partition_single_antenna_spans_room():
    cfg = SystemConfig(d_x=14.0, alpha=0.09)
    lay = make_layout(cfg, 1)
    part = optimize_partition(cfg, lay)
    assert part.boundaries_b == (0.0, 14.0)
    assert part.left_limits == (lay.x_k[0],)
    assert part.right_limits == (14.0 - lay.x_k[0],)


def test_partition_zero_attenuation_is_symmetric():
    cfg = SystemConfig(d_x=12.0, alpha=0.0)
    lay = make_layout(cfg, 4)
    part = optimize_partition(cfg, lay)
    half = lay.delta / 2.0
    assert part.left_limits == (half,) * 4
    assert part.right_limits == (half,) * 4


def _arc_samples(cfg, lay, k, y_nodes):
    """Exact arc abscissae, with rows the circle misses clamped at x_{k+1}."""
    # Where the circle misses a row antenna k wins it whole; any abscissa
    # at or past x_{k+1} weighs the same inside the strip.
    samples = [_crossing(cfg, lay, k, float(y)) for y in y_nodes]
    return np.array([lay.x_k[k] if math.isinf(x) else x for x in samples])


def test_partition_cut_minimizes_misassigned_area():
    # The chosen cut must beat a dense scan of alternatives on the
    # y-integrated deviation from the exact arc. In the second room the
    # equal-SNR circle misses the rows near the walls, and the minimum is
    # the strip end x_{k+1}, where the deviation falls with slope d_y = 10;
    # the search stops within half its 1e-6 m tolerance of that end.
    for cfg, m, slack in (
        (SystemConfig(d_x=20.0, d_y=10.0, alpha=0.07), 3, 1e-7),
        (SystemConfig(d_x=30.0, d_y=10.0, alpha=0.2), 10, 10.0 * 0.5e-6),
    ):
        lay = make_layout(cfg, m)
        part = optimize_partition(cfg, lay)
        y_nodes, y_weights = gauss_legendre(64, -cfg.d_y / 2.0, cfg.d_y / 2.0)
        for k in range(1, m):
            arcs = _arc_samples(cfg, lay, k, y_nodes)

            def mismatch(b):
                return float(np.dot(y_weights, np.abs(arcs - b)))

            chosen = mismatch(part.boundaries_b[k])
            grid = np.linspace(lay.x_k[k - 1], lay.x_k[k], 4001)
            best = min(mismatch(float(b)) for b in grid)
            assert chosen <= best + slack, (cfg, m, k)


def _per_cut_search(cfg, lay):
    """Reference partition: one golden-section search per cut over its own arc."""
    y_nodes, y_weights = gauss_legendre(64, -cfg.d_y / 2.0, cfg.d_y / 2.0)
    cuts = []
    for k in range(1, lay.m):
        arcs = _arc_samples(cfg, lay, k, y_nodes)

        def mismatch(b, arcs=arcs):
            return sum(w * abs(s - b) for w, s in zip(y_weights, arcs))

        cuts.append(golden_section(mismatch, lay.x_k[k - 1], lay.x_k[k], tol=1e-6))
    return cuts


@pytest.mark.parametrize("d_x", [10.0, 30.0])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.15])
def test_shared_offset_matches_per_cut_search(d_x, alpha):
    # Every crossing is x_k plus the same offset, so one search must land
    # each cut where a search of its own would.
    cfg = SystemConfig(d_x=d_x, alpha=alpha)
    for m in (2, 3, 7, 20, 55, 100):
        lay = make_layout(cfg, m)
        cuts = optimize_partition(cfg, lay).boundaries_b[1:-1]
        reference = _per_cut_search(cfg, lay)
        assert max(abs(a - b) for a, b in zip(cuts, reference)) <= 1e-12 * d_x, m


def test_partition_cuts_sit_past_midpoints():
    # Attenuation favors the antenna closer to the feed, so every cut
    # lands beyond the plain midpoint.
    cfg = SystemConfig(d_x=20.0, alpha=0.08)
    lay = make_layout(cfg, 5)
    part = optimize_partition(cfg, lay)
    for k in range(1, 5):
        mid = 0.5 * (lay.x_k[k - 1] + lay.x_k[k])
        assert part.boundaries_b[k] > mid


def test_partition_agrees_with_user_selection():
    # Inside each strip the designated antenna should win the SNR vote
    # for almost all users; measure the mismatch fraction.
    cfg = SystemConfig(d_x=20.0, d_y=10.0, alpha=0.05)
    lay = make_layout(cfg, 5)
    part = optimize_partition(cfg, lay)
    rng = np.random.default_rng(13)
    n = 20_000
    xs = rng.uniform(0.0, cfg.d_x, size=n)
    ys = rng.uniform(-cfg.d_y / 2.0, cfg.d_y / 2.0, size=n)
    strip = np.searchsorted(np.array(part.boundaries_b[1:-1]), xs, side="right")
    wrong = 0
    for x, y, s in zip(xs, ys, strip):
        if select_pa(cfg, lay, UserPosition(x_m=float(x), y_m=float(y))) != s + 1:
            wrong += 1
    # The bowed arc leaves a sliver near each cut whose area is roughly
    # a quarter of the bow (alpha d_y^2 / 8 = 0.625 m) times the width,
    # so about 3% of the room here; far more would mean the partition is
    # mislocated.
    assert wrong / n < 0.05


def test_partition_validation():
    with pytest.raises(ValueError):
        RegionPartition(boundaries_b=(0.0, 1.0), left_limits=(0.5, 0.5),
                        right_limits=(0.5, 0.5))
    with pytest.raises(ValueError):
        RegionPartition(boundaries_b=(0.5, 1.0), left_limits=(0.25,),
                        right_limits=(0.25,))
    with pytest.raises(ValueError):
        RegionPartition(boundaries_b=(0.0, 2.0), left_limits=(1.5,),
                        right_limits=(1.5,))
