"""Equal-SNR boundary geometry and the rectangular partition optimizer."""

import math

import numpy as np
import pytest

from pinchpas import (
    DegenerateBoundaryError,
    ImaginaryRadiusError,
    RegionPartition,
    SystemConfig,
    UserPosition,
    boundary_circle,
    exact_boundary_x,
    make_layout,
    optimize_partition,
    select_pa,
    snr_linear,
)
from pinchpas.numerics import gauss_legendre, golden_section


def _snr_residual(cfg, lay, k, y):
    """Relative SNR mismatch between antennas k and k+1 at the computed cut."""
    xb = exact_boundary_x(cfg, lay, k, y)
    user = UserPosition(x_m=xb, y_m=y)
    a = snr_linear(cfg, lay, k, user)
    b = snr_linear(cfg, lay, k + 1, user)
    return abs(a - b) / a


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
        try:
            assert _snr_residual(cfg, lay, k, y) < 1e-12
        except ImaginaryRadiusError:
            # No crossing at this height: antenna k must dominate everywhere.
            xs = np.linspace(0.0, d_x, 101)
            for x in xs:
                u = UserPosition(x_m=float(x), y_m=y)
                assert snr_linear(cfg, lay, k, u) >= snr_linear(cfg, lay, k + 1, u)


def test_boundary_is_even_in_y():
    cfg = SystemConfig(d_x=20.0, alpha=0.06)
    lay = make_layout(cfg, 4)
    for y in (0.5, 2.0, 4.9):
        assert exact_boundary_x(cfg, lay, 2, y) == exact_boundary_x(cfg, lay, 2, -y)


def test_boundary_zero_attenuation_is_midpoint():
    cfg = SystemConfig(d_x=18.0, alpha=0.0)
    lay = make_layout(cfg, 3)
    for k in (1, 2):
        mid = 0.5 * (lay.x_k[k - 1] + lay.x_k[k])
        for y in (0.0, 3.0):
            assert exact_boundary_x(cfg, lay, k, y) == pytest.approx(mid, abs=1e-12)


def test_boundary_small_alpha_limit_is_smooth():
    # As alpha -> 0 the cut must converge to the midpoint without
    # cancellation blow-up.
    lay_args = dict(d_x=18.0, d_y=8.0, h=3.0)
    for alpha in (1e-3, 1e-6, 1e-9, 1e-12):
        cfg = SystemConfig(alpha=alpha, **lay_args)
        lay = make_layout(cfg, 3)
        mid = 0.5 * (lay.x_k[0] + lay.x_k[1])
        xb = exact_boundary_x(cfg, lay, 1, 2.0)
        assert xb > mid  # attenuation always pushes the cut away from the feed
        assert xb - mid < 20.0 * alpha * lay.delta * lay.delta  # vanishes linearly
        assert _snr_residual(cfg, lay, 1, 2.0) < 1e-10


def test_boundary_lies_on_equal_snr_circle():
    cfg = SystemConfig(d_x=24.0, d_y=9.0, alpha=0.08, h=2.5)
    lay = make_layout(cfg, 4)
    for k in (1, 2, 3):
        circle = boundary_circle(cfg, lay, k)
        for y in (0.0, 1.1, 3.7, 4.5):
            xb = exact_boundary_x(cfg, lay, k, y)
            lhs = (xb - circle.center_x) ** 2 + y * y
            assert lhs == pytest.approx(circle.radius**2, rel=1e-9)


def test_circle_center_and_radius_closed_form():
    cfg = SystemConfig(d_x=24.0, d_y=9.0, alpha=0.08, h=2.5)
    lay = make_layout(cfg, 4)
    delta = lay.delta
    g1 = math.expm1(cfg.alpha * delta)
    circle = boundary_circle(cfg, lay, 2)
    assert circle.center_x == pytest.approx(lay.x_k[1] + delta * (1.0 + 1.0 / g1))
    r_sq = delta * delta * (1.0 + g1) / (g1 * g1) - cfg.h * cfg.h
    assert circle.radius**2 == pytest.approx(r_sq, rel=1e-12)
    assert circle.curvature == pytest.approx(1.0 / circle.radius, rel=1e-15)


def test_circle_degenerate_and_imaginary():
    cfg0 = SystemConfig(d_x=10.0, alpha=0.0)
    lay0 = make_layout(cfg0, 2)
    with pytest.raises(DegenerateBoundaryError):
        boundary_circle(cfg0, lay0, 1)

    # Strong attenuation with a short spacing: the equal-SNR circle would
    # need an imaginary radius.
    cfg = SystemConfig(d_x=1.0, d_y=4.0, alpha=0.5, h=3.0)
    lay = make_layout(cfg, 10)
    with pytest.raises(ImaginaryRadiusError):
        boundary_circle(cfg, lay, 1)


def test_boundary_row_without_crossing_raises():
    # Wide room, tight spacing: rows far from the axis never see the
    # crossing, and the error message should say so.
    cfg = SystemConfig(d_x=10.0, d_y=50.0, alpha=0.05, h=3.0)
    lay = make_layout(cfg, 10)
    radius = boundary_circle(cfg, lay, 1).radius
    with pytest.raises(ImaginaryRadiusError):
        exact_boundary_x(cfg, lay, 1, radius + 0.5)
    # Just inside the circle the crossing exists and equalizes the SNR,
    # even though it falls beyond the next antenna.
    xb = exact_boundary_x(cfg, lay, 1, radius - 0.05)
    assert xb > lay.x_k[1]
    assert _snr_residual(cfg, lay, 1, radius - 0.05) < 1e-9


def test_boundary_bow_matches_circle_geometry():
    # The cut's retreat between the room axis and the wall equals the
    # sagitta of the equal-SNR circle over the half-width.
    for alpha in (0.01, 0.05, 0.1):
        for m in (2, 4, 6):
            cfg = SystemConfig(d_x=24.0, d_y=10.0, alpha=alpha, h=3.0)
            lay = make_layout(cfg, m)
            circle = boundary_circle(cfg, lay, 1)
            half = cfg.d_y / 2.0
            bow = exact_boundary_x(cfg, lay, 1, half) - exact_boundary_x(cfg, lay, 1, 0.0)
            sagitta = circle.radius - math.sqrt(circle.radius**2 - half * half)
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
        bow = exact_boundary_x(cfg, lay, 1, half) - exact_boundary_x(cfg, lay, 1, 0.0)
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
    samples = []
    for y in y_nodes:
        try:
            samples.append(exact_boundary_x(cfg, lay, k, float(y)))
        except ImaginaryRadiusError:
            # Antenna k wins the whole row; any abscissa at or past x_{k+1}
            # weighs the same inside the strip.
            samples.append(lay.x_k[k])
    return np.array(samples)


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
