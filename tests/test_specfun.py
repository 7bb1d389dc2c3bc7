"""Special-function layer against quadrature and mpmath references."""

import math

import mpmath
import numpy as np
import pytest

from pinchpas.specfun import CATALAN, _dilog, ti2

import oracle_utils as oracle


def test_ti2_at_one_is_catalan():
    assert abs(ti2(1.0) - CATALAN) < 1e-15


def test_ti2_matches_quadrature_across_branches():
    # Points on both sides of the seam at 1, through 0.6 and 1.5, and far out.
    for z in (1e-8, 0.01, 0.25, 0.599, 0.6, 0.61, 0.9, 1.0, 1.1, 1.49, 1.5,
              1.51, 2.0, 5.0, 37.0, 1e3, 1e6):
        ref = oracle.ti2_quad(z)
        assert abs(ti2(z) - ref) <= 1e-11 * max(1.0, abs(ref)), f"z={z}"


def test_ti2_matches_mpmath_random():
    rng = np.random.default_rng(20)
    zs = np.exp(rng.uniform(math.log(1e-6), math.log(1e8), size=300))
    for z in zs:
        ref = oracle.ti2_mpmath(float(z))
        assert abs(ti2(float(z)) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ti2_matches_mpmath_to_rounding_in_every_branch():
    # Uniform on [0, 0.6] and [0.6, 1.5], and log-uniform above 1.5, with
    # both signs, plus the seam at 1 and its neighbours and the ordinary
    # points 0.6 and 1.5.
    rng = np.random.default_rng(22)
    sizes = np.concatenate((
        rng.uniform(0.0, 0.6, 200),
        rng.uniform(0.6, 1.5, 200),
        np.exp(rng.uniform(math.log(1.5), math.log(1e8), 200)),
        [0.6, np.nextafter(0.6, 1.0), 1.5, np.nextafter(1.5, 2.0)],
        [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
    ))
    zs = sizes * rng.choice((-1.0, 1.0), size=sizes.size)
    for z, value in zip(zs.tolist(), ti2(zs).tolist()):
        ref = math.copysign(oracle.ti2_mpmath(abs(z)), z)
        assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), f"z={z}"


def test_ti2_odd():
    for z in (0.3, 1.0, 4.2):
        assert ti2(-z) == -ti2(z)
    assert ti2(0.0) == 0.0


def test_ti2_branch_seam_continuity():
    # The implementation switches branches at 1; values on the two sides
    # of the seam, and around 0.6 and 1.5, must agree far below the
    # advertised accuracy.
    for edge in (0.6, 1.0, 1.5):
        lo = ti2(edge * (1.0 - 1e-12))
        hi = ti2(edge * (1.0 + 1e-12))
        assert abs(hi - lo) < 1e-11
    lo, hi = ti2(np.nextafter(1.0, 0.0)), ti2(np.nextafter(1.0, 2.0))
    assert abs(hi - lo) < 1e-15


def test_ti2_inversion_identity():
    # Each side is within a few ulps of Ti2 (see the mpmath test above).
    for z in (1.5, 2.0, 10.0, 123.0, 1e5):
        lhs = ti2(z)
        rhs = ti2(1.0 / z) + 0.5 * math.pi * math.log(z)
        assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(lhs))


def test_ti2_rejects_non_finite():
    with pytest.raises(ValueError):
        ti2(math.inf)
    with pytest.raises(ValueError):
        ti2(math.nan)


def test_ti2_on_arrays_keeps_shape_and_matches_mpmath():
    # Both branches (the series and the inversion) in one array, both signs.
    rng = np.random.default_rng(21)
    sizes = np.exp(rng.uniform(math.log(1e-6), math.log(1e8), size=(4, 75)))
    zs = sizes * rng.choice((-1.0, 1.0), size=sizes.shape)
    values = ti2(zs)
    assert isinstance(values, np.ndarray) and values.shape == zs.shape
    for z, value in zip(zs.ravel(), values.ravel()):
        ref = math.copysign(oracle.ti2_mpmath(abs(float(z))), z)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), f"z={z}"
    assert np.array_equal(ti2(-zs), -values)
    assert ti2(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert isinstance(ti2(0.5), float)


def test_ti2_array_elements_equal_scalar_calls():
    # Random points too: numpy can round a product of complex scalars apart
    # from the same product in an array, in a few elements per thousand.
    zs = np.concatenate((
        [1e-8, 0.3, 0.6, 0.61, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
         1.49, 1.5, 1.51, 2.0, 37.0, 1e6],
        np.random.default_rng(24).uniform(-3.0, 3.0, 2000),
    ))
    assert ti2(zs).tolist() == [ti2(float(z)) for z in zs]


def test_ti2_branches_keep_each_element_in_place():
    # A shuffled 2-D array straddling the seam at 1 (and around 0.6 and
    # 1.5), of both signs, is still elementwise its scalar calls, bit for
    # bit.
    seams = [np.nextafter(edge, side) for edge in (0.6, 1.0, 1.5) for side in (0.0, 2.0)]
    sizes = np.concatenate(([0.0, 0.6, 1.0, 1.5, *seams], np.linspace(0.01, 3.0, 86)))
    zs = np.random.default_rng(23).permutation(
        sizes * np.resize([1.0, -1.0, -1.0], sizes.size)
    ).reshape(8, 12)
    values = ti2(zs)
    assert values.shape == zs.shape
    assert values.ravel().tolist() == [ti2(z) for z in zs.ravel().tolist()]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ti2_array_rejects_any_non_finite_element(bad):
    with pytest.raises(ValueError, match="finite"):
        ti2(np.array([0.5, bad, 2.0]))


def test_dilog_matches_mpmath():
    rng = np.random.default_rng(21)
    zs = -np.exp(rng.uniform(math.log(1e-30), math.log(1e30), size=2000))
    zs = np.concatenate((zs, [0.0, -0.5, -1.0]))
    values = _dilog(zs)
    for z, value in zip(zs.tolist(), values.tolist()):
        with mpmath.workdps(30):
            ref = float(mpmath.polylog(2, z))
        assert value == pytest.approx(ref, rel=1e-14, abs=0.0), f"z={z}"
    assert _dilog(0.0) == 0.0
    assert _dilog(-1.0) == pytest.approx(-math.pi**2 / 12.0, rel=1e-15)


def test_dilog_keeps_shapes():
    assert isinstance(_dilog(-0.5), float)
    assert _dilog(np.full((2, 3), -4.0)).shape == (2, 3)
    assert _dilog(np.array([-2.0])).shape == (1,)


@pytest.mark.parametrize("z", [1e-300, 0.5, math.inf, -math.inf, math.nan])
def test_dilog_rejects_arguments_off_its_branch(z):
    with pytest.raises(ValueError, match="z <= 0"):
        _dilog(z)
