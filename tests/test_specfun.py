"""Special-function layer against quadrature and mpmath references."""

import math

import numpy as np
import pytest

from pinchpas.specfun import CATALAN, ti2

import oracle_utils as oracle


def test_ti2_at_one_is_catalan():
    assert abs(ti2(1.0) - CATALAN) < 1e-15


def test_ti2_matches_quadrature_across_branches():
    # Points chosen to land in the series, near-one, and inversion branches.
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


def test_ti2_odd():
    for z in (0.3, 1.0, 4.2):
        assert ti2(-z) == -ti2(z)
    assert ti2(0.0) == 0.0


def test_ti2_branch_seam_continuity():
    # The implementation switches branches at 0.6 and 1.5; values on the
    # two sides of each seam must agree far below the advertised accuracy.
    for edge in (0.6, 1.5):
        lo = ti2(edge * (1.0 - 1e-12))
        hi = ti2(edge * (1.0 + 1e-12))
        assert abs(hi - lo) < 1e-11


def test_ti2_inversion_identity():
    # Two native evaluations on each side, so the budget is twice the
    # series truncation target (1e-12), with headroom.
    for z in (1.5, 2.0, 10.0, 123.0, 1e5):
        lhs = ti2(z)
        rhs = ti2(1.0 / z) + 0.5 * math.pi * math.log(z)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_ti2_rejects_non_finite():
    with pytest.raises(ValueError):
        ti2(math.inf)
    with pytest.raises(ValueError):
        ti2(math.nan)


def test_ti2_on_arrays_keeps_shape_and_matches_mpmath():
    # Every branch (series, near one, inversion) in one array, both signs.
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
    zs = np.array([1e-8, 0.3, 0.6, 0.61, 1.0, 1.49, 1.5, 1.51, 2.0, 37.0, 1e6])
    assert ti2(zs).tolist() == [ti2(float(z)) for z in zs]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ti2_array_rejects_any_non_finite_element(bad):
    with pytest.raises(ValueError, match="finite"):
        ti2(np.array([0.5, bad, 2.0]))
