import math

import numpy as np
import pytest
from scipy import optimize

from pinchpas.numerics import gauss_legendre, golden_section, leggauss_cached

import oracle_utils as oracle


@pytest.mark.parametrize("n", [1, 2, 7, 64, 120, 128, 200])
def test_leggauss_cached_matches_the_50_digit_rule(n):
    nodes, weights = leggauss_cached(n)
    ref_nodes, ref_weights = oracle.leggauss_mpmath(n)
    eps = np.finfo(float).eps
    assert np.abs(nodes - ref_nodes).max() <= 2 * eps
    # numpy's leggauss misses this at n = 128 (its end weights are 1.4e-11 off).
    assert np.abs(weights / ref_weights - 1.0).max() <= 1e-12
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0)
    if n % 2:
        assert nodes[n // 2] == 0.0 and not np.signbit(nodes[n // 2])
    assert abs(weights.sum() - 2.0) <= 4 * eps


def test_leggauss_cached_returns_same_objects():
    a = leggauss_cached(64)
    b = leggauss_cached(64)
    assert a[0] is b[0] and a[1] is b[1]


def test_gauss_legendre_interval_mapping():
    nodes, weights = gauss_legendre(16, 2.0, 5.0)
    assert nodes.min() > 2.0 and nodes.max() < 5.0
    assert weights.sum() == pytest.approx(3.0, rel=1e-13)
    # degree-31 exactness: integrate x^7 on [2, 5]
    exact = (5.0**8 - 2.0**8) / 8.0
    assert abs(float((nodes**7 * weights).sum()) - exact) < 1e-9 * exact


def test_gauss_legendre_on_arrays_of_intervals_is_each_interval_own_rule():
    # Rule axis last; each interval's row is its own call's, bit for bit,
    # and scalar ends broadcast against array ends.
    a = np.array([[0.0, -1.5, 2.0], [1e-3, 7.25, -40.0]])
    b = np.array([[1.0, 1.5, 5.0], [3e-3, 9.0, 64.0]])
    nodes, weights = gauss_legendre(16, a, b)
    assert nodes.shape == weights.shape == (2, 3, 16)
    for i, j in np.ndindex(a.shape):
        own = gauss_legendre(16, float(a[i, j]), float(b[i, j]))
        assert nodes[i, j].tolist() == own[0].tolist()
        assert weights[i, j].tolist() == own[1].tolist()
    ends = np.array([2.0, 5.0, 9.5])
    nodes, weights = gauss_legendre(16, 0.0, ends)
    for k, end in enumerate(ends.tolist()):
        own = gauss_legendre(16, 0.0, end)
        assert nodes[k].tolist() == own[0].tolist()
        assert weights[k].tolist() == own[1].tolist()
    assert gauss_legendre(16, 2.0, 5.0)[0].shape == (16,)


def test_golden_section_matches_scipy():
    funcs = [
        (lambda x: (x - 1.3) ** 2, 0.0, 3.0),
        (lambda x: math.cosh(x - 0.25), -2.0, 2.0),
        (lambda x: -math.exp(-((x - 2.0) ** 2)), 0.0, 5.0),
    ]
    for f, a, b in funcs:
        mine = golden_section(f, a, b, tol=1e-10)
        ref = optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                       options={"xatol": 1e-12}).x
        assert abs(mine - ref) < 1e-8


def test_golden_section_boundary_minimum():
    # Monotone function: the minimizer sits at the bracket edge.
    x = golden_section(lambda t: t, 0.0, 1.0, tol=1e-10)
    assert x < 1e-9


def test_golden_section_batch_is_each_bracket_alone():
    # Spans from below tol to 1e6 give iteration counts from 0 to 58; the
    # lockstep search keeps each bracket's own count and midpoint, and one
    # call of f serves a step of every bracket.
    lo = np.array([-1.0, 0.0, 2.5, -40.0, 1e3, 0.25])
    hi = lo + np.array([5e-7, 1e-3, 1.0, 1e3, 1e6, 3.0])
    centre = lo + np.array([0.3, 0.7, 0.1, 0.5, 0.9, 1.0]) * (hi - lo)

    def f(x):
        return np.abs(x - centre) + 0.25 * (x - centre) * (x - centre)

    calls = []
    found = golden_section(lambda x: calls.append(1) or f(x), lo, hi, tol=1e-6)
    assert isinstance(found, np.ndarray) and found.shape == lo.shape
    for i in range(lo.size):
        c = float(centre[i])
        alone = golden_section(
            lambda x: abs(x - c) + 0.25 * (x - c) * (x - c), float(lo[i]), float(hi[i]), tol=1e-6
        )
        assert type(alone) is float
        assert found[i] == alone, i
    longest = math.ceil(math.log(1e-6 / 1e6) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
    assert len(calls) == longest + 2


def test_golden_section_rejects_an_empty_bracket():
    with pytest.raises(ValueError):
        golden_section(lambda x: x, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
