"""The inverse-tangent integral Ti2 and the dilogarithm Li2 of the closed forms.

`ti2` serves the discrete rate's kernels and `_dilog` the continuous
baseline's rows. Both are pure float64 routines with no state, so they
are safe to call from any number of threads, and both take a float or an
array of any shape.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import _piecewise

__all__ = ["CATALAN", "ti2"]

# Catalan's constant, G = sum (-1)^n / (2n+1)^2.
CATALAN = 0.915965594177219015054618569679

# Branch edges for ti2. Up to the series edge the alternating series is
# summed; between the edges the Taylor expansion about z = 1; above, the
# inversion identity maps back inside.
_TI2_SERIES_EDGE = 0.6
_TI2_INVERSION_EDGE = 1.5


def _ti2_taylor_coefficients(n_terms: int) -> tuple[float, ...]:
    """Coefficients c_m with Ti2(1+w) = Catalan + sum c_m w^m.

    Integrates the product series of arctan(1+w) and 1/(1+w). The
    recurrence for the arctan part comes from 1/(2+2w+w^2); its roots sit
    at |w| = sqrt(2), so the coefficients decay and the recurrence is
    numerically stable.
    """
    b = [0.5, -0.5]
    for n in range(2, n_terms):
        b.append(-(2.0 * b[n - 1] + b[n - 2]) / 2.0)
    # arctan(1+w) = pi/4 + sum_{n>=1} (b_{n-1}/n) w^n
    p = [math.pi / 4.0] + [b[n - 1] / n for n in range(1, n_terms)]
    coeffs = []
    for m in range(1, n_terms + 1):
        # Cauchy product of p with the alternating geometric series,
        # then term-by-term integration (divide by m).
        s = 0.0
        sign = 1.0
        for k in range(m - 1, -1, -1):
            s += sign * p[k]
            sign = -sign
        coeffs.append(s / m)
    return tuple(coeffs)


# Ti2(z) = z * sum (-1)^n (z^2)^n / (2n + 1)^2. Up to |z| = 0.6 the first
# term left out, n = 30, is below 1e-17 of the sum.
_TI2_SERIES = tuple((-1.0) ** n / ((2 * n + 1) * (2 * n + 1)) for n in range(30))
# Ti2(1 + w) = Catalan + sum c_m w^m. The series' radius is sqrt(2) and
# |w| <= 0.5 here, so the terms past the 48th add about 2e-22.
_TI2_NEAR_ONE = (CATALAN, *_ti2_taylor_coefficients(48))

# B_2k / (2k + 1)! for k = 1..9, from the Bernoulli numbers B_2 .. B_18:
# the odd terms of Li2(z) = u - u^2/4 + sum B_2k u^(2k+1) / (2k + 1)!,
# u = -ln(1 - z). For -1 <= z <= 0, |u| <= ln 2 and each term is about
# (u / 2 pi)^2 of the one before, so the B_18 term is below 1e-18.
_DILOG_BERNOULLI = tuple(
    numerator / denominator / math.factorial(2 * k + 1)
    for k, (numerator, denominator) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
         (-3617, 510), (43867, 798)),
        start=1,
    )
)


def _horner(coefficients: tuple[float, ...], x):
    """The polynomial sum c_n x^n with the given c_0, c_1, ..., by Horner's rule."""
    total = 0.0
    for coefficient in reversed(coefficients):
        total = total * x + coefficient
    return total


def _ti2_series(z):
    return z * _horner(_TI2_SERIES, z * z)


def _ti2_near_one(z):
    return _horner(_TI2_NEAR_ONE, z - 1.0)


def ti2(z):
    """Inverse-tangent integral Ti2(z) = integral of arctan(t)/t from 0 to z.

    Odd in z and defined for every finite real argument. Large arguments
    are folded back with Ti2(z) = Ti2(1/z) + (pi/2) ln z; arguments near
    1 use a Taylor expansion so the value at z = 1 is Catalan's constant
    to full precision. A float gives a float; an array gives an array of
    its shape, each element taking its own branch: each of the two
    polynomials is summed only over its own elements.
    """
    z = np.asarray(z, dtype=float)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"ti2 argument must be finite, got {float(z[~finite][0])!r}")
    size = np.abs(z)
    inverted = size > _TI2_INVERSION_EDGE
    folded = np.where(inverted, 1.0 / np.maximum(size, _TI2_INVERSION_EDGE), size)
    value = _piecewise(folded <= _TI2_SERIES_EDGE, (_ti2_near_one, _ti2_series), folded)
    value = np.where(
        inverted, value + 0.5 * math.pi * np.log(np.maximum(size, 1.0)), value
    )
    value = np.where(z < 0.0, -value, value)
    return float(value) if value.ndim == 0 else value


def _dilog(z):
    """Dilogarithm Li2(z) = -integral of ln(1 - t)/t from 0 to z, for z <= 0.

    On [-1, 0] it is the Bernoulli series in u = -ln(1 - z); below -1 the
    inversion Li2(z) = -pi^2/6 - ln^2(-z)/2 - Li2(1/z) maps back inside. A
    float gives a float; an array gives an array of its shape.
    """
    z = np.asarray(z, dtype=float)
    bad = ~((z <= 0.0) & np.isfinite(z))
    if bad.any():
        raise ValueError(f"_dilog needs finite z <= 0, got {float(z[bad][0])!r}")
    inverted = z < -1.0
    folded = np.where(inverted, 1.0 / np.minimum(z, -1.0), z)
    u = -np.log1p(-folded)
    u_sq = u * u
    value = u - 0.25 * u_sq + _horner(_DILOG_BERNOULLI, u_sq) * u_sq * u
    log_size = np.log(-np.minimum(z, -1.0))
    value = np.where(
        inverted, -math.pi * math.pi / 6.0 - 0.5 * log_size * log_size - value, value
    )
    return float(value) if value.ndim == 0 else value
