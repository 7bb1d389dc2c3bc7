"""The inverse-tangent integral Ti2 and the dilogarithm Li2 of the closed forms.

`ti2` serves the discrete rate's kernels and `_dilog` the continuous
baseline's rows. Both sum one Bernoulli series of Li2 (`_li2_series`):
`_dilog` at a real argument, `ti2` as Im Li2(iz). Both are pure float64
routines with no state, so they are safe to call from any number of
threads, and both take a float or an array of any shape.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import _float_or_array

__all__ = ["CATALAN", "ti2"]

# Catalan's constant, G = sum (-1)^n / (2n+1)^2.
CATALAN = 0.915965594177219015054618569679

# B_2k / (2k + 1)! for k = 1..9, from the Bernoulli numbers B_2 .. B_18:
# the odd terms of Li2(w) = u - u^2/4 + sum B_2k u^(2k+1) / (2k + 1)!,
# u = -ln(1 - w). Each term is about (u / 2 pi)^2 of the one before, so
# for |u| <= 0.87, which covers both callers, the first term left out,
# B_20's, is below 1e-18.
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


def _li2_series(u):
    """Li2(1 - e^(-u)) by its Bernoulli series, for real or complex u with |u| <= 0.87."""
    u_sq = u * u
    return u - 0.25 * u_sq + _horner(_DILOG_BERNOULLI, u_sq) * u_sq * u


def ti2(z):
    """Inverse-tangent integral Ti2(z) = integral of arctan(t)/t from 0 to z.

    Odd in z and defined for every finite real argument. Up to |z| = 1 it
    is Im Li2(iz), the Bernoulli series at u = -ln(1 + z^2)/2 + i arctan(z);
    larger arguments are folded back with Ti2(z) = Ti2(1/z) + (pi/2) ln z.
    A float gives a float; an array gives an array of its shape, and each
    element equals the scalar call on it.
    """
    z = np.asarray(z, dtype=float)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"ti2 argument must be finite, got {float(z[~finite][0])!r}")
    size = np.abs(z)
    inverted = size > 1.0
    folded = np.where(inverted, 1.0 / np.maximum(size, 1.0), size)
    u = -0.5 * np.log1p(folded * folded) + 1j * np.arctan(folded)
    # numpy rounds a complex product of scalars apart from one of arrays,
    # so a float is summed as a one-element array, as in an array call.
    value = _li2_series(np.atleast_1d(u)).imag.reshape(size.shape)
    value = np.where(inverted, value + 0.5 * math.pi * np.log(np.maximum(size, 1.0)), value)
    return _float_or_array(np.where(z < 0.0, -value, value))


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
    value = _li2_series(-np.log1p(-folded))
    log_size = np.log(-np.minimum(z, -1.0))
    value = np.where(
        inverted, -math.pi * math.pi / 6.0 - 0.5 * log_size * log_size - value, value
    )
    return _float_or_array(value)
