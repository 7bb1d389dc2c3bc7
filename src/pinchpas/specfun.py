"""The inverse-tangent integral Ti2 used by the rate closed forms.

`ti2` is a pure float64 routine with no state, so it is safe to call
from any number of threads. It takes a float or an array of any shape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CATALAN", "ti2"]

# Catalan's constant, G = sum (-1)^n / (2n+1)^2.
CATALAN = 0.915965594177219015054618569679

# Branch edges for ti2. Below the series edge the alternating series
# converges in a few dozen terms; between the edges a Taylor expansion
# about z = 1 is used; above, the inversion identity maps back inside.
_TI2_SERIES_EDGE = 0.6
_TI2_INVERSION_EDGE = 1.5
_TI2_TAYLOR_TERMS = 96

# Target relative truncation error of the series, and the number of terms
# after which the alternating series is declared stuck.
_REL_TOL = 1e-12
_MAX_TERMS = 4096


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


_TI2_TAYLOR = _ti2_taylor_coefficients(_TI2_TAYLOR_TERMS)


def _ti2_series(z: np.ndarray) -> np.ndarray:
    # sum (-1)^n z^(2n+1) / (2n+1)^2 for |z| <= the series edge. Each
    # element stops at its own first term below the tolerance.
    value = z.copy()
    live = np.arange(z.size)
    z_sq = z * z
    term = z.copy()
    total = z.copy()
    for n in range(1, _MAX_TERMS + 1):
        if not live.size:
            return value
        term *= -z_sq
        piece = term / ((2 * n + 1) * (2 * n + 1))
        total += piece
        done = np.abs(piece) <= _REL_TOL * np.abs(total)
        if done.any():
            value[live[done]] = total[done]
            keep = ~done
            live, z_sq, term, total = live[keep], z_sq[keep], term[keep], total[keep]
    if not live.size:
        return value
    raise ArithmeticError(
        f"inverse-tangent integral series did not reach rel_tol={_REL_TOL} "
        f"within {_MAX_TERMS} terms at z={float(z[live[0]])!r}"
    )


def _ti2_near_one(z: np.ndarray) -> np.ndarray:
    # Every fourth coefficient is up to twenty times smaller than its
    # neighbours, so one term below the tolerance can come before larger
    # ones; stopping there left relative errors up to 3.4e-12. Each element
    # stops at its own second term in a row below the tolerance, or after
    # the last coefficient.
    value = np.empty_like(z)
    live = np.arange(z.size)
    w = z - 1.0
    total = np.full(z.size, CATALAN)
    w_pow = np.ones(z.size)
    quiet = np.zeros(z.size, dtype=bool)
    for c in _TI2_TAYLOR:
        if not live.size:
            return value
        w_pow *= w
        piece = c * w_pow
        total += piece
        small = np.abs(piece) <= _REL_TOL * np.abs(total)
        done = small & quiet
        quiet = small
        if done.any():
            value[live[done]] = total[done]
            keep = ~done
            live, w, total, w_pow, quiet = (
                live[keep], w[keep], total[keep], w_pow[keep], quiet[keep]
            )
    value[live] = total
    return value


def ti2(z):
    """Inverse-tangent integral Ti2(z) = integral of arctan(t)/t from 0 to z.

    Odd in z and defined for every finite real argument. Large arguments
    are folded back with Ti2(z) = Ti2(1/z) + (pi/2) ln z; arguments near
    1 use a Taylor expansion so the value at z = 1 is Catalan's constant
    to full precision. A float gives a float; an array gives an array of
    its shape, each element taking its own branch.
    """
    z = np.asarray(z, dtype=float)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"ti2 argument must be finite, got {float(z[~finite][0])!r}")
    size = np.abs(z).ravel()
    inverted = size > _TI2_INVERSION_EDGE
    folded = size.copy()
    folded[inverted] = 1.0 / size[inverted]
    series = folded <= _TI2_SERIES_EDGE
    value = np.empty_like(folded)
    value[series] = _ti2_series(folded[series])
    value[~series] = _ti2_near_one(folded[~series])
    value[inverted] += 0.5 * math.pi * np.log(size[inverted])
    value = np.where(z.ravel() < 0.0, -value, value).reshape(z.shape)
    return float(value) if value.ndim == 0 else value
