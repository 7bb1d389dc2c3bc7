"""The inverse-tangent integral Ti2 used by the rate closed forms.

`ti2` is a pure scalar float64 routine with no state, so it is safe to
call from any number of threads.
"""

from __future__ import annotations

import math

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


def _ti2_series(z: float) -> float:
    # sum (-1)^n z^(2n+1) / (2n+1)^2 for |z| <= the series edge.
    z_sq = z * z
    term = z
    total = z
    for n in range(1, _MAX_TERMS + 1):
        term *= -z_sq
        piece = term / ((2 * n + 1) * (2 * n + 1))
        total += piece
        if abs(piece) <= _REL_TOL * abs(total):
            return total
    raise ArithmeticError(
        f"inverse-tangent integral series did not reach rel_tol={_REL_TOL} "
        f"within {_MAX_TERMS} terms at z={z}"
    )


def _ti2_near_one(z: float) -> float:
    w = z - 1.0
    total = CATALAN
    w_pow = 1.0
    for c in _TI2_TAYLOR:
        w_pow *= w
        piece = c * w_pow
        total += piece
        if abs(piece) <= _REL_TOL * abs(total):
            break
    return total


def ti2(z: float) -> float:
    """Inverse-tangent integral Ti2(z) = integral of arctan(t)/t from 0 to z.

    Odd in z and defined for every finite real argument. Large arguments
    are folded back with Ti2(z) = Ti2(1/z) + (pi/2) ln z; arguments near
    1 use a Taylor expansion so the value at z = 1 is Catalan's constant
    to full precision.
    """
    if not math.isfinite(z):
        raise ValueError(f"ti2 argument must be finite, got {z!r}")
    if z < 0.0:
        return -ti2(-z)
    if z == 0.0:
        return 0.0
    if z <= _TI2_SERIES_EDGE:
        return _ti2_series(z)
    if z <= _TI2_INVERSION_EDGE:
        return _ti2_near_one(z)
    inv = 1.0 / z
    inner = _ti2_series(inv) if inv <= _TI2_SERIES_EDGE else _ti2_near_one(inv)
    return inner + 0.5 * math.pi * math.log(z)
