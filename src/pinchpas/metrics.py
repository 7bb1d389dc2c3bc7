"""Closed-form outage probability, ergodic rate, and discretization efficiency.

The outage probability and ergodic rate of the discrete-antenna system are
assembled per antenna from conditional expressions over the left and right
sub-rectangles of its serving region. The continuous baseline places a
radiating point at the per-user optimal waveguide position and integrates
the resulting rate over the uniform user distribution; the discretization
efficiency is the ratio of the two rates.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import leggauss_cached
from .regions import RegionPartition
from .specfun import _dilog, ti2
from .system import (
    PaLayout,
    SystemConfig,
    UserPosition,
    _continuous_candidates,
    _continuous_kinks,
    _feedward_offset,
    _station_log_ratio,
    db_to_linear,
    derive_rf,
)

__all__ = [
    "NumericalDiagnosticError",
    "MetricResult",
    "p_l",
    "outage_probability",
    "i_i",
    "i_j",
    "c_l",
    "ergodic_rate",
    "continuous_optimal_position",
    "continuous_rate",
    "pde",
]

METRIC_KINDS = ("outage", "ergodic_rate", "continuous_rate", "pde")

# Attenuation exponents beyond this would underflow exp(); the linear
# factor is clamped to the smallest normal float and flagged instead.
_UNDERFLOW_EXPONENT = 700.0
_UNDERFLOW_FLAG = "c0k_underflow_clamp"

# Above this ratio of x to delta^2 the closed form of `_kernel_slope`, and
# so of i_j, loses precision to cancellation between its terms, so the
# slope is summed from the arctangent's alternating series instead; there
# each term is at most 1e-4 of the one before it, so six terms reach
# machine precision.
_IJ_DIRECT_RATIO = 1e4
_IJ_SERIES_TERMS = 6

# At or below this ratio of c_0k to h^2, c_l takes its kernel difference
# from the slope at the midpoint instead. Against a log1p quadrature of
# the defining integral both ways were within 1e-9 there (width 0.001 to
# 100, d_y 2 to 10, h 1 to 3); further down the difference cancels, to a
# relative error of 1e-5 at 1e-8 * h^2 with width 100.
_C_L_SLOPE_RATIO = 1e-4

# Sub-rectangles per kernel call of the rate assembler, which takes whole
# points. Along m = 1..100 at d_x = 30, laying the whole table out at once
# (10,100 sub-rectangles) left the heap 0.7 MB larger, against 0.1 MB for
# runs of 512; runs of 2,048 were about 40% faster but took 0.8 MB.
_RATE_BLOCK = 512

# Gauss-Legendre nodes per piece of the continuous baseline's y rule at the
# base order; the self-check compares it with twice as many.
_RATE_QUAD_ORDER = 64
_RATE_QUAD_REL_TOL = 1e-6


class NumericalDiagnosticError(RuntimeError):
    """A numerical self-check failed; results would not be trustworthy."""


@dataclass(frozen=True)
class MetricResult:
    """A computed scalar metric tagged with the parameter point it belongs to."""

    kind: str
    value: float
    params: dict
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"kind must be one of {METRIC_KINDS}, got {self.kind!r}")
        if self.kind == "outage" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"outage must lie in [0, 1], got {self.value!r}")
        if self.kind in ("ergodic_rate", "continuous_rate") and self.value < 0.0:
            raise ValueError(f"rates must be >= 0, got {self.value!r}")
        # A rate clamped against underflow can round to 0; its flag says so.
        if self.kind == "pde" and not 0.0 < self.value <= 1.0 and not (
            self.value == 0.0 and self.flags
        ):
            raise ValueError(f"pde {self.value!r} is not in (0, 1] nor a flagged 0")


def _params_snapshot(config: SystemConfig, **extra) -> dict:
    # The fields are flat floats, so a shallow copy is `asdict`'s dict.
    return {**vars(config), **extra}


def p_l(delta_width: float, a_0k: float, d_y: float) -> float:
    """Conditional outage probability over one sub-rectangle.

    The user's offset along the waveguide is uniform on [0, delta_width]
    and the cross offset uniform on [-d_y/2, d_y/2]; outage occurs when
    the squared horizontal distance exceeds a_0k. The expression is a
    six-regime piecewise form depending on how the threshold circle of
    radius sqrt(a_0k) intersects the sub-rectangle; ties between regimes
    are routed to the lower-indexed branch (they agree by continuity).
    """
    if not delta_width > 0:
        raise ValueError(f"delta_width must be > 0, got {delta_width!r}")
    if not d_y > 0:
        raise ValueError(f"d_y must be > 0, got {d_y!r}")
    if a_0k <= 0.0:
        return 1.0
    half_w_sq = d_y * d_y / 4.0
    depth_sq = delta_width * delta_width
    area = d_y * delta_width
    if a_0k <= min(half_w_sq, depth_sq):
        # Quarter circle fully inside the sub-rectangle.
        value = 1.0 - math.pi * a_0k / (2.0 * area)
    elif a_0k <= half_w_sq:
        # Circle pokes out through the far (depth) side only.
        root = math.sqrt(max(a_0k - depth_sq, 0.0))
        value = (
            1.0
            - (a_0k / area) * math.asin(min(delta_width / math.sqrt(a_0k), 1.0))
            - root / d_y
        )
    elif a_0k <= depth_sq:
        # Circle pokes out through the width side only.
        root = math.sqrt(max(a_0k - half_w_sq, 0.0))
        value = (
            1.0
            - (a_0k / area) * math.asin(min(d_y / (2.0 * math.sqrt(a_0k)), 1.0))
            - root / (2.0 * delta_width)
        )
    elif a_0k <= depth_sq + half_w_sq:
        # Circle pokes out through both sides but misses the far corner.
        sqrt_a = math.sqrt(a_0k)
        root_w = math.sqrt(max(4.0 * a_0k - d_y * d_y, 0.0))
        root_d = math.sqrt(max(a_0k - depth_sq, 0.0))
        value = (
            1.0
            - (a_0k / area)
            * (
                math.asin(min(delta_width / sqrt_a, 1.0))
                - math.asin(min(root_w / (2.0 * sqrt_a), 1.0))
            )
            - root_w / (4.0 * delta_width)
            - root_d / d_y
        )
    else:
        # Threshold circle covers the whole sub-rectangle.
        return 0.0
    return min(1.0, max(0.0, value))


def _c0k_values(config: SystemConfig, layout: PaLayout) -> tuple[np.ndarray, bool]:
    """Attenuated SNR scale per antenna, clamped against exp underflow."""
    positions = np.asarray(layout.x_k)
    clamped = config.alpha * positions > _UNDERFLOW_EXPONENT
    scale = derive_rf(config).big_c * np.exp(-config.alpha * positions)
    values = np.where(clamped, sys.float_info.min, scale)
    return values, bool(clamped.any())


def outage_probability(
    config: SystemConfig, layout: PaLayout, partition: RegionPartition
) -> MetricResult:
    """Probability that the best antenna's SNR falls below the threshold.

    Weighted sum of the conditional outage over each antenna's left and
    right sub-rectangles, the weights being the sub-rectangle widths as a
    fraction of the room length.
    """
    gamma_thr = db_to_linear(config.gamma_thr_db)
    c0k, clamped = _c0k_values(config, layout)
    h_sq = config.h * config.h
    total = 0.0
    for k, scale in enumerate(c0k.tolist()):
        # Squared horizontal reach at the threshold; negative means even a
        # user directly under antenna k is in outage.
        a_0k = scale / gamma_thr - h_sq
        left = partition.left_limits[k]
        right = partition.right_limits[k]
        total += left * p_l(left, a_0k, config.d_y)
        total += right * p_l(right, a_0k, config.d_y)
    value = min(1.0, max(0.0, total / config.d_x))
    return MetricResult(
        kind="outage",
        value=value,
        params=_params_snapshot(config, m=layout.m),
        flags=(_UNDERFLOW_FLAG,) if clamped else (),
    )


def _arrays(*values) -> list[np.ndarray]:
    """The arguments as float arrays broadcast to one shape."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def _float_or_array(value):
    """A kernel's result: a Python float when every argument was a scalar."""
    return float(value) if np.ndim(value) == 0 else value


def _require_positive(name: str, value) -> None:
    """Raise a ValueError naming `name` unless every element of value is > 0."""
    array = np.asarray(value, dtype=float)
    bad = ~(array > 0)
    if bad.any():
        raise ValueError(f"{name} must be > 0, got {float(array[bad][0])!r}")


def _piecewise(
    mask: np.ndarray, when_true, when_false, *args: np.ndarray
) -> np.ndarray:
    """when_true(*args) where mask holds and when_false(*args) elsewhere.

    Each branch sees only its own elements of the arguments, which share
    mask's shape; a branch with no elements is not called.
    """
    value = np.empty(mask.shape)
    for branch, where in ((when_true, mask), (when_false, ~mask)):
        if where.any():
            value[where] = branch(*(arg[where] for arg in args))
    return value


def i_i(x, delta_width, d_y):
    """Log-kernel building block of the conditional rate.

    Closed form of the integral of delta_width * ln(delta_width^2 + x + y^2)
    for y from 0 to d_y/2. Floats give a float; arrays broadcast.
    """
    _require_positive("x", x)
    x, delta_width, d_y = _arrays(x, delta_width, d_y)
    d_sq = delta_width * delta_width
    root = np.sqrt(d_sq + x)
    return _float_or_array(
        0.5 * delta_width * d_y * np.log(d_y * d_y / 4.0 + d_sq + x)
        - delta_width * d_y
        + 2.0 * delta_width * root * np.arctan(d_y / (2.0 * root))
    )


def _arctan_kernel(x, delta_width, d_y):
    # i_j without its argument check. `_conditional_rates`, which checks its
    # own arguments, calls this rather than `i_j`: bench/tracing.py wraps
    # `metrics.i_j` and labels each call by its arguments taken as scalars.
    corner = np.sqrt(x + d_y * d_y / 4.0)
    root = np.sqrt(x + delta_width * delta_width)
    edge = 0.5 * delta_width * d_y - delta_width * root * np.arctan(
        d_y / (2.0 * root)
    )
    core = 0.5 * d_y * corner * np.arctan(delta_width / corner)
    return core + edge + x * _kernel_slope(x, delta_width, d_y)


def i_j(x, delta_width, d_y):
    """Arctangent-kernel building block of the conditional rate.

    Integral of 2*sqrt(x + y^2)*arctan(delta_width / sqrt(x + y^2)) for y
    from 0 to Y = d_y/2: an edge and a core term in closed form plus x
    times `_kernel_slope`, the one place that picks between the closed
    form in ti2 and the arctangent's series, per element. Floats give a
    float; arrays broadcast.
    """
    _require_positive("x", x)
    return _float_or_array(_arctan_kernel(x, delta_width, d_y))


def _kernel_slope_series(x, delta_width, d_y):
    # (-1)^(n-1) * delta^(2n-1) / (2n-1) * J_n summed over the first
    # _IJ_SERIES_TERMS n, with J_n the integral of (x + y^2)^(-n) for y
    # from 0 to Y = d_y/2: J_1 in closed form, then
    # J_{n+1} = (Y / (x + Y^2)^n + (2n - 1) J_n) / (2n x).
    half = 0.5 * d_y
    sqrt_x = np.sqrt(x)
    inv_corner_sq = 1.0 / (x + half * half)
    inv_corner_pow = 1.0
    j_n = np.arctan(half / sqrt_x) / sqrt_x
    d_sq = delta_width * delta_width
    delta_pow = delta_width
    total = delta_pow * j_n
    for n in range(1, _IJ_SERIES_TERMS):
        inv_corner_pow = inv_corner_pow * inv_corner_sq
        j_n = (half * inv_corner_pow + (2 * n - 1) * j_n) / (2 * n * x)
        delta_pow = delta_pow * d_sq
        total = total + (-1) ** n * delta_pow / (2 * n + 1) * j_n
    return total


def _kernel_slope_closed(x, delta_width, d_y):
    sqrt_x = np.sqrt(x)
    a_upper = np.arcsinh(d_y / (2.0 * sqrt_x))
    b_minus = sqrt_x / (np.sqrt(x + delta_width * delta_width) + delta_width)
    low, high = ti2(np.stack((b_minus * np.exp(-a_upper), b_minus * np.exp(a_upper))))
    return 0.5 * math.pi * a_upper + low - high


def _kernel_slope(x, delta_width, d_y):
    """d(i_i + i_j)/dx: the integral of atan(delta_width / s) / s, s = sqrt(x + y^2).

    y runs from 0 to d_y/2. Up to x = 1e4 * delta_width^2 it is the closed
    form pi/2 * A + ti2(b e^-A) - ti2(b e^A), A = asinh(d_y / (2 sqrt(x))),
    b = sqrt(x) / (sqrt(x + delta^2) + delta); beyond, the arctangent's
    series: sum over n >= 1 of (-1)^(n-1) * delta^(2n-1) / (2n-1) * J_n,
    with J_n the integral of (x + y^2)^(-n) over the same range. Each
    element takes its own branch. Floats give a float; arrays broadcast.
    """
    x, delta_width, d_y = _arrays(x, delta_width, d_y)
    return _float_or_array(
        _piecewise(
            x > _IJ_DIRECT_RATIO * delta_width * delta_width,
            _kernel_slope_series,
            _kernel_slope_closed,
            x,
            delta_width,
            d_y,
        )
    )


def _conditional_rates(delta_width, c_0k, h_sq, d_y) -> np.ndarray:
    """`c_l` for arrays of widths, scales, squared heights and room widths."""
    _require_positive("delta_width", delta_width)
    _require_positive("c_0k", c_0k)
    if not np.all(np.asarray(h_sq) > 0):
        raise ValueError("the rate closed form requires a strictly positive height h")
    delta_width, c_0k, h_sq, d_y = _arrays(delta_width, c_0k, h_sq, d_y)
    shifted = c_0k + h_sq
    total = np.zeros(shifted.shape)
    # Where c_0k is lost in c_0k + h^2 the difference of kernels would be
    # rounding noise, not a rate, so the total stays an exact 0.
    slope = (shifted != h_sq) & (c_0k <= _C_L_SLOPE_RATIO * h_sq)
    if slope.any():
        # The kernel difference would cancel. c_0k times the kernels' slope
        # at the midpoint h^2 + c_0k / 2 is within about (c_0k / h^2)^2 / 12
        # of it, relative: the slope's second derivative over the slope is at
        # most 2 / h^4.
        c, w, y = c_0k[slope], delta_width[slope], d_y[slope]
        total[slope] = c * _kernel_slope(h_sq[slope] + 0.5 * c, w, y)
    difference = c_0k > _C_L_SLOPE_RATIO * h_sq
    if difference.any():
        # Both ends in one call: row 0 at c_0k + h^2, row 1 at h^2.
        x = np.stack((shifted[difference], h_sq[difference]))
        w, y = delta_width[difference], d_y[difference]
        log_part = i_i(x, w, y)
        arctan_part = _arctan_kernel(x, w, y)
        total[difference] = log_part[0] + arctan_part[0] - log_part[1] - arctan_part[1]
    return np.maximum(0.0, 2.0 * total / (delta_width * d_y * math.log(2.0)))


def c_l(delta_width, c_0k, config: SystemConfig):
    """Conditional ergodic rate over one sub-rectangle, bits/s/Hz.

    Mean of log2(1 + c_0k / (eps^2 + y^2 + h^2)) with eps uniform on
    [0, delta_width] and y uniform on [-d_y/2, d_y/2]. Floats give a
    float; arrays of widths and scales broadcast.
    """
    return _float_or_array(
        _conditional_rates(delta_width, c_0k, config.h * config.h, config.d_y)
    )


def _point_blocks(points: Sequence) -> Iterator[list]:
    """Runs of consecutive points holding at most _RATE_BLOCK sub-rectangles.

    A point with more sub-rectangles than that is a run of its own.
    """
    block, size = [], 0
    for point in points:
        count = 2 * point[1].m
        if block and size + count > _RATE_BLOCK:
            yield block
            block, size = [], 0
        block.append(point)
        size += count
    if block:
        yield block


def _ergodic_rates(
    points: Sequence[tuple[SystemConfig, PaLayout, RegionPartition]],
) -> list[MetricResult]:
    """Spatially averaged rate at each (config, layout, partition), in few kernel calls.

    The points are taken in runs (`_point_blocks`). A run's sub-rectangles,
    left and right of each antenna in antenna order, are laid end to end
    and `_conditional_rates` evaluates them in one call. Each point's rate
    is the width-weighted sum over its own sub-rectangles, added in that
    order, over d_x, and carries that point's own underflow flag.
    """
    results = []
    for block in _point_blocks(points):
        widths, scales, h_sq, d_y, clamps = [], [], [], [], []
        for config, layout, partition in block:
            c0k, clamped = _c0k_values(config, layout)
            widths.append(
                np.column_stack((partition.left_limits, partition.right_limits)).ravel()
            )
            scales.append(np.repeat(c0k, 2))
            h_sq.append(np.full(2 * layout.m, config.h * config.h))
            d_y.append(np.full(2 * layout.m, config.d_y))
            clamps.append(clamped)
        ends = np.cumsum([w.size for w in widths[:-1]])
        widths, scales, h_sq, d_y = (
            np.concatenate(v) for v in (widths, scales, h_sq, d_y)
        )
        weighted = widths * _conditional_rates(widths, scales, h_sq, d_y)
        for (config, layout, _), terms, clamped in zip(
            block, np.split(weighted, ends), clamps
        ):
            # cumsum adds left to right, as a loop over the antennas would.
            results.append(
                MetricResult(
                    kind="ergodic_rate",
                    value=float(np.cumsum(terms)[-1]) / config.d_x,
                    params=_params_snapshot(config, m=layout.m),
                    flags=(_UNDERFLOW_FLAG,) if clamped else (),
                )
            )
    return results


def ergodic_rate(
    config: SystemConfig, layout: PaLayout, partition: RegionPartition
) -> MetricResult:
    """Spatially averaged rate of the discrete system, bits/s/Hz."""
    return _ergodic_rates([(config, layout, partition)])[0]


def continuous_optimal_position(config: SystemConfig, user: UserPosition) -> float:
    """Waveguide abscissa maximizing the user's SNR for a freely placed radiator.

    The SNR along the waveguide has one interior stationary maximum, at
    p* = x_m - t1 clipped to [0, d_x] with
    t1 = alpha d^2 / (1 + sqrt(1 - alpha^2 d^2)) and d^2 = y_m^2 + h^2,
    and a second contender at the feed end p = 0, which attenuation can
    make the better one in long rooms. Returns p* when its SNR is at least
    the feed end's, else 0, from the kernel of the continuous baseline.
    """
    placement, station, feed = _continuous_candidates(
        config, np.array([user.x_m]), np.array([user.y_m])
    )
    return float(placement[0]) if station[0] >= feed[0] else 0.0


def _feed_integral(x, dist_sq, dist, big_c):
    """Integral of ln(1 + C / (t^2 + d^2)) for t from 0 to x: a feed-served piece.

    G(x; d^2 + C) - G(x; d^2) with G(x; a) = x ln(x^2 + a) - 2x
    + 2 sqrt(a) atan(x / sqrt(a)), regrouped so that nothing cancels when C
    is small against d^2: the logarithms as one log1p, and the arctangent
    terms through s - d = C / (s + d), s = sqrt(d^2 + C), and
    atan(x/d) - atan(x/s) = atan(x (s - d) / (d s + x^2)).
    """
    root = np.sqrt(dist_sq + big_c)
    gap = big_c / (root + dist)
    return x * np.log1p(big_c / (x * x + dist_sq)) + 2.0 * (
        gap * np.arctan(x / root) - dist * np.arctan(x * gap / (dist * root + x * x))
    )


# Coefficients of q, q^2, ... in P_k, k = 1..6, where the even derivatives of
# ln(1 + e^v) are d^(2k)/dv^(2k) ln(1 + e^v) = P_k(q), q = e^v / (1 + e^v)^2.
# Each is even in v, so a polynomial in q: P_1 = q and, since
# (dq/dv)^2 = q^2 (1 - 4q) and d^2q/dv^2 = q - 6q^2,
# P_(k+1) = P_k'' q^2 (1 - 4q) + P_k' (q - 6q^2).
_SOFTPLUS_EVEN_DERIVATIVES = (
    (1,),
    (1, -6),
    (1, -30, 120),
    (1, -126, 1680, -5040),
    (1, -510, 17640, -151200, 362880),
    (1, -2046, 168960, -3160080, 19958400, -39916800),
)
# Up to this alpha times its length, a middle piece is summed from the
# Taylor series of its integrand about the midpoint: term k is
# P_k(q) (alpha L / 2)^(2k) / (2k + 1)! of the piece's mean, and
# ln(1 + e^v)'s poles at v = +-i pi bound it by about (alpha L / 2 pi)^(2k),
# so six terms reach 1e-16 at alpha L = 0.5. Beyond, the difference of
# dilogarithms has lost at most about eps ln(w) / (alpha L) to cancellation.
_MIDDLE_SERIES_SPAN = 0.5


def _middle_series(start_snr, decay):
    w = start_snr * np.exp(-0.5 * decay)
    q = w / (1.0 + w) / (1.0 + w)
    total = np.log1p(w)
    half_decay_sq = 0.25 * decay * decay
    decay_pow = np.ones_like(decay)
    for k, coefficients in enumerate(_SOFTPLUS_EVEN_DERIVATIVES, start=1):
        decay_pow = decay_pow * half_decay_sq / ((2 * k) * (2 * k + 1))
        derivative = 0.0
        for c in reversed(coefficients):
            derivative = derivative * q + c
        total = total + derivative * q * decay_pow
    return total


def _middle_dilog(start_snr, decay):
    return (_dilog(-start_snr * np.exp(-decay)) - _dilog(-start_snr)) / decay


def _middle_integral(alpha: float, length, start_snr):
    """Integral of ln(1 + w0 e^(-alpha s)) for s from 0 to length: the middle piece.

    The radiator follows the user at p = x - t1, so its SNR decays from
    w0 = C / (t1^2 + d^2) at x = t1. The integral is
    [Li2(-w0) - Li2(-w0 e^(-alpha L))] / alpha; up to alpha L =
    _MIDDLE_SERIES_SPAN, where that cancels, L times its Taylor series
    about the midpoint (at alpha = 0, L ln(1 + w0)).
    """
    start_snr, decay = np.broadcast_arrays(start_snr, alpha * np.asarray(length))
    mean = _piecewise(
        decay <= _MIDDLE_SERIES_SPAN, _middle_series, _middle_dilog, start_snr, decay
    )
    return length * mean


def _row_integrals(config, dist_sq, big_c) -> np.ndarray:
    """Integral over x in [0, d_x] of ln(1 + continuous SNR), per row and big_c.

    dist_sq holds the rows' d^2 = y^2 + h^2, shape (n,), and big_c one
    transmit SNR's scale per row of the result, shape (g, 1); the result
    has shape (g, n). Each row is served from the feed end on [0, t1] and
    [takeover, d_x] (`_feed_integral`) and by p* = x - t1 between
    (`_middle_integral`), with t1 and takeover from `_continuous_kinks`.
    """
    t1, takeover = _continuous_kinks(config, dist_sq)
    dist = np.sqrt(dist_sq)

    def feed(x):
        return _feed_integral(x, dist_sq, dist, big_c)

    middle = _middle_integral(config.alpha, takeover - t1, big_c / (t1 * t1 + dist_sq))
    return feed(t1) + middle + (feed(config.d_x) - feed(takeover))


def _takeover_onsets(config: SystemConfig, u_end: float) -> list[float]:
    """Each u = asinh(y / h) in (0, u_end) where the feed end starts or stops winning at d_x.

    Below u_end t1 is finite, and the feed end takes over again before d_x
    where `_station_log_ratio` at d_x, with t1 clipped to d_x, is negative.
    Its sign changes between 64 even steps in u, up to 1e-6 short of
    u_end (where t1 reaches d_x or stops being finite), are narrowed by
    four more rounds of 64 steps each, to 64^-5 (1e-9) of u_end: the row
    integral leaves such a root like (y - y0)^2, so a breakpoint that far
    off costs the rule about its cube.
    """
    h_sq, alpha, d_x = config.h * config.h, config.alpha, config.d_x

    def falls(u):
        dist_sq = h_sq * np.cosh(u) ** 2
        t1 = np.minimum(_feedward_offset(alpha, dist_sq), d_x)
        return _station_log_ratio(alpha, d_x, t1, dist_sq) < 0.0

    fractions = np.linspace(0.0, 1.0, 65)
    scan_end = u_end * (1.0 - 1e-6)
    grid, step = (scan_end * fractions)[None, :], scan_end / 64.0
    for _ in range(4):
        sign = falls(grid)
        bracket, index = np.nonzero(sign[:, 1:] != sign[:, :-1])
        grid = (grid[bracket, index])[:, None] + step * fractions
        step /= 64.0
    sign = falls(grid)
    bracket, index = np.nonzero(sign[:, 1:] != sign[:, :-1])
    return (grid[bracket, index] + 0.5 * step).tolist()


def _outer_edges(config: SystemConfig) -> np.ndarray:
    """Pieces of the baseline's y rule, as edges in u = asinh(y / h) over [0, d_y/2].

    The row integral has a kink where rows become feed-served throughout,
    at alpha^2 (y^2 + h^2) = 1; where t1 reaches d_x, at
    y^2 + h^2 = d_x (2 - alpha d_x) / alpha (only when alpha d_x < 1); and
    where the feed end starts winning again at d_x (`_takeover_onsets`).
    """
    h, alpha, d_x = config.h, config.alpha, config.d_x
    far = math.hypot(h, 0.5 * config.d_y)
    u_end = math.asinh(0.5 * config.d_y / h)
    kinks = []
    if 0.0 < alpha * h < 1.0 < alpha * far:
        kinks.append(math.acosh(1.0 / (alpha * h)))
    reach = d_x * (2.0 - alpha * d_x)
    if alpha * d_x < 1.0 and alpha * h * h < reach < alpha * far * far:
        kinks.append(math.acosh(math.sqrt(reach / alpha) / h))
    if 0.0 < alpha * h < 1.0:
        kinks += _takeover_onsets(config, min(kinks, default=u_end))
    return np.array([0.0, *sorted(kinks), u_end])


def _outer_rule(
    config: SystemConfig, edges: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Squared row distances d^2 = y^2 + h^2 and weights of the baseline's y rule.

    `order` Gauss-Legendre nodes per piece of `edges`, in u = asinh(y / h),
    with dy = h cosh(u) du: the row integral varies on the scale of d, so
    this resolves the 1/(y^2 + h^2) peak however large d_y/h is.
    """
    nodes, weights = leggauss_cached(order)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    dist = config.h * np.cosh(mid + half * nodes).ravel()
    return dist * dist, (half * weights).ravel() * dist


def _continuous_rate_curve(
    config: SystemConfig, gamma_t_dbs: tuple[float, ...]
) -> list[tuple[float, float]]:
    """(base, refined) continuous rates at each transmit SNR, from one geometry.

    The rate is the mean over the room of log2(1 + SNR) of a radiator
    placed optimally for each user: the integral over half the room width
    (it is even in y) of closed-form rows (`_row_integrals`). The y rule
    (`_outer_rule`) has _RATE_QUAD_ORDER nodes per piece at the base order
    and twice as many refined, for `_settled_rate` to compare. The rows'
    kinks do not depend on the transmit SNR, so both rules' rows are laid
    out, and their kinks found, once for the whole curve.
    """
    if not config.h > 0:
        raise ValueError(
            f"h must be > 0 for the continuous baseline, got {config.h!r}"
        )
    edges = _outer_edges(config)
    base_sq, base_weights = _outer_rule(config, edges, _RATE_QUAD_ORDER)
    refined_sq, refined_weights = _outer_rule(config, edges, 2 * _RATE_QUAD_ORDER)
    # `derive_rf`'s big_c at each gamma_t: eta times the linear transmit SNR.
    big_c = derive_rf(config).eta * np.array([db_to_linear(g) for g in gamma_t_dbs])
    rows = _row_integrals(
        config, np.concatenate((base_sq, refined_sq)), big_c[:, None]
    )
    norm = 2.0 / (config.d_x * config.d_y * math.log(2.0))
    split = base_sq.size
    return [
        (
            norm * float(np.dot(row[:split], base_weights)),
            norm * float(np.dot(row[split:], refined_weights)),
        )
        for row in rows
    ]


def _settled_rate(config: SystemConfig, rates: tuple[float, float]) -> MetricResult:
    """The refined continuous rate at `config`, if the base order agrees with it.

    Disagreement beyond the relative tolerance raises, since it would mean
    the quadrature cannot be trusted at this parameter point.
    """
    base, refined = rates
    if abs(base - refined) > _RATE_QUAD_REL_TOL * max(abs(refined), 1e-300):
        raise NumericalDiagnosticError(
            f"continuous-rate quadrature did not settle: {base!r} vs {refined!r} "
            f"at {_RATE_QUAD_ORDER}/{2 * _RATE_QUAD_ORDER} nodes per piece in y"
        )
    return MetricResult(
        kind="continuous_rate",
        value=refined,
        params=_params_snapshot(config),
    )


def continuous_rate(config: SystemConfig) -> MetricResult:
    """Ergodic rate of the ideal continuously placed radiator, bits/s/Hz.

    The one-point curve: evaluated at the base quadrature order and at
    double the order, and checked by `_settled_rate`.
    """
    (rates,) = _continuous_rate_curve(config, (config.gamma_t_db,))
    return _settled_rate(config, rates)


def _efficiency_ratio(discrete: MetricResult, baseline: MetricResult) -> float:
    """Discrete ergodic rate over its continuous baseline, checked and clamped to 1."""
    if baseline.value <= 0.0:
        raise NumericalDiagnosticError("continuous baseline rate is not positive")
    if discrete.value == 0.0 and not discrete.flags:
        # A c_0k below about eps * h^2 is lost in c_0k + h^2: c_l returns
        # 0 there, and may clamp the rounding noise just above it to 0.
        raise NumericalDiagnosticError(
            "discrete rate rounds to 0: its SNR is below the closed form's precision"
        )
    ratio = discrete.value / baseline.value
    if ratio > 1.0 + 1e-9:
        raise NumericalDiagnosticError(
            f"discretization efficiency {ratio!r} exceeds 1: rate and baseline "
            "quadratures disagree"
        )
    return min(ratio, 1.0)


def pde(
    config: SystemConfig, layout: PaLayout, partition: RegionPartition
) -> MetricResult:
    """Discretization efficiency: discrete ergodic rate over the continuous one."""
    discrete = ergodic_rate(config, layout, partition)
    return MetricResult(
        kind="pde",
        value=_efficiency_ratio(discrete, continuous_rate(config)),
        params=_params_snapshot(config, m=layout.m),
        flags=discrete.flags,
    )
