"""Closed-form outage probability, ergodic rate, and discretization efficiency.

The outage probability and ergodic rate of the discrete-antenna system are
assembled per antenna from conditional expressions over the left and right
sub-rectangles of its serving region. The continuous baseline places a
radiating point at the per-user optimal waveguide position and integrates
the resulting rate over the uniform user distribution; the discretization
efficiency is the ratio of the two rates. Each metric takes a batch of
points in one call (`_outages`, `_ergodic_rates`, `_continuous_rates`,
`_pdes`) that finds the work its points share, and the public one-point
functions are their one-point cases. Outage and rate share one assembly,
`_sub_rectangle_means`: it builds each run of points' sub-rectangles as
whole arrays, with no numpy call per point, and sums each point's terms
left to right, so a batched outage or rate is bit for bit its point's own.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import _float_or_array, _piecewise, leggauss_cached
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
    _unscaled,
    db_to_linear,
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

# Sub-rectangles per run of the outage and rate passes, which bounds the
# run's kernel arrays. The rate pass along m = 1..100 at d_x = 30 (10,100
# sub-rectangles) took 13-21 ms in runs of 512, 6-10.5 ms in runs of 2,048
# and 5.6-8.9 ms as one run (quartiles over repeats on a shared 2-vCPU
# machine), with heap peaks of 0.22, 0.73 and 2.8 MB (tracemalloc). A CLI
# process of the three antenna_scaling ops then peaked at 32.5, 32.5 and
# 34.5 MB resident: the one run costs 6% more memory to save about 1 ms.
_RATE_BLOCK = 2048

# Gauss-Legendre nodes per piece of the continuous baseline's y rule at the
# base order; the self-check compares it with twice as many.
_RATE_QUAD_ORDER = 64
_RATE_QUAD_REL_TOL = 1e-6


class NumericalDiagnosticError(RuntimeError):
    """A numerical self-check failed; results would not be trustworthy."""


@dataclass(frozen=True)
class MetricResult:
    """A computed scalar metric, with the numerical flags raised computing it."""

    kind: str
    value: float
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


def _outage_past_width(a_0k, width, d_y):
    root = np.sqrt(np.maximum(a_0k - d_y * d_y / 4.0, 0.0))
    arc = np.arcsin(np.minimum(d_y / (2.0 * np.sqrt(a_0k)), 1.0))
    return 1.0 - (a_0k / (d_y * width)) * arc - root / (2.0 * width)


def _outage_past_depth(a_0k, width, d_y):
    # Also the depth-side-only regime's form: there 4 a_0k <= d_y^2, so the
    # width side's terms are exact zeros and the value is bit for bit the
    # depth-only expression.
    sqrt_a = np.sqrt(a_0k)
    root_w = np.sqrt(np.maximum(4.0 * a_0k - d_y * d_y, 0.0))
    root_d = np.sqrt(np.maximum(a_0k - width * width, 0.0))
    arc = np.arcsin(np.minimum(width / sqrt_a, 1.0))
    arc = arc - np.arcsin(np.minimum(root_w / (2.0 * sqrt_a), 1.0))
    return 1.0 - (a_0k / (d_y * width)) * arc - root_w / (4.0 * width) - root_d / d_y


# `p_l`'s regimes, by where the threshold circle lies against the sub-rectangle.
_OUTAGE_REGIMES = (
    lambda *_: 1.0,  # no reach: all of it in outage
    lambda a_0k, width, d_y: 1.0 - math.pi * a_0k / (2.0 * (d_y * width)),  # inside it
    _outage_past_depth,  # out through its far (depth) side only
    _outage_past_width,  # out through its width side only
    _outage_past_depth,  # out through both sides, short of the far corner
    lambda *_: 0.0,  # covering all of it
)


def p_l(delta_width, a_0k, d_y):
    """Conditional outage probability over one sub-rectangle.

    The user's offset along the waveguide is uniform on [0, delta_width]
    and the cross offset uniform on [-d_y/2, d_y/2]; outage occurs when
    the squared horizontal distance exceeds a_0k. The expression is a
    six-regime piecewise form depending on how the threshold circle of
    radius sqrt(a_0k) intersects the sub-rectangle; ties between regimes
    are routed to the lower-indexed branch (they agree by continuity).
    Floats give a float; arrays broadcast, and each element is evaluated
    by its own regime only.
    """
    _require_positive("delta_width", delta_width)
    _require_positive("d_y", d_y)
    delta_width, a_0k, d_y = _arrays(delta_width, a_0k, d_y)
    half_w_sq = d_y * d_y / 4.0
    depth_sq = delta_width * delta_width
    edges = (0.0, np.minimum(half_w_sq, depth_sq), half_w_sq, depth_sq, depth_sq + half_w_sq)
    regime = np.select([a_0k <= edge for edge in edges], range(5), 5)
    value = _piecewise(regime, _OUTAGE_REGIMES, a_0k, delta_width, d_y)
    return _float_or_array(np.minimum(1.0, np.maximum(0.0, value)))


def _c0k_scales(alpha, big_c, positions) -> tuple[np.ndarray, np.ndarray]:
    """Attenuated SNR scale big_c e^(-alpha x_k) per antenna, and where it was clamped.

    alpha and big_c broadcast against positions, so one run of points
    takes each antenna's own. Exponents beyond _UNDERFLOW_EXPONENT, and
    scales below the smallest normal float, give that float, marked in the
    second array.
    """
    scale = big_c * np.exp(-alpha * positions)
    clamped = (alpha * positions > _UNDERFLOW_EXPONENT) | (scale < sys.float_info.min)
    return np.where(clamped, sys.float_info.min, scale), clamped


def _arrays(*values) -> list[np.ndarray]:
    """The arguments as float arrays broadcast to one shape."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def _require_positive(name: str, value) -> None:
    """Raise a ValueError naming `name` unless every element of value is > 0."""
    array = np.asarray(value, dtype=float)
    bad = ~(array > 0)
    if bad.any():
        raise ValueError(f"{name} must be > 0, got {float(array[bad][0])!r}")


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
    # The slope comes first, so that none of the terms below is held
    # through it: its series is where a rate pass's heap peaks.
    slope = _kernel_slope(x, delta_width, d_y)
    corner = np.sqrt(x + d_y * d_y / 4.0)
    root = np.sqrt(x + delta_width * delta_width)
    edge = 0.5 * delta_width * d_y - delta_width * root * np.arctan(
        d_y / (2.0 * root)
    )
    core = 0.5 * d_y * corner * np.arctan(delta_width / corner)
    return core + edge + x * slope


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
    # delta times the sum of (-1)^n / (2n + 1) * K_n over the first
    # _IJ_SERIES_TERMS n >= 0, with K_n = delta^(2n) J_(n+1) and J_n the
    # integral of (x + y^2)^(-n) for y from 0 to Y = d_y/2: K_0 = J_1 in
    # closed form, then, with t = delta^2 / x <= 1e-4 on this branch,
    # K_n = (Y delta^(2n-2) / (x + Y^2)^n + (2n - 1) K_(n-1)) t / (2n).
    # No power of delta or multiple of x is formed, so none overflows.
    half = 0.5 * d_y
    sqrt_x = np.sqrt(x)
    d_sq = delta_width * delta_width
    t = d_sq / x
    corner_pow = 1.0 / (x + half * half)
    corner_ratio = d_sq * corner_pow
    k_n = np.arctan(half / sqrt_x) / sqrt_x
    total = k_n
    for n in range(1, _IJ_SERIES_TERMS):
        if n > 1:
            corner_pow = corner_pow * corner_ratio
        k_n = (half * corner_pow + (2 * n - 1) * k_n) * (t / (2 * n))
        total = total + (-1) ** n / (2 * n + 1) * k_n
    return delta_width * total


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
    with np.errstate(over="ignore"):  # a switch past the largest float: closed form
        series = x > _IJ_DIRECT_RATIO * delta_width * delta_width
    return _float_or_array(
        _piecewise(series, (_kernel_slope_closed, _kernel_slope_series), x, delta_width, d_y)
    )


def _conditional_rates(delta_width, c_0k, h_sq, d_y) -> np.ndarray:
    """`c_l` for arrays of widths, scales, squared heights and room widths."""
    _require_positive("delta_width", delta_width)
    _require_positive("c_0k", c_0k)
    if not np.all(np.asarray(h_sq) > 0):
        raise ValueError("the rate closed form requires a strictly positive height h")
    delta_width, c_0k, h_sq, d_y = _arrays(delta_width, c_0k, h_sq, d_y)
    # Past 2^1000 of width times d_y the kernels' integrals overflow, though
    # their mean does not: it is the same with lengths scaled by s and c_0k
    # and h^2 by s^2, and s = 2^-16 scales exactly. (The product is taken
    # with d_y / 2^24, which keeps it finite.)
    huge = delta_width * (d_y * 2.0**-24) > 2.0**976
    if huge.any():
        s = np.where(huge, 2.0**-16, 1.0)
        delta_width, d_y, c_0k, h_sq = delta_width * s, d_y * s, c_0k * s * s, h_sq * s * s
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
        # The arctangent kernel first, so that i_i's rows are not held
        # through its slope.
        arctan_part = _arctan_kernel(x, w, y)
        log_part = i_i(x, w, y)
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
    """Runs of consecutive points with at most _RATE_BLOCK sub-rectangles in all.

    A point has 2m sub-rectangles, so this bounds a run's kernel arrays.
    A point with more than _RATE_BLOCK of them is a run of its own.
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


def _sub_rectangle_means(
    points: Sequence[tuple[SystemConfig, PaLayout, RegionPartition]], term
) -> Iterator[tuple[float, tuple[str, ...]]]:
    """Per (config, layout, partition), term's width-weighted sum over d_x, and flags.

    The one place that turns points into sub-rectangles. The points are
    taken in runs (`_point_blocks`), and each run's arrays are built whole,
    with no numpy call per point: c_0k per antenna (`_c0k_scales`), then
    per sub-rectangle, left and right of each antenna in antenna order,
    its width, c_0k and its point's h^2, d_y and linear threshold, for one
    call term(widths, c_0k, h_sq, d_y, gamma_thr) on the sub-rectangles of
    positive width; one of zero width (a cut at the strip end) adds
    nothing. np.bincount adds each point's width-weighted terms left to
    right, as a loop over its antennas would; a point any of whose scales
    was clamped is flagged.
    """
    for block in _point_blocks(points):
        configs, layouts, partitions = zip(*block)
        fields = [(c.alpha, c.big_c, c.h * c.h, c.d_y, c.d_x) for c in configs]
        alpha, big_c, h_sq, d_y, d_x = np.array(fields).T
        gamma_thr = np.array([db_to_linear(c.gamma_thr_db) for c in configs])
        counts = [lay.m for lay in layouts]
        antenna_owner = np.repeat(np.arange(len(block)), counts)
        positions = np.concatenate([lay.x_k for lay in layouts])
        c0k, clamped = _c0k_scales(alpha[antenna_owner], big_c[antenna_owner], positions)
        widths = np.empty(2 * positions.size)
        widths[0::2] = np.concatenate([p.left_limits for p in partitions])
        widths[1::2] = np.concatenate([p.right_limits for p in partitions])
        live = widths > 0.0
        owner, widths = np.repeat(antenna_owner, 2)[live], widths[live]
        weighted = widths * term(
            widths, np.repeat(c0k, 2)[live], h_sq[owner], d_y[owner], gamma_thr[owner]
        )
        totals = np.bincount(owner, weights=weighted, minlength=len(block)) / d_x
        clamps = np.bincount(antenna_owner, weights=clamped).tolist()
        yield from zip(totals.tolist(), [(_UNDERFLOW_FLAG,) if n else () for n in clamps])


def _outage_terms(widths, c_0k, h_sq, d_y, gamma_thr):
    # Squared horizontal reach at the threshold; negative means even a user
    # directly under the antenna is in outage. A reach that overflows to inf
    # covers every sub-rectangle, so its outage is 0. h^2 is finite
    # (`SystemConfig`), so the reach is never inf - inf.
    with np.errstate(over="ignore"):
        a_0k = c_0k / gamma_thr - h_sq
    return p_l(widths, a_0k, d_y)


def _rate_terms(widths, c_0k, h_sq, d_y, _gamma_thr):
    return _conditional_rates(widths, c_0k, h_sq, d_y)


def _outages(
    points: Sequence[tuple[SystemConfig, PaLayout, RegionPartition]],
) -> list[MetricResult]:
    """Outage probability at each (config, layout, partition), in few kernel calls.

    Each point's conditional outages (`p_l`) over its sub-rectangles,
    weighted by width over d_x (`_sub_rectangle_means`), clamped to [0, 1].
    """
    return [
        MetricResult(kind="outage", value=min(1.0, max(0.0, value)), flags=flags)
        for value, flags in _sub_rectangle_means(points, _outage_terms)
    ]


def outage_probability(
    config: SystemConfig, layout: PaLayout, partition: RegionPartition
) -> MetricResult:
    """Probability that the best antenna's SNR falls below the threshold.

    Weighted sum of the conditional outage over each antenna's left and
    right sub-rectangles, the weights being the sub-rectangle widths as a
    fraction of the room length.
    """
    return _outages([(config, layout, partition)])[0]


def _ergodic_rates(
    points: Sequence[tuple[SystemConfig, PaLayout, RegionPartition]],
) -> list[MetricResult]:
    """Spatially averaged rate at each (config, layout, partition), in few kernel calls.

    Each point's conditional rates (`_conditional_rates`) over its
    sub-rectangles, weighted by width over d_x (`_sub_rectangle_means`).
    """
    return [
        MetricResult(kind="ergodic_rate", value=value, flags=flags)
        for value, flags in _sub_rectangle_means(points, _rate_terms)
    ]


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
        decay <= _MIDDLE_SERIES_SPAN, (_middle_dilog, _middle_series), start_snr, decay
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
    u_end (where t1 reaches d_x or stops being finite), are each narrowed
    to one root by four more rounds of 64 steps, to 64^-5 (1e-9) of u_end:
    the row integral leaves such a root like (y - y0)^2, so a breakpoint
    that far off costs the rule about its cube.
    """
    h, alpha, d_x = config.h, config.alpha, config.d_x

    def falls(u):
        dist = h * np.cosh(u)  # cosh(u)^2 overflows once d_y/(2h) passes 1.3e154
        dist_sq = dist * dist
        t1 = np.minimum(_feedward_offset(alpha, dist_sq), d_x)
        return _station_log_ratio(alpha, d_x, t1, dist_sq) < 0.0

    fractions = np.linspace(0.0, 1.0, 65)
    scan_end = u_end * (1.0 - 1e-6)
    grid, step = (scan_end * fractions)[None, :], scan_end / 64.0
    sign = falls(grid)
    bracket, index = np.nonzero(sign[:, 1:] != sign[:, :-1])
    for _ in range(4):
        grid = (grid[bracket, index])[:, None] + step * fractions
        step /= 64.0
        sign = falls(grid)
        # Near a root whose log-ratio is rounding noise the sign can flip
        # many times in one bracket; the bracket keeps only its first flip,
        # so the breakpoints never outnumber the first scan's.
        bracket, index = np.nonzero(sign[:, 1:] != sign[:, :-1])
        bracket, first = np.unique(bracket, return_index=True)
        index = index[first]
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


def _continuous_rates(configs: Sequence[SystemConfig]) -> list[tuple[float, float]]:
    """(base, refined) continuous rates at each config, one geometry per curve.

    The rate is the mean over the room of log2(1 + SNR) of a radiator
    placed optimally for each user: the integral over half the room width
    (it is even in y) of closed-form rows (`_row_integrals`). The y rule
    (`_outer_rule`) has _RATE_QUAD_ORDER nodes per piece at the base order
    and twice as many refined, for `_settled_rate` to compare. Transmit
    SNR only scales big_c, so the configs that differ only in gamma_t_db
    are one curve (`system._unscaled`): both rules' rows are laid out, and
    their kinks found, once at the curve's first config, and each config
    scales them by its own big_c.
    """
    curves: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        curves.setdefault(_unscaled(config), []).append(i)
    rates: list[tuple[float, float]] = [(math.nan, math.nan)] * len(configs)
    for members in curves.values():
        config = configs[members[0]]
        if not config.h > 0:
            raise ValueError(
                f"h must be > 0 for the continuous baseline, got {config.h!r}"
            )
        # No row's SNR exceeds big_c / h^2, under the waveguide. A config
        # where that is past the largest float keeps nan rates.
        members = [i for i in members if configs[i].big_c / config.h / config.h < math.inf]
        edges = _outer_edges(config)
        base_sq, base_weights = _outer_rule(config, edges, _RATE_QUAD_ORDER)
        refined_sq, refined_weights = _outer_rule(config, edges, 2 * _RATE_QUAD_ORDER)
        big_c = np.array([configs[i].big_c for i in members])
        rows = _row_integrals(
            config, np.concatenate((base_sq, refined_sq)), big_c[:, None]
        )
        norm = 2.0 / (config.d_x * config.d_y * math.log(2.0))
        split = base_sq.size
        for i, row in zip(members, rows):
            rates[i] = (
                norm * float(np.dot(row[:split], base_weights)),
                norm * float(np.dot(row[split:], refined_weights)),
            )
    return rates


def _settled_rate(rates: tuple[float, float]) -> MetricResult:
    """The refined continuous rate, if the base order agrees with it.

    Disagreement beyond the relative tolerance raises, since it would mean
    the quadrature cannot be trusted at this parameter point; so does a
    rate `_continuous_rates` could not form.
    """
    base, refined = rates
    if math.isnan(refined):
        raise NumericalDiagnosticError(
            "continuous rate not computed: its peak SNR big_c / h^2 is past the largest float"
        )
    if abs(base - refined) > _RATE_QUAD_REL_TOL * max(abs(refined), 1e-300):
        raise NumericalDiagnosticError(
            f"continuous-rate quadrature did not settle: {base!r} vs {refined!r} "
            f"at {_RATE_QUAD_ORDER}/{2 * _RATE_QUAD_ORDER} nodes per piece in y"
        )
    return MetricResult(kind="continuous_rate", value=refined)


def continuous_rate(config: SystemConfig) -> MetricResult:
    """Ergodic rate of the ideal continuously placed radiator, bits/s/Hz.

    The one-config case of `_continuous_rates`: evaluated at the base
    quadrature order and at double the order, and checked by `_settled_rate`.
    """
    return _settled_rate(_continuous_rates([config])[0])


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


def _pdes(
    points: Sequence[tuple[SystemConfig, PaLayout, RegionPartition]],
) -> list[MetricResult | NumericalDiagnosticError]:
    """`pde` at each (config, layout, partition), or the error its self-check raised.

    One `_ergodic_rates` pass for every point, then one continuous
    baseline per distinct config (it does not depend on m), then each
    point's checked ratio. A failed check costs only its own point.
    """
    rates = _ergodic_rates(points)
    configs = list(dict.fromkeys(config for config, _, _ in points))
    baselines = dict(zip(configs, _continuous_rates(configs)))
    results: list[MetricResult | NumericalDiagnosticError] = []
    for (config, _, _), discrete in zip(points, rates):
        try:
            ratio = _efficiency_ratio(discrete, _settled_rate(baselines[config]))
        except NumericalDiagnosticError as exc:
            results.append(exc)
            continue
        results.append(MetricResult(kind="pde", value=ratio, flags=discrete.flags))
    return results


def pde(
    config: SystemConfig, layout: PaLayout, partition: RegionPartition
) -> MetricResult:
    """Discretization efficiency: discrete ergodic rate over the continuous one."""
    (result,) = _pdes([(config, layout, partition)])
    if isinstance(result, NumericalDiagnosticError):
        raise result
    return result
