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
`_sub_rectangle_means`: it builds the pass's sub-rectangles as whole
arrays once, with no numpy call per point, feeds them to the kernels in
fixed slices, and sums each point's terms left to right, so a batched
outage or rate is bit for bit its point's own. `c_l` and the continuous
baseline share one y rule over closed-form rows, `_y_rule`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import _float_or_array, _piecewise, gauss_legendre, leggauss_cached
from .regions import RegionPartition
from .specfun import _dilog, _horner, ti2
from .system import (
    PaLayout,
    SystemConfig,
    UserPosition,
    _continuous_candidates,
    _continuous_kinks,
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

# Up to this span, where a closed form cancels, an 8-node Gauss-Legendre
# rule (`_centered_rule`) takes over: alpha L of the baseline's middle piece
# and, in the rate kernels, 2 min(A, B) and asinh u. The integrands' nearest
# singularities, at +-i pi and +-i pi/2, bound the rules' errors by about
# (span / 4 pi)^16 = 4e-23 and (span / 2 pi)^16 = 3e-18; the closed forms
# lose at most about eps ln(w) / (alpha L), 30 eps and 13 eps beyond.
_RULE_SPAN = 0.5
_RULE_NODES = 8

# c_l keeps its kernel difference where the difference's rounding is below
# this share of it, the accuracy asked of a rate, and takes the y rule
# elsewhere: in 88,282 of 200,000 random sub-rectangles (log-uniform width
# 1e-3 to 100, c_0k 1e-14 to 1e10, h 0.1 to 20 and d_y 0.1 to 100).
_C_L_TRUST = 1e-10

# Sub-rectangles per kernel call of the outage and rate passes, which
# bounds the kernels' arrays. The rate pass along m = 1..100 at d_x = 30
# (10,100 sub-rectangles) took 7.8-8.7 ms in slices of 512, 4.4-4.7 ms in
# slices of 2,048 and 4.1-4.3 ms as one slice (quartiles of 60 repeats on
# a shared 2-vCPU x86-64 machine), with heap peaks of 0.63, 1.10 and 2.84
# MB (tracemalloc). A CLI process of the three antenna_scaling ops then
# peaked at 32.3, 32.6 and 34.3 MB resident: one slice costs 5% more.
_RATE_BLOCK = 2048

# Gauss-Legendre nodes per piece of the continuous baseline's y rule at the
# base order; the self-check compares it with twice as many.
_RATE_QUAD_ORDER = 64
_RATE_QUAD_REL_TOL = 1e-6
# Widest piece of that rule in u = asinh(y / h). In 10 m rooms with h from
# 1e-14 to 1.5e-154 the two orders' largest relative gap was 4e-14 with
# pieces cut to 32 or 48, 5e-13 at 64, 4e-10 at 128 and 8e-6 uncut (340
# wide at h = 1e-150): 32 stays clear of where the gap starts to grow.
_RATE_PIECE_WIDTH = 32.0


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


def _centered_rule(f, mid, half):
    """Integral of f over [mid - half, mid + half] by the 8-node Gauss-Legendre rule, on 1-D
    arrays: nodes at mid + half * node keep a narrow width's digits, summed node by node."""
    nodes, weights = leggauss_cached(_RULE_NODES)
    total = 0.0
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        total = total + weight * f(mid + half * node)
    return half * total


def _outage_past_width(a_0k, width, d_y):
    root = np.sqrt(np.maximum(a_0k - d_y * d_y / 4.0, 0.0))
    arc = np.arcsin(np.minimum(d_y / (2.0 * np.sqrt(a_0k)), 1.0))
    return 1.0 - (a_0k / (d_y * width)) * arc - root / (2.0 * width)


def _outage_past_depth(a_0k, width, d_y):
    root = np.sqrt(np.maximum(a_0k - width * width, 0.0))
    arc = np.arcsin(np.minimum(width / np.sqrt(a_0k), 1.0))
    return 1.0 - (a_0k / (d_y * width)) * arc - root / d_y


# 1/(2k + 1)! for k = 1..9: theta - sin(theta) = sum of (-1)^(k+1) theta^(2k+1)
# / (2k + 1)!. The segment's theta spans two points of a quarter circle, so
# theta <= pi/2, where the tenth term is 4.0e-16 of the first; on [1, pi/2] the
# nine terms by Horner's rule are within 6.7e-16 relative of 50-digit mpmath.
_SEGMENT_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 10))


def _exact_square(v):
    """v * v as hi + lo exactly: Dekker's product on Veltkamp's halves of v (2^27 + 1)."""
    top = v * 134217729.0 - (v * 134217729.0 - v)
    hi, bottom = v * v, v - top
    return hi, ((top * top - hi) + 2.0 * top * bottom) + bottom * bottom


def _outage_short_of_corner(a_0k, width, d_y):
    # The far corner's own area, not one minus the covered share, so the value keeps its
    # digits as the corner shrinks. With Y = d_y/2 and short = width^2 + Y^2 - a_0k, the circle
    # leaves the quarter rectangle at (x0, Y) and (width, y1). The corner is the right triangle
    # on those two points, whose legs are short/(width + x0) and short/(Y + y1), less the
    # circular segment (a_0k/2)(theta - sin theta) on its hypotenuse. The squares are exact
    # pairs, and a_0k less the larger one's hi is exact (a_0k is at most twice it), so short
    # keeps its digits however small.
    half = d_y / 2.0
    (depth_sq, depth_lo), (half_sq, half_lo) = _exact_square(width), _exact_square(half)
    over = a_0k - np.maximum(depth_sq, half_sq)
    short = np.maximum(np.minimum(depth_sq, half_sq) - over + (depth_lo + half_lo), 0.0)
    x0, y1 = np.sqrt((a_0k - half_sq) - half_lo), np.sqrt((a_0k - depth_sq) - depth_lo)
    theta = np.arctan2(a_0k * short / (width * half + x0 * y1), x0 * width + half * y1)
    theta_sq = theta * theta
    segment = theta * theta_sq * _horner(_SEGMENT_SERIES, -theta_sq)
    triangle = (short / (width + x0)) * (short / (half + y1))
    return 0.5 * (triangle - a_0k * segment) / (width * half)


# `p_l`'s regimes, by where the threshold circle lies against the sub-rectangle.
_OUTAGE_REGIMES = (
    lambda *_: 1.0,  # no reach: all of it in outage
    lambda a_0k, width, d_y: 1.0 - math.pi * a_0k / (2.0 * (d_y * width)),  # inside it
    _outage_past_depth,  # out through its far (depth) side only
    _outage_past_width,  # out through its width side only
    _outage_short_of_corner,  # out through both sides, short of the far corner
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
    Where the circle leaves through both sides short of the far corner,
    the outage is that corner's own area, so it keeps its relative digits
    as it falls towards 0. Floats give a float; arrays broadcast, and each
    element is evaluated by its own regime only.
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

    alpha and big_c broadcast against positions, so one pass over many
    points takes each antenna's own. Exponents beyond _UNDERFLOW_EXPONENT, and
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


def _kernel_terms(x, w, d_y):
    """log, edge and arc, with i_i = log - 2 edge and i_j = edge + arc; arrays broadcast.

    log = w d_y/2 ln(d_y^2/4 + w^2 + x); edge = w root (u - atan u), root = sqrt(x + w^2),
    u = d_y / (2 root) and the rule on tanh(t) sinh(t) over [0, asinh u] up to asinh u =
    _RULE_SPAN; arc = d_y/2 corner atan(w / corner) + x `_kernel_slope`, corner^2 = x + d_y^2/4.
    """
    x, w, d_y = _arrays(x, w, d_y)
    root, corner = np.sqrt(x + w * w), np.sqrt(x + d_y * d_y / 4.0)
    u = np.asarray(d_y / (2.0 * root))
    gap = _piecewise(np.arcsinh(u) <= _RULE_SPAN, (lambda u: u - np.arctan(u), _gap_rule), u)
    log = 0.5 * w * d_y * np.log(d_y * d_y / 4.0 + w * w + x)
    arc = 0.5 * d_y * corner * np.arctan(w / corner) + x * _kernel_slope(x, w, d_y)
    return log, w * root * gap, arc


def _gap_rule(u):
    reach = np.arcsinh(u)
    return _centered_rule(lambda t: np.tanh(t) * np.sinh(t), 0.5 * reach, 0.5 * reach)


def i_i(x, delta_width, d_y):
    """Log-kernel building block of the conditional rate.

    Integral of delta_width * ln(delta_width^2 + x + y^2) for y from 0 to d_y/2: the
    log term less twice `i_j`'s edge (`_kernel_terms`). Floats give a float; arrays broadcast.
    """
    _require_positive("x", x)
    log, edge, _ = _kernel_terms(x, delta_width, d_y)
    return _float_or_array(log - 2.0 * edge)


def i_j(x, delta_width, d_y):
    """Arctangent-kernel building block of the conditional rate.

    Integral of 2*sqrt(x + y^2)*arctan(delta_width / sqrt(x + y^2)) for y from 0 to d_y/2:
    the edge `i_i` shares plus a core and x `_kernel_slope` (`_kernel_terms`), each positive
    and held to rounding in narrow rooms too. Floats give a float; arrays broadcast.
    """
    _require_positive("x", x)
    _, edge, arc = _kernel_terms(x, delta_width, d_y)
    return _float_or_array(edge + arc)


def _gd_closed(mid, half):
    low, high = ti2(np.stack((np.exp(-(mid + half)), np.exp(half - mid))))
    return 0.5 * math.pi * half + low - high


def _gd_rule(mid, half):
    return 0.5 * _centered_rule(lambda s: 2.0 * np.arctan(np.tanh(0.5 * s)), mid, half)


def _kernel_slope(x, delta_width, d_y):
    """d(i_i + i_j)/dx: the integral of atan(delta_width / s) / s, s = sqrt(x + y^2).

    y runs from 0 to d_y/2. With y = sqrt(x) sinh t, A = asinh(d_y / (2
    sqrt(x))) and B = asinh(delta_width / sqrt(x)), it is the integral of
    atan(sinh B / cosh t) = (gd(B + t) + gd(B - t)) / 2 over t in [0, A],
    gd(s) = atan(sinh s) being odd: half the integral of gd >= 0 over
    [mid - half, mid + half], mid = max(A, B), half = min(A, B). That is
    pi/2 half + ti2(e^-(mid + half)) - ti2(e^-(mid - half)), whose ti2 cancel
    up to 2 half = _RULE_SPAN: there, per element, the rule on gd = 2
    atan(tanh(s/2)). Floats give a float; arrays broadcast.
    """
    x, delta_width, d_y = _arrays(x, delta_width, d_y)
    root = np.sqrt(x)
    a, b = np.arcsinh(0.5 * d_y / root), np.arcsinh(delta_width / root)
    mid, half = np.maximum(a, b), np.minimum(a, b)
    return _float_or_array(_piecewise(2.0 * half <= _RULE_SPAN, (_gd_closed, _gd_rule), mid, half))


def _conditional_rates(delta_width, c_0k, h_sq, d_y) -> np.ndarray:
    """`c_l` for arrays of widths, scales, squared heights and room widths.

    2 / (width d_y ln 2) times (i_i + i_j)(c_0k + h^2) - (i_i + i_j)(h^2), each end
    log - edge + arc (`_kernel_terms`), where eps times its terms at both ends and
    the log's rounding is below _C_L_TRUST of it. Elsewhere (it cancels, c_0k is
    lost in h^2, or a kernel overflows) `_rule_rates`.
    """
    _require_positive("delta_width", delta_width)
    _require_positive("c_0k", c_0k)
    if not np.all(np.asarray(h_sq) > 0):
        raise ValueError("the rate closed form requires a strictly positive height h")
    w, c_0k, h_sq, d_y = _arrays(delta_width, c_0k, h_sq, d_y)
    x = np.stack((c_0k + h_sq, h_sq))  # both ends in one call
    with np.errstate(over="ignore", invalid="ignore"):
        log, edge, arc = _kernel_terms(x, w, d_y)
        total = np.subtract(*(log - edge + arc))  # the c_0k + h^2 end less the h^2 end
        # The terms are held to eps of their size but for log's D = d_y^2/4 + w^2 + x,
        # whose two products and two sums round by eps/2 of D at most: ln D may be off
        # by 2 eps, log by w d_y eps per end, even where ln D and so log are near 0.
        size = (np.abs(log) + edge + arc).sum(axis=0) + 2.0 * w * d_y
        rule = ~(np.finfo(float).eps * size < _C_L_TRUST * total)
        rates = np.array(2.0 * np.where(rule, 0.0, total) / (w * d_y * math.log(2.0)))
    if rule.any():
        rates[rule] = _rule_rates(w[rule], c_0k[rule], h_sq[rule], d_y[rule])
    return np.maximum(0.0, rates)


def _rule_rates(w, c_0k, h_sq, d_y) -> np.ndarray:
    """`c_l` for 1-D arrays: rows `_feed_integral` over the width, y by the baseline's rule.

    Its pieces in u = asinh(y / h) break at y = width and y = sqrt(c_0k);
    those of every sub-rectangle are one set of arrays, summed per owner.
    """
    h = np.sqrt(h_sq)
    u_end = np.arcsinh(0.5 * d_y / h)
    breaks = np.arcsinh(np.column_stack((w, np.sqrt(c_0k))) / h[:, None])
    edges = np.column_stack((np.zeros(h.size), np.minimum(breaks, u_end[:, None]), u_end))
    dist_sq, weights, at = _y_rule(h, np.sort(edges, axis=1), _RATE_QUAD_ORDER)
    means = _feed_integral(w[at], dist_sq, np.sqrt(dist_sq), c_0k[at]) / w[at]
    return 2.0 * np.bincount(at, means * weights, h.size) / (d_y * math.log(2.0))


def c_l(delta_width, c_0k, config: SystemConfig):
    """Conditional ergodic rate over one sub-rectangle, bits/s/Hz.

    Mean of log2(1 + c_0k / (eps^2 + y^2 + h^2)) with eps uniform on
    [0, delta_width] and y uniform on [-d_y/2, d_y/2]. Floats give a
    float; arrays of widths and scales broadcast.
    """
    return _float_or_array(
        _conditional_rates(delta_width, c_0k, config.h * config.h, config.d_y)
    )


def _sub_rectangle_means(
    points: Sequence[tuple[SystemConfig, PaLayout, RegionPartition]], term
) -> list[tuple[float, tuple[str, ...]]]:
    """Per (config, layout, partition), term's width-weighted sum over d_x, and flags.

    The one place that turns points into sub-rectangles. The pass's arrays
    are built once, with no numpy call per point: c_0k per antenna
    (`_c0k_scales`), then per sub-rectangle, left and right of each antenna
    in antenna order, its width and owning point. The sub-rectangles of
    positive width go to term(widths, c_0k, h_sq, d_y, gamma_thr) in
    consecutive slices of _RATE_BLOCK, which bounds the kernels' arrays;
    one of zero width (a cut at the strip end) adds nothing. A slice may
    split a point: each term is its own element's. np.bincount adds each
    point's width-weighted terms left to right, as a loop over its antennas
    would; a point any of whose scales was clamped is flagged.
    """
    if not points:
        return []
    configs, layouts, partitions = zip(*points)
    fields = [(c.alpha, c.big_c, c.h * c.h, c.d_y, c.d_x) for c in configs]
    alpha, big_c, h_sq, d_y, d_x = np.array(fields).T
    gamma_thr = np.array([db_to_linear(c.gamma_thr_db) for c in configs])
    antenna_owner = np.repeat(np.arange(len(points)), [lay.m for lay in layouts])
    positions = np.concatenate([lay.x_k for lay in layouts])
    c0k, clamped = _c0k_scales(alpha[antenna_owner], big_c[antenna_owner], positions)
    widths = np.empty(2 * positions.size)
    widths[0::2] = np.concatenate([p.left_limits for p in partitions])
    widths[1::2] = np.concatenate([p.right_limits for p in partitions])
    live = widths > 0.0
    owner, widths = np.repeat(antenna_owner, 2)[live], widths[live]
    c0k = np.repeat(c0k, 2)[live]
    weighted = np.empty(widths.size)
    for start in range(0, widths.size, _RATE_BLOCK):
        part = slice(start, start + _RATE_BLOCK)
        at = owner[part]
        weighted[part] = widths[part] * term(
            widths[part], c0k[part], h_sq[at], d_y[at], gamma_thr[at]
        )
    totals = np.bincount(owner, weights=weighted, minlength=len(points)) / d_x
    clamps = np.bincount(antenna_owner, weights=clamped).tolist()
    return list(zip(totals.tolist(), [(_UNDERFLOW_FLAG,) if n else () for n in clamps]))


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


def _middle_rule(start_snr, decay):
    """Mean of ln(1 + w0 e^(-decay s)) over s in [0, 1]: its integral (`_centered_rule`)."""
    return _centered_rule(lambda s: np.log1p(start_snr * np.exp(-decay * s)), 0.5, 0.5)


def _middle_dilog(start_snr, decay):
    return (_dilog(-start_snr * np.exp(-decay)) - _dilog(-start_snr)) / decay


def _middle_integral(alpha: float, length, start_snr):
    """Integral of ln(1 + w0 e^(-alpha s)) for s from 0 to length: the middle piece.

    The radiator follows the user at p = x - t1, so its SNR decays from
    w0 = C / (t1^2 + d^2) at x = t1. The integral is
    [Li2(-w0) - Li2(-w0 e^(-alpha L))] / alpha; up to alpha L =
    _RULE_SPAN, where that cancels, L times an 8-node
    Gauss-Legendre mean (`_middle_rule`; at alpha = 0, L ln(1 + w0)).
    """
    start_snr, decay = np.broadcast_arrays(start_snr, alpha * np.asarray(length))
    mean = _piecewise(decay <= _RULE_SPAN, (_middle_dilog, _middle_rule), start_snr, decay)
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


def _onset_reach(a: float) -> float:
    """ln q* of the row where the feed end starts winning at x = d_x, for a = alpha d_x > 1.

    With s = sqrt(1 - q), t1 = q / (alpha (1 + s)) and t1^2 + d^2 =
    2q / (alpha^2 (1 + s)), so the log of p*'s SNR over the feed end's at d_x
    is g = ln((a^2 + q)(1 + s) / (2q)) - a + q / (1 + s). It falls while
    t1 < d_x, so on all of q < 1 when a > 1: from +inf at q = 0 to
    ln((a^2 + 1) / 2) - a + 1 < 0 at q = 1, one root. Bisection in ln q over
    (-a - 10, 0), where g > 2 ln a + 9 at the low end, keeps a q* that
    underflows (a past about 720). As g is written here nothing overflows,
    and near a = 1, where q* nears 1, each term is small: q* keeps 1e-15.
    """

    def g(log_q):
        short = -math.expm1(log_q)  # 1 - q
        s = math.sqrt(short)
        # ln((a^2 + q) / 2) = 2 ln a + ln(1 - (a^2 - q) / (2 a^2)); q / (1 + s) = 1 - s.
        spread = (a - 1.0) / a * ((a + 1.0) / a) + short / a / a
        low = 2.0 * math.log(a) + math.log1p(-0.5 * spread) + math.log1p(s)
        return low - log_q - (a - 1.0) - s

    lo, hi = -a - 10.0, 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    return lo


def _outer_edges(config: SystemConfig, big_c: Sequence[float]) -> np.ndarray:
    """Edges of the baseline's y rule, ascending in u = asinh(y / h) over [0, d_y/2].

    The row integral has a kink at three values of q = alpha^2 (y^2 + h^2):
    q = 1, where rows become feed-served throughout; q = a (2 - a) with
    a = alpha d_x, where t1 reaches d_x (only for a <= 1); and, for a > 1,
    the onset q* where the feed end starts winning at d_x (`_onset_reach`).
    Each maps to u = acosh(sqrt(q) / (alpha h)), taken from ln q. The row's
    SNR changes scale at y^2 = big_c, for each big_c of the curve's points.
    The values in (0, u_end) are the inner edges.
    """
    h, alpha = config.h, config.alpha
    u_end = math.asinh(0.5 * config.d_y / h)
    kinks = [math.asinh(math.sqrt(c) / h) for c in big_c]
    if alpha > 0.0:
        a = alpha * config.d_x
        if a <= 1.0:  # ln(a (2 - a)), also where a underflows
            reach = math.log(alpha) + math.log(config.d_x) + math.log(2.0 - a)
        else:
            reach = _onset_reach(a)
        with np.errstate(over="ignore"):
            ratio = np.exp(0.5 * np.array([0.0, reach]) - math.log(alpha) - math.log(h))
        kinks += np.arccosh(np.maximum(ratio, 1.0)).tolist()
    return np.array(sorted({0.0, *(u for u in kinks if 0.0 < u < u_end), u_end}))


def _y_rule(h, edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared row distances d^2 = y^2 + h^2, weights and rows of y rules, node by node.

    One rule per row of ascending `edges` in u = asinh(y / h), h one height or
    one per row. Each gap is cut as np.linspace(lo, hi, n, endpoint=False) cuts
    it, into n equal pieces no wider than _RATE_PIECE_WIDTH (a gap of 0 gives
    none), and each piece takes `order` Gauss-Legendre nodes, dy = h cosh(u) du:
    this resolves the 1/(y^2 + h^2) peak, in a 10 m room to h = 1.5e-154.
    """
    parts = np.ceil(np.diff(edges, axis=1).ravel() / _RATE_PIECE_WIDTH).astype(int)
    start, stop, n = (np.repeat(v, parts) for v in (edges[:, :-1], edges[:, 1:], parts))
    step = (stop - start) / n
    index = np.arange(n.size) - np.repeat(np.cumsum(parts) - parts, parts)
    hi = np.where(index + 1 < n, (index + 1) * step + start, stop)
    owner = np.repeat(np.arange(parts.size) // (edges.shape[1] - 1), parts)
    u, weights = gauss_legendre(order, index * step + start, hi)
    dist = (np.broadcast_to(h, len(edges))[owner, None] * np.cosh(u)).ravel()
    return dist * dist, weights.ravel() * dist, np.repeat(owner, order)


def _continuous_rates(configs: Sequence[SystemConfig]) -> list[tuple[float, float]]:
    """(base, refined) continuous rates at each config, one geometry per curve.

    The rate is the mean over the room of log2(1 + SNR) of a radiator
    placed optimally for each user: the integral over half the room width
    (it is even in y) of closed-form rows (`_row_integrals`). The y rule
    (`_y_rule`) has _RATE_QUAD_ORDER nodes per piece at the base order
    and twice as many refined, for `_settled_rate` to compare. Transmit
    SNR only scales big_c, so the configs that differ only in gamma_t_db
    are one curve (`system._unscaled`): both rules' rows are laid out, and
    their kinks found, once for the curve (`_outer_edges`), and each config
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
        # No row's SNR exceeds big_c / h^2, under the waveguide, and the y
        # rule ends at u = asinh(d_y / (2h)). A config where either ratio is
        # past the largest float keeps nan rates.
        if not 0.5 * config.d_y / config.h < math.inf:
            continue
        members = [i for i in members if configs[i].big_c / config.h / config.h < math.inf]
        big_c = np.array([configs[i].big_c for i in members])
        edges = _outer_edges(config, big_c)[None, :]
        base_sq, base_weights, _ = _y_rule(config.h, edges, _RATE_QUAD_ORDER)
        refined_sq, refined_weights, _ = _y_rule(config.h, edges, 2 * _RATE_QUAD_ORDER)
        rows = _row_integrals(config, np.concatenate((base_sq, refined_sq)), big_c[:, None])
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
            "continuous rate not computed: its peak SNR big_c / h^2 or its d_y / h overflows"
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
    if discrete.value < sys.float_info.min:  # subnormal: digits lost
        if discrete.flags:  # its c_0k was clamped: the flagged 0 it stands for
            return 0.0
        raise NumericalDiagnosticError(
            f"discrete rate {discrete.value!r} is below the smallest normal float"
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
