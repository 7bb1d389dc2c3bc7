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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .numerics import gauss_legendre, leggauss_cached
from .regions import RegionPartition
from .specfun import ti2
from .system import (
    PaLayout,
    SystemConfig,
    UserPosition,
    _antenna_scale,
    _continuous_candidates,
    _continuous_kinks,
    _continuous_snr,
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

# Above this ratio of x to delta^2 the grouped special-function form of
# i_j loses precision to cancellation, so i_j is summed from the
# arctangent's alternating series instead; there each term is at most
# 1e-4 of the one before it, so six terms reach machine precision.
_IJ_DIRECT_RATIO = 1e4
_IJ_SERIES_TERMS = 6

# At or below this ratio of c_0k to h^2, c_l takes its kernel difference
# from the slope at the midpoint instead. Against a log1p quadrature of
# the defining integral both ways were within 1e-9 there (width 0.001 to
# 100, d_y 2 to 10, h 1 to 3); further down the difference cancels, to a
# relative error of 1e-5 at 1e-8 * h^2 with width 100.
_C_L_SLOPE_RATIO = 1e-4

_RATE_QUAD_ORDER = 128
_RATE_QUAD_REL_TOL = 1e-6
# Grid points evaluated at once by the continuous-rate quadrature: 32 rows
# at order 128, 16 at order 256. One whole order-256 grid would hold each
# temporary at 0.5 MB and raise the peak memory of a sweep by about 16%.
_RATE_QUAD_BLOCK_POINTS = 4096


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
    snap = asdict(config)
    snap.update(extra)
    return snap


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


def _c0k_values(config: SystemConfig, layout: PaLayout) -> tuple[list[float], bool]:
    """Attenuated SNR scale per antenna, clamped against exp underflow.

    Returned as Python floats, the type the scalar kernels take.
    """
    positions = np.asarray(layout.x_k)
    clamped = config.alpha * positions > _UNDERFLOW_EXPONENT
    values = np.where(clamped, sys.float_info.min, _antenna_scale(config, positions))
    return values.tolist(), bool(clamped.any())


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
    for k in range(layout.m):
        # Squared horizontal reach at the threshold; negative means even a
        # user directly under antenna k is in outage.
        a_0k = c0k[k] / gamma_thr - h_sq
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


def i_i(x: float, delta_width: float, d_y: float) -> float:
    """Log-kernel building block of the conditional rate.

    Closed form of the integral of delta_width * ln(delta_width^2 + x + y^2)
    for y from 0 to d_y/2.
    """
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x!r}")
    d_sq = delta_width * delta_width
    root = math.sqrt(d_sq + x)
    return (
        0.5 * delta_width * d_y * math.log(d_y * d_y / 4.0 + d_sq + x)
        - delta_width * d_y
        + 2.0 * delta_width * root * math.atan(d_y / (2.0 * root))
    )


def i_j(x: float, delta_width: float, d_y: float) -> float:
    """Arctangent-kernel building block of the conditional rate.

    Integral of 2*sqrt(x + y^2)*arctan(delta_width / sqrt(x + y^2)) for y
    from 0 to Y = d_y/2. Up to x = 1e4 * delta_width^2 it is a closed form
    in ti2, grouped against cancellation. Beyond, where that form would
    lose roughly x * eps, the arctangent's series is integrated term by
    term: 2*delta*Y + sum over n >= 1 of (-1)^n * 2*delta^(2n+1) / (2n+1)
    * J_n, with J_n the integral of (x + y^2)^(-n) over the same range.
    """
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x!r}")
    d_sq = delta_width * delta_width
    if x > _IJ_DIRECT_RATIO * d_sq:
        half = 0.5 * d_y
        sqrt_x = math.sqrt(x)
        inv_corner_sq = 1.0 / (x + half * half)
        # J_1, then J_{n+1} = (Y / (x + Y^2)^n + (2n - 1) J_n) / (2n x).
        j_n = math.atan(half / sqrt_x) / sqrt_x
        inv_corner_pow = 1.0
        delta_pow = delta_width
        total = 2.0 * delta_width * half
        for n in range(1, _IJ_SERIES_TERMS + 1):
            delta_pow *= d_sq
            total += (-1) ** n * 2.0 * delta_pow / (2 * n + 1) * j_n
            inv_corner_pow *= inv_corner_sq
            j_n = (half * inv_corner_pow + (2 * n - 1) * j_n) / (2 * n * x)
        return total
    corner = math.sqrt(x + d_y * d_y / 4.0)
    root = math.sqrt(x + d_sq)
    edge = 0.5 * delta_width * d_y - delta_width * root * math.atan(
        d_y / (2.0 * root)
    )
    core = 0.5 * d_y * corner * math.atan(delta_width / corner)
    return core + edge + x * _kernel_slope(x, delta_width, d_y)


def _kernel_slope(x: float, delta_width: float, d_y: float) -> float:
    """d(i_i + i_j)/dx: the integral of atan(delta_width / s) / s, s = sqrt(x + y^2).

    y runs from 0 to d_y/2. Up to x = 1e4 * delta_width^2 it is the closed
    form pi/2 * A + ti2(b e^-A) - ti2(b e^A), A = asinh(d_y / (2 sqrt(x))),
    b = sqrt(x) / (sqrt(x + delta^2) + delta); beyond, the arctangent's
    series: sum over n >= 1 of (-1)^(n-1) * delta^(2n-1) / (2n-1) * J_n,
    with `i_j`'s J_n.
    """
    d_sq = delta_width * delta_width
    sqrt_x = math.sqrt(x)
    if x > _IJ_DIRECT_RATIO * d_sq:
        # i_j's J_n recursion, repeated rather than shared: a shared helper
        # made i_j's series branch, 21,000 calls a pass of the m sweep to
        # 100 antennas, about 2 us a call slower (2.7 to 4.8 us).
        half = 0.5 * d_y
        inv_corner_sq = 1.0 / (x + half * half)
        j_n = math.atan(half / sqrt_x) / sqrt_x
        inv_corner_pow = 1.0
        delta_pow = delta_width
        total = 0.0
        for n in range(1, _IJ_SERIES_TERMS + 1):
            total += (-1) ** (n - 1) * delta_pow / (2 * n - 1) * j_n
            delta_pow *= d_sq
            inv_corner_pow *= inv_corner_sq
            j_n = (half * inv_corner_pow + (2 * n - 1) * j_n) / (2 * n * x)
        return total
    a_upper = math.asinh(d_y / (2.0 * sqrt_x))
    b_minus = sqrt_x / (math.sqrt(x + d_sq) + delta_width)
    return (
        0.5 * math.pi * a_upper
        + ti2(b_minus * math.exp(-a_upper))
        - ti2(b_minus * math.exp(a_upper))
    )


def c_l(delta_width: float, c_0k: float, config: SystemConfig) -> float:
    """Conditional ergodic rate over one sub-rectangle, bits/s/Hz.

    Mean of log2(1 + c_0k / (eps^2 + y^2 + h^2)) with eps uniform on
    [0, delta_width] and y uniform on [-d_y/2, d_y/2].
    """
    if not delta_width > 0:
        raise ValueError(f"delta_width must be > 0, got {delta_width!r}")
    if not c_0k > 0:
        raise ValueError(f"c_0k must be > 0, got {c_0k!r}")
    h_sq = config.h * config.h
    if not h_sq > 0:
        raise ValueError("the rate closed form requires a strictly positive height h")
    d_y = config.d_y
    shifted = c_0k + h_sq
    if shifted == h_sq:
        # c_0k is lost in c_0k + h^2, so the difference of kernels would
        # be rounding noise, not a rate.
        return 0.0
    if c_0k <= _C_L_SLOPE_RATIO * h_sq:
        # The kernel difference would cancel. c_0k times the kernels' slope
        # at the midpoint h^2 + c_0k / 2 is within about (c_0k / h^2)^2 / 12
        # of it, relative: the slope's second derivative over the slope is at
        # most 2 / h^4.
        total = c_0k * _kernel_slope(h_sq + 0.5 * c_0k, delta_width, d_y)
    else:
        total = (
            i_i(shifted, delta_width, d_y)
            + i_j(shifted, delta_width, d_y)
            - i_i(h_sq, delta_width, d_y)
            - i_j(h_sq, delta_width, d_y)
        )
    return max(0.0, 2.0 * total / (delta_width * d_y * math.log(2.0)))


def ergodic_rate(
    config: SystemConfig, layout: PaLayout, partition: RegionPartition
) -> MetricResult:
    """Spatially averaged rate of the discrete system, bits/s/Hz."""
    c0k, clamped = _c0k_values(config, layout)
    total = 0.0
    for k in range(layout.m):
        left = partition.left_limits[k]
        right = partition.right_limits[k]
        total += left * c_l(left, c0k[k], config)
        total += right * c_l(right, c0k[k], config)
    return MetricResult(
        kind="ergodic_rate",
        value=total / config.d_x,
        params=_params_snapshot(config, m=layout.m),
        flags=(_UNDERFLOW_FLAG,) if clamped else (),
    )


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


def _outer_rule(config: SystemConfig, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of `order` points over y in [0, d_y/2].

    Rows with alpha^2 (y^2 + h^2) >= 1 are served from the feed end
    throughout, so the y integrand has a kink at |y| = sqrt(1/alpha^2 - h^2).
    When that lies inside the half width, each side of it gets half the
    nodes.
    """
    half_width = config.d_y / 2.0
    alpha_sq, h_sq = config.alpha * config.alpha, config.h * config.h
    if not alpha_sq * h_sq < 1.0 < alpha_sq * (h_sq + half_width * half_width):
        return gauss_legendre(order, 0.0, half_width)
    kink = math.sqrt(1.0 / alpha_sq - h_sq)
    near = gauss_legendre(order // 2, 0.0, kink)
    far = gauss_legendre(order - order // 2, kink, half_width)
    return np.concatenate((near[0], far[0])), np.concatenate((near[1], far[1]))


def _continuous_rate_quad(
    config: SystemConfig, order: int, gamma_t_dbs: tuple[float, ...]
) -> list[float]:
    """Tensor-product Gauss-Legendre average of the continuous-placement rate.

    One rate per transmit SNR in `gamma_t_dbs`. The optimal placement does
    not depend on the transmit SNR, which only scales big_c, so the SNR is
    computed once, at `config`, and point i's rate is the mean of
    log2(1 + snr * C(gamma_i) / C(config)), C = `derive_rf`'s big_c; at
    config's own gamma_t the scale is exactly 1.

    The outer axis covers half the room width (the integrand is even in
    y; `_outer_rule`); the inner axis splits where the optimal placement
    leaves the feed end, at t1, and where the feed end takes over again in
    long rooms (`_continuous_kinks`), which keeps every piece analytic.
    Each piece is evaluated in blocks of whole rows, so no temporary grows
    past _RATE_QUAD_BLOCK_POINTS entries whatever the order.
    """
    d_x = config.d_x
    big_c = derive_rf(config).big_c
    scales = [
        derive_rf(replace(config, gamma_t_db=g)).big_c / big_c
        for g in gamma_t_dbs
    ]
    y_nodes, y_weights = _outer_rule(config, order)
    split, takeover = _continuous_kinks(config, y_nodes**2 + config.h * config.h)
    # gauss_legendre's arithmetic per row, so each node matches the rule
    # it would build for that row's piece.
    nodes, weights = leggauss_cached(order)
    rows_per_block = max(1, _RATE_QUAD_BLOCK_POINTS // order)
    inner = np.zeros((len(scales), order))
    for lo, hi in (
        (np.zeros(order), split),
        (split, takeover),
        (takeover, np.full(order, d_x)),
    ):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        live = np.flatnonzero(hi > lo)
        for start in range(0, live.size, rows_per_block):
            rows = live[start : start + rows_per_block]
            x = mid[rows, None] + half[rows, None] * nodes
            y = np.broadcast_to(y_nodes[rows, None], x.shape)
            snr = _continuous_snr(config, x, y)
            rate = np.empty_like(snr)
            for i, scale in enumerate(scales):
                np.multiply(snr, scale, out=rate)
                rate += 1.0
                np.log2(rate, out=rate)
                inner[i, rows] += half[rows] * (rate @ weights)
    return [
        2.0 * float(np.dot(y_weights, point)) / (d_x * config.d_y) for point in inner
    ]


def _continuous_rate_curve(
    config: SystemConfig, gamma_t_dbs: tuple[float, ...]
) -> list[tuple[float, float]]:
    """(base, refined) continuous rates at each transmit SNR, from one geometry.

    The base order and its double, for `_settled_rate` to compare.
    """
    return list(
        zip(
            _continuous_rate_quad(config, _RATE_QUAD_ORDER, gamma_t_dbs),
            _continuous_rate_quad(config, 2 * _RATE_QUAD_ORDER, gamma_t_dbs),
        )
    )


def _settled_rate(config: SystemConfig, rates: tuple[float, float]) -> MetricResult:
    """The refined continuous rate at `config`, if the base order agrees with it.

    Disagreement beyond the relative tolerance raises, since it would mean
    the quadrature cannot be trusted at this parameter point.
    """
    base, refined = rates
    if abs(base - refined) > _RATE_QUAD_REL_TOL * max(abs(refined), 1e-300):
        raise NumericalDiagnosticError(
            f"continuous-rate quadrature did not settle: {base!r} vs {refined!r} "
            f"at orders {_RATE_QUAD_ORDER}/{2 * _RATE_QUAD_ORDER}"
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
