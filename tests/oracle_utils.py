"""Independent reference implementations used to cross-check the closed forms.

Everything here is deliberately dumb: adaptive quadrature of defining
integrals, dense grid searches, high-precision special functions from
mpmath. Slow but trustworthy, and sharing no code with the package, except
`per_point_rates`: it checks only how the rate pass assembles its points,
so it calls the package's kernels one point at a time.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
from scipy import integrate, optimize

from pinchpas import SystemConfig, UserPosition, metrics


def outage_indicator_quad(delta_width: float, a_0k: float, d_y: float) -> float:
    """P[u^2 + y^2 > a_0k], u ~ U[0, delta_width], y ~ U[-d_y/2, d_y/2].

    The y-section of the indicator is an interval whose length is plain
    geometry; the remaining u-integral is adaptive quadrature with the
    kink locations passed as breakpoints.
    """
    if a_0k <= 0.0:
        return 1.0
    half = d_y / 2.0

    def covered(u):
        rem = a_0k - u * u
        if rem <= 0.0:
            return 0.0
        return 2.0 * min(half, math.sqrt(rem))

    kinks = set()
    for t in (a_0k, a_0k - half * half):
        if t > 0.0 and math.sqrt(t) < delta_width:
            kinks.add(math.sqrt(t))
    val, _ = integrate.quad(
        covered,
        0.0,
        delta_width,
        points=sorted(kinks) or None,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return 1.0 - val / (delta_width * d_y)


def p_l_scalar(delta_width: float, a_0k: float, d_y: float) -> float:
    """Conditional outage probability over one sub-rectangle, one float at a time.

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


def ii_defining_quad(x: float, delta_width: float, d_y: float) -> float:
    # integral over y in [0, d_y/2] of delta * ln(delta^2 + x + y^2)
    val, _ = integrate.quad(
        lambda y: delta_width * math.log(delta_width * delta_width + x + y * y),
        0.0,
        d_y / 2.0,
        limit=200,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return val


def ij_defining_quad(x: float, delta_width: float, d_y: float) -> float:
    # integral over y in [0, d_y/2] of 2 sqrt(x + y^2) atan(delta / sqrt(x + y^2))
    def f(y):
        r = math.sqrt(x + y * y)
        return 2.0 * r * math.atan(delta_width / r)

    val, _ = integrate.quad(f, 0.0, d_y / 2.0, limit=200, epsabs=0.0, epsrel=1e-13)
    return val


def rate_kernel_quad(delta_width: float, c_0k: float, d_y: float, h: float) -> float:
    """Mean of log2(1 + c_0k / (u^2 + y^2 + h^2)) by 2-D adaptive quadrature."""

    def f(y, u):
        return math.log1p(c_0k / (u * u + y * y + h * h))

    val, _ = integrate.dblquad(
        f, 0.0, delta_width, 0.0, d_y / 2.0, epsabs=1e-12, epsrel=1e-12
    )
    return 2.0 * val / (delta_width * d_y * math.log(2.0))


def rate_kernel_scaled_quad(delta_width: float, c_0k: float, d_y: float, h: float) -> float:
    """`rate_kernel_quad` to a relative tolerance however small c_0k is.

    The integrand log1p(c_0k / q) / c_0k stays of order 1 / q as c_0k
    shrinks, so the absolute tolerance can be 0.
    """

    def f(y, u):
        return math.log1p(c_0k / (u * u + y * y + h * h)) / c_0k

    val, _ = integrate.dblquad(
        f, 0.0, delta_width, 0.0, d_y / 2.0, epsabs=0.0, epsrel=1e-12
    )
    return 2.0 * c_0k * val / (delta_width * d_y * math.log(2.0))


def rate_kernel_mpmath(delta_width: float, c_0k: float, d_y: float, h: float) -> float:
    """`rate_kernel_quad` to about 1e-30: the u integral exactly, y by mpmath.

    For b > 0, the integral of ln(u^2 + b) over [0, w] is
    w ln(w^2 + b) - 2w + 2 sqrt(b) atan(w / sqrt(b)); the integrand in u is
    the difference of that at b = y^2 + h^2 + c_0k and b = y^2 + h^2, which
    40 digits hold without loss. The y integral is tanh-sinh quadrature.
    """
    with mpmath.workdps(40):
        w, c, half_y, h_sq = (
            mpmath.mpf(v) for v in (delta_width, c_0k, d_y / 2.0, h * h)
        )

        def antiderivative(b):
            root = mpmath.sqrt(b)
            return w * mpmath.log(w * w + b) - 2 * w + 2 * root * mpmath.atan(w / root)

        val = mpmath.quad(
            lambda y: antiderivative(y * y + h_sq + c) - antiderivative(y * y + h_sq),
            [0, half_y],
        )
        return float(val / (w * half_y * mpmath.log(2)))


def ij_mpmath(x: float, delta_width: float, d_y: float) -> float:
    """`ij_defining_quad` to about 1e-30: tanh-sinh quadrature at 40 digits.

    The integrand 2 s atan(delta / s), s = sqrt(x + y^2), is smooth on
    [0, d_y/2] and needs no cancellation-prone regrouping at 40 digits.
    """
    with mpmath.workdps(40):
        x, w = mpmath.mpf(x), mpmath.mpf(delta_width)

        def f(y):
            s = mpmath.sqrt(x + y * y)
            return 2 * s * mpmath.atan(w / s)

        return float(mpmath.quad(f, [0, mpmath.mpf(d_y) / 2]))


def ti2_quad(z: float) -> float:
    """Inverse-tangent integral by quadrature of its defining integrand.

    The tail above 1 is integrated after the substitution t = e^s, which
    keeps the integrand bounded and the interval short even for huge z.
    """

    def f(t):
        return math.atan(t) / t if t != 0.0 else 1.0

    if z <= 1.0:
        val, _ = integrate.quad(f, 0.0, z, limit=500, epsabs=0.0, epsrel=1e-13)
        return val
    head, _ = integrate.quad(f, 0.0, 1.0, limit=500, epsabs=0.0, epsrel=1e-13)
    tail, _ = integrate.quad(
        lambda s: math.atan(math.exp(s)),
        0.0,
        math.log(z),
        limit=500,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return head + tail


def ti2_mpmath(z: float) -> float:
    # Ti2(z) = Im Li2(i z), valid on the whole positive axis.
    with mpmath.workdps(40):
        return float(mpmath.im(mpmath.polylog(2, 1j * mpmath.mpf(z))))


def simulation_users(
    seed: int, n_samples: int, chunk_size: int, d_x: float, d_y: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every user of a simulation run, each chunk drawn in one piece.

    Chunk i's generator is Philox keyed by the seed and jumped i times; it
    draws all of the chunk's x in [0, d_x), then all of its y in
    [-d_y/2, d_y/2). The chunks are concatenated in order.
    """
    xs, ys = [], []
    for index, start in enumerate(range(0, n_samples, chunk_size)):
        take = min(chunk_size, n_samples - start)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        xs.append(rng.uniform(0.0, d_x, size=take))
        ys.append(rng.uniform(-d_y / 2.0, d_y / 2.0, size=take))
    return np.concatenate(xs), np.concatenate(ys)


def brute_force_best_x(config: SystemConfig, user: UserPosition) -> float:
    """Maximize the movable-radiator SNR along [0, d_x] by grid refinement.

    Three rounds of a 20001-point grid leave the winning abscissa pinned
    to about 1e-11 m, far inside the 1e-6 comparisons the tests make.
    """
    d_sq = user.y_m * user.y_m + config.h * config.h
    lo, hi = 0.0, config.d_x
    x_best = 0.0
    for _ in range(3):
        grid = np.linspace(lo, hi, 20001)
        snr = np.exp(-config.alpha * grid) / ((grid - user.x_m) ** 2 + d_sq)
        i = int(np.argmax(snr))
        x_best = float(grid[i])
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[min(i + 1, grid.size - 1)])
    return x_best


def discrete_rate_quad(config: SystemConfig, layout, partition) -> float:
    """Ergodic rate of the discrete system by direct 2-D quadrature per region."""
    big_c = config.big_c
    total = 0.0
    for k in range(layout.m):
        c0 = big_c * math.exp(-config.alpha * layout.x_k[k])
        for width in (partition.left_limits[k], partition.right_limits[k]):
            if width <= 0.0:
                continue
            total += width * rate_kernel_quad(width, c0, config.d_y, config.h)
    return total / config.d_x


def outage_prob_quad(config: SystemConfig, layout, partition) -> float:
    """Outage probability by the indicator oracle applied per sub-rectangle."""
    big_c = config.big_c
    thr = 10.0 ** (config.gamma_thr_db / 10.0)
    total = 0.0
    for k in range(layout.m):
        c0 = big_c * math.exp(-config.alpha * layout.x_k[k])
        a0 = c0 / thr - config.h * config.h
        for width in (partition.left_limits[k], partition.right_limits[k]):
            if width <= 0.0:
                continue
            total += width * outage_indicator_quad(width, a0, config.d_y)
    return min(1.0, max(0.0, total / config.d_x))


def continuous_rate_quad(config: SystemConfig) -> float:
    """Continuous-placement rate by nested adaptive quadrature.

    The radiator sits at the stationary point x - t1 of
    exp(-alpha p) / ((x - p)^2 + d^2) when that lies on the waveguide,
    and the feed end p = 0 is always a contender. For x below t1 the
    stationary point is off the waveguide and the feed end serves, so the
    inner integral is split there, and again where the feed end wins back
    the far end of the row (brentq on the two SNRs' log-ratio, which falls
    through 0 once past its peak at (1 + sqrt(1 - alpha^2 d^2)) / alpha);
    when alpha d >= 1 the SNR falls with p everywhere and the feed end
    serves the whole row. The outer
    integral is split where a row's pieces change: at alpha^2 (y^2 + h^2)
    = 1, where t1 reaches d_x, and where the feed end starts winning again
    at x = d_x (`_takeover_onsets`).
    """
    big_c = config.big_c
    alpha, d_x, h = config.alpha, config.d_x, config.h

    def snr(p, x, d_sq):
        return big_c * math.exp(-alpha * p) / ((x - p) ** 2 + d_sq)

    def row(y):
        t1 = _feedward_offset(alpha, y * y + h * h)
        d_sq = y * y + h * h

        def f(x):
            best = snr(0.0, x, d_sq)
            if x > t1:
                best = max(best, snr(x - t1, x, d_sq))
            return math.log1p(best) / math.log(2.0)

        cut = min(t1, d_x)
        takeover = d_x
        if cut < d_x and snr(d_x - t1, d_x, d_sq) < snr(0.0, d_x, d_sq):
            peak = (1.0 + math.sqrt(1.0 - alpha * alpha * d_sq)) / alpha
            takeover = optimize.brentq(
                lambda x: math.log(snr(x - t1, x, d_sq) / snr(0.0, x, d_sq)),
                min(peak, d_x), d_x, xtol=1e-15, rtol=1e-15,
            )
        total = 0.0
        for lo, hi in ((0.0, cut), (cut, takeover), (takeover, d_x)):
            if hi > lo:
                val, _ = integrate.quad(f, lo, hi, limit=200, epsabs=0.0, epsrel=1e-13)
                total += val
        return total

    half_width = config.d_y / 2.0
    kinks = [y for y in _row_kinks(config) if 0.0 < y < half_width]
    val, _ = integrate.quad(
        row, 0.0, half_width, points=kinks or None, limit=200, epsabs=0.0, epsrel=1e-13
    )
    return 2.0 * val / (d_x * config.d_y)


def _feedward_offset(alpha: float, d_sq: float) -> float:
    # Offset t1 of the SNR's interior maximum; inf when there is none.
    if alpha * alpha * d_sq >= 1.0:
        return math.inf
    return alpha * d_sq / (1.0 + math.sqrt(1.0 - alpha * alpha * d_sq))


def _row_kinks(config: SystemConfig) -> list:
    """Each y > 0 where the set of x pieces of a row changes.

    Where alpha^2 (y^2 + h^2) = 1 the interior maximum vanishes; where
    t1 = d_x, at y^2 + h^2 = d_x (2 - alpha d_x) / alpha, it leaves the
    room; and where ln((d_x^2 + d^2) / (t1^2 + d^2)) = alpha (d_x - t1) the
    feed end starts or stops beating it at x = d_x. Those last roots are
    bracketed on a 2001-point grid in y and refined by brentq.
    """
    alpha, d_x, h = config.alpha, config.d_x, config.h
    if alpha == 0.0 or alpha * h >= 1.0:
        return []  # t1 = 0 in every row, or no row has an interior maximum
    kinks = [math.sqrt(1.0 / (alpha * alpha) - h * h)]
    if alpha * d_x < 1.0 and d_x * (2.0 - alpha * d_x) / alpha > h * h:
        kinks.append(math.sqrt(d_x * (2.0 - alpha * d_x) / alpha - h * h))
    end = min(kinks + [config.d_y / 2.0])

    def gain(y):
        d_sq = y * y + h * h
        t1 = _feedward_offset(alpha, d_sq)
        return math.log((d_x * d_x + d_sq) / (t1 * t1 + d_sq)) - alpha * (d_x - t1)

    grid = np.linspace(0.0, end, 2001)[:-1]
    signs = [gain(y) < 0.0 for y in grid]
    for i in range(grid.size - 1):
        if signs[i] != signs[i + 1]:
            kinks.append(optimize.brentq(gain, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15))
    return sorted(kinks)


def golden_section_scalar(f, a: float, b: float, tol: float) -> float:
    """Golden-section search of one bracket, one scalar evaluation per step.

    Runs the fixed number of iterations needed to shrink the bracket below
    tol and returns the bracket midpoint.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    if b <= a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    span = b - a
    if span <= tol:
        return 0.5 * (a + b)
    n_iter = int(math.ceil(math.log(tol / span) / math.log(inv_phi)))
    c = b - inv_phi * span
    d = a + inv_phi * span
    fc = f(c)
    fd = f(d)
    for _ in range(n_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def boundary_offset_scalar(config: SystemConfig, delta: float, y: float) -> float:
    """Offset from x_k of the equal-SNR crossing in row y, one row in Python floats.

    inf where the equal-SNR circle misses the row.
    """
    dist_sq = y * y + config.h * config.h
    q = math.exp(-config.alpha * delta)
    w = -math.expm1(-config.alpha * delta)
    disc = q * delta * delta - w * w * dist_sq
    if disc <= 0.0:
        return math.inf
    return (delta * delta + w * dist_sq) / (delta + math.sqrt(disc))


def partition_offset_scalar(config: SystemConfig, layout) -> float:
    """The partition's shared cut offset, one partition at a time.

    64 Gauss-Legendre rows in y, each sample a Python float (the strip end
    delta where the circle misses the row), the misassigned area summed by
    a left-to-right loop, and a scalar golden-section search to 1e-6 m.
    One antenna or no attenuation gives the midpoint delta / 2.
    """
    delta = layout.delta
    if layout.m == 1 or config.alpha == 0.0:
        return delta / 2.0
    nodes, base_weights = np.polynomial.legendre.leggauss(64)
    lo, hi = -config.d_y / 2.0, config.d_y / 2.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    weights = (half * base_weights).tolist()
    samples = [boundary_offset_scalar(config, delta, y) for y in (mid + half * nodes).tolist()]
    samples = [delta if math.isinf(s) else s for s in samples]

    def mismatch(b: float) -> float:
        total = 0.0
        for w, s in zip(weights, samples):
            total += w * abs(s - b)
        return total

    return golden_section_scalar(mismatch, 0.0, delta, tol=1e-6)


def mixed_batch(seed: int) -> list:
    """A shuffled batch of (config, m) points, as a sweep run never makes one.

    Two rooms (d_x = 30 and a 12 x 6 m room), several m (1 up to 40, past
    the simulator's candidate-window switch), a gamma_t axis in each room,
    an alpha axis (alpha = 0 among it, where no partition is searched) and
    one point given twice. The order comes from `seed`.
    """
    rooms = (
        (SystemConfig(d_x=30.0), (1, 2, 10, 40)),
        (SystemConfig(d_x=12.0, d_y=6.0, gamma_thr_db=15.0), (1, 3)),
    )
    points = []
    for room, counts in rooms:
        points += [
            (replace(room, gamma_t_db=g), m) for g in (92.0, 97.0, 103.5) for m in counts
        ]
        points += [(replace(room, alpha=a), counts[-1]) for a in (0.0, 0.02, 0.2)]
    points.append(points[4])
    order = np.random.default_rng(seed).permutation(len(points))
    return [points[i] for i in order]


def per_point_rates(points) -> list:
    """(value, flags) of the discrete rate at each (config, layout, partition), point by point.

    The rate pass as it was assembled before a run's arrays were built
    whole: per point its c_0k scales (`_c0k_scales`), its sub-rectangles
    left and right of each antenna (`column_stack`), one
    `_conditional_rates` call, and the width-weighted terms summed left to
    right by np.cumsum, over d_x.
    """
    rates = []
    for config, layout, partition in points:
        c0k, clamped = metrics._c0k_scales(config.alpha, config.big_c, np.asarray(layout.x_k))
        widths = np.column_stack((partition.left_limits, partition.right_limits)).ravel()
        terms = widths * metrics._conditional_rates(
            widths, np.repeat(c0k, 2), config.h * config.h, config.d_y
        )
        flags = ("c0k_underflow_clamp",) if clamped.any() else ()
        rates.append((float(np.cumsum(terms)[-1]) / config.d_x, flags))
    return rates
