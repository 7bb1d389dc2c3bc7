"""Serving-region boundaries and the rectangular partition of the room.

Between two adjacent antennas the set of floor positions where both give
equal SNR is a circular arc; its circle is returned by boundary_circle and
sampled by exact_boundary_x. Because the arc is nearly vertical for
typical geometries, each antenna's serving region is approximated by an
asymmetric rectangle [x_k - L_k, x_k + R_k] spanning the room width.
On the uniform grid the crossing of antennas k and k+1 in row y lies at
x_k plus an offset that does not depend on k, so every cut sits at x_k
plus one shared offset, chosen by a single one-dimensional search that
minimizes the misassigned area against the exact arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import gauss_legendre, golden_section
from .system import PaLayout, SystemConfig

__all__ = [
    "DegenerateBoundaryError",
    "ImaginaryRadiusError",
    "BoundaryCircle",
    "RegionPartition",
    "boundary_circle",
    "exact_boundary_x",
    "optimize_partition",
]

_PARTITION_TOL_M = 1e-6
_MISMATCH_QUAD_POINTS = 64


class DegenerateBoundaryError(ValueError):
    """The equal-SNR boundary is a vertical line, not a circle (alpha = 0)."""


class ImaginaryRadiusError(ValueError):
    """No real equal-SNR circle, or it misses the requested row.

    Raised when the attenuation-spacing-height combination leaves no real
    circle radius, or when the nearer antenna out-delivers its neighbor
    across the entire row at the requested |y|.
    """


@dataclass(frozen=True)
class BoundaryCircle:
    """Circle carrying the equal-SNR arc between antennas k and k+1."""

    center_x: float
    radius: float
    curvature: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius!r}")


@dataclass(frozen=True)
class RegionPartition:
    """Rectangular serving limits for each antenna.

    boundaries_b holds the cut abscissae b_0 = 0 < b_1 < ... < b_M = d_x;
    antenna k serves the strip [b_{k-1}, b_k], which is L_k to its left
    and R_k to its right.
    """

    boundaries_b: tuple[float, ...]
    left_limits: tuple[float, ...]
    right_limits: tuple[float, ...]

    def __post_init__(self):
        b = self.boundaries_b
        if len(b) != len(self.left_limits) + 1:
            raise ValueError("boundaries_b must have one more entry than the limits")
        if len(self.left_limits) != len(self.right_limits):
            raise ValueError("left and right limit lists must have equal length")
        if b[0] != 0.0:
            raise ValueError(f"first boundary must be 0, got {b[0]!r}")
        if any(hi <= lo for lo, hi in zip(b, b[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if any(v <= 0 for v in self.left_limits + self.right_limits):
            raise ValueError("all serving limits must be positive")
        span = b[-1] - b[0]
        total = sum(self.left_limits) + sum(self.right_limits)
        if abs(total - span) > 1e-9 * max(1.0, span):
            raise ValueError(
                f"serving limits sum to {total!r}, expected the room length {span!r}"
            )


def boundary_circle(config: SystemConfig, layout: PaLayout, k: int) -> BoundaryCircle:
    """Circle of equal SNR between antennas k and k+1.

    Only defined for positive attenuation; at alpha = 0 the locus is the
    vertical midline and DegenerateBoundaryError is raised instead.
    """
    if not 1 <= k <= layout.m - 1:
        raise IndexError(f"cut index k={k} outside 1..{layout.m - 1}")
    if config.alpha == 0.0:
        raise DegenerateBoundaryError(
            "equal-SNR boundary is a vertical midline at alpha = 0"
        )
    delta = layout.delta
    # In q = e^(-alpha delta) and w = 1 - q, not e^(alpha delta), which
    # overflows once alpha * delta passes about 709; q only underflows
    # towards 0, where no circle is left.
    q = math.exp(-config.alpha * delta)
    w = -math.expm1(-config.alpha * delta)
    center_x = layout.x_k[k - 1] + delta * (1.0 + q / w)
    radius_sq = delta * delta * q / (w * w) - config.h * config.h
    if radius_sq <= 0.0:
        raise ImaginaryRadiusError(
            f"no real equal-SNR circle: spacing {delta} m and height {config.h} m "
            f"at alpha = {config.alpha} leave radius^2 = {radius_sq}"
        )
    radius = math.sqrt(radius_sq)
    return BoundaryCircle(center_x=center_x, radius=radius, curvature=1.0 / radius)


def _boundary_offset(config: SystemConfig, delta: float, y: float) -> float:
    """Offset from x_k of the equal-SNR crossing of antennas k and k+1 in row y.

    The same for every k of a grid with spacing delta. It is inf where the
    equal-SNR circle misses row y: antenna k wins the whole row there.
    """
    dist_sq = y * y + config.h * config.h
    # q and w as in boundary_circle, overflow-free at any alpha * delta.
    q = math.exp(-config.alpha * delta)
    w = -math.expm1(-config.alpha * delta)
    disc = q * delta * delta - w * w * dist_sq
    if disc <= 0.0:
        # Equivalent to |y| >= circle radius.
        return math.inf
    return (delta * delta + w * dist_sq) / (delta + math.sqrt(disc))


def exact_boundary_x(
    config: SystemConfig, layout: PaLayout, k: int, y: float
) -> float:
    """Abscissa where antennas k and k+1 deliver equal SNR at height y.

    Solves the equal-SNR quadratic in closed form, arranged so no
    catastrophic cancellation occurs for small alpha (the alpha = 0 limit
    degenerates smoothly to the midpoint). The crossing usually falls
    between the two antennas, but when the spacing is small relative to
    the lateral distance the attenuation advantage of the nearer-to-feed
    antenna pushes it at or past the farther one; the true crossing is
    returned either way, and the partition optimizer clamps its cuts to
    the strip separately.
    """
    if not 1 <= k <= layout.m - 1:
        raise IndexError(f"cut index k={k} outside 1..{layout.m - 1}")
    if abs(y) > config.d_y / 2.0:
        raise ValueError(f"|y| = {abs(y)} exceeds the half-width {config.d_y / 2.0}")
    x_k = layout.x_k[k - 1]
    offset = _boundary_offset(config, layout.delta, y)
    if math.isinf(offset):
        raise ImaginaryRadiusError(
            f"antenna {k} out-delivers antenna {k + 1} along the whole row at "
            f"|y| = {abs(y)} with alpha = {config.alpha}: the equal-SNR circle "
            "does not reach that height"
        )
    return x_k + offset


def optimize_partition(config: SystemConfig, layout: PaLayout) -> RegionPartition:
    """Rectangular partition whose cuts best match the exact arcs.

    Every interior cut sits at x_k plus one offset shared by all k. The
    offset minimizes the y-integrated horizontal deviation between a
    vertical cut and the exact equal-SNR arc (the misassigned area),
    evaluated with a fixed 64-point Gauss-Legendre rule so results are
    deterministic. The objective is convex in the offset, so one
    golden-section search over (0, delta) finds the minimum to 1e-6 m.
    In a row the equal-SNR circle misses, antenna k wins the whole row,
    so that row's sample is the strip end delta; any sample at or beyond
    the strip end gives the same minimizer. With one antenna or no
    attenuation the offset is delta/2 (the midpoint) without a search.

    Args:
        config: scenario.
        layout: antenna grid to partition the room for.

    Returns:
        RegionPartition with cuts pinned to the room edges.
    """
    m = layout.m
    delta = layout.delta
    if m == 1 or config.alpha == 0.0:
        offset = delta / 2.0
    else:
        y_nodes, y_weights = gauss_legendre(
            _MISMATCH_QUAD_POINTS, -config.d_y / 2.0, config.d_y / 2.0
        )
        samples = [_boundary_offset(config, delta, float(y)) for y in y_nodes]
        samples = [delta if math.isinf(s) else s for s in samples]

        def mismatch(b: float) -> float:
            return sum(w * abs(s - b) for w, s in zip(y_weights, samples))

        offset = golden_section(mismatch, 0.0, delta, tol=_PARTITION_TOL_M)
    return RegionPartition(
        boundaries_b=(0.0, *(x_k + offset for x_k in layout.x_k[:-1]), config.d_x),
        left_limits=(layout.x_k[0],) + (delta - offset,) * (m - 1),
        right_limits=(offset,) * (m - 1) + (config.d_x - layout.x_k[-1],),
    )
