"""Serving-region boundaries and the rectangular partition of the room.

Between two adjacent antennas the set of floor positions where both give
equal SNR is a circular arc. Because the arc is nearly vertical for
typical geometries, each antenna's serving region is approximated by an
asymmetric rectangle [x_k - L_k, x_k + R_k] spanning the room width.
On the uniform grid the crossing of antennas k and k+1 in row y lies at
x_k plus an offset that does not depend on k, so every cut sits at x_k
plus one shared offset, chosen by a one-dimensional search that
minimizes the misassigned area against the exact arcs. A partition is
that offset, its layout and d_x; its cuts are arrays derived from them.
A batch of (config, layout) pairs finds each distinct partition once,
all in one lockstep search, each bit for bit its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import _float_or_array, _read_only, gauss_legendre, golden_section
from .system import PaLayout, SystemConfig

__all__ = ["RegionPartition", "optimize_partition"]

_PARTITION_TOL_M = 1e-6
_MISMATCH_QUAD_POINTS = 64


@dataclass(frozen=True)
class RegionPartition:
    """Rectangular serving limits for each antenna: its layout, one offset, d_x.

    Every interior cut sits at x_k plus the offset. The read-only arrays
    derived from the three are boundaries_b, the cuts b_0 = 0 < b_1 < ...
    < b_M = d_x, and left_limits and right_limits: antenna k serves the
    strip [b_{k-1}, b_k], which is L_k to its left and R_k to its right.
    """

    layout: PaLayout
    offset: float
    d_x: float

    def __post_init__(self):
        m, delta = self.layout.m, self.layout.delta
        # offset = delta leaves each inner left limit 0: in a room of about
        # 1e12 m or more, 1e-6 m is below one ulp of delta, and the search
        # ends there.
        if m > 1 and not 0.0 < self.offset <= delta:
            raise ValueError(f"offset must lie in (0, delta = {delta!r}], got {self.offset!r}")
        if abs(self.d_x - m * delta) > 1e-9 * max(1.0, m * delta):
            raise ValueError(f"d_x must be m * delta = {m * delta!r}, got {self.d_x!r}")

    @cached_property
    def boundaries_b(self) -> np.ndarray:
        return _read_only(np.hstack((0.0, self.layout.x_k[:-1] + self.offset, self.d_x)))

    @cached_property
    def left_limits(self) -> np.ndarray:
        inner = np.full(self.layout.m - 1, self.layout.delta - self.offset)
        return _read_only(np.hstack((self.layout.x_k[0], inner)))

    @cached_property
    def right_limits(self) -> np.ndarray:
        inner = np.full(self.layout.m - 1, self.offset)
        return _read_only(np.hstack((inner, self.d_x - self.layout.x_k[-1])))


def _boundary_offset(alpha, h, delta, y):
    """Offset from x_k of the equal-SNR crossing of antennas k and k+1 in row y.

    The same for every k of a grid with attenuation alpha, height h and
    spacing delta. It is inf where the equal-SNR circle misses row y: antenna
    k wins the whole row there. Arrays of grids broadcast against y, so
    `_optimize_partitions` samples all its columns in one call; floats give a float.
    """
    dist_sq = y * y + np.multiply(h, h)
    # In q = e^(-alpha delta) and w = 1 - q, not e^(alpha delta), which
    # overflows once alpha * delta passes about 709; q only underflows
    # towards 0, where no circle is left. math, grid by grid: np.exp may
    # differ by an ulp, and one sample's ulp can flip a search's comparison.
    exponent = -np.multiply(alpha, delta)
    q, w = np.vectorize(lambda e: (math.exp(e), -math.expm1(e)), otypes=[float, float])(exponent)
    disc = q * delta * delta - w * w * dist_sq
    # Equivalent to |y| >= circle radius; the root is not taken there.
    misses = disc <= 0.0
    # Only a missed row's quotient can overflow, and its offset is inf anyway.
    with np.errstate(over="ignore"):
        offset = (delta * delta + w * dist_sq) / (delta + np.sqrt(np.where(misses, 0.0, disc)))
    return _float_or_array(np.where(misses, math.inf, offset))


def _optimize_partitions(pairs: list[tuple[SystemConfig, PaLayout]]) -> list[RegionPartition]:
    """The partition of each (config, layout) pair, from one lockstep search.

    The partition depends only on (d_x, d_y, h, alpha) and the layout,
    which m and delta fix, so pairs that share them share one partition.
    Each distinct searched pair is one column of the mismatch samples and
    weights, all laid by one `gauss_legendre` and one `_boundary_offset`
    call, and one bracket of `golden_section`: its offset is bit for bit
    its own search's.
    """
    keys = [(c.d_x, c.d_y, c.h, c.alpha, lay.m, lay.delta) for c, lay in pairs]
    distinct = dict(zip(keys, pairs))
    unique = list(distinct.values())
    searched = [i for i, (c, lay) in enumerate(unique) if lay.m > 1 and c.alpha != 0.0]
    columns = [(c.d_y / 2.0, c.alpha, c.h, lay.delta) for c, lay in (unique[i] for i in searched)]
    half, alphas, heights, deltas = np.array(columns).reshape(-1, 4).T
    y_nodes, weights = (rule.T for rule in gauss_legendre(_MISMATCH_QUAD_POINTS, -half, half))
    samples = _boundary_offset(alphas, heights, deltas, y_nodes)
    samples = np.where(np.isinf(samples), deltas, samples)

    def mismatch(b: np.ndarray) -> np.ndarray:
        # accumulate adds each column top to bottom, as one running sum
        # would; sum() and dot() add pairwise and could move the offset.
        return np.add.accumulate(weights * np.abs(samples - b), axis=0)[-1]

    offsets = np.array([layout.delta / 2.0 for _, layout in unique])
    offsets[searched] = golden_section(mismatch, 0.0, deltas, tol=_PARTITION_TOL_M)
    found = {
        key: RegionPartition(layout=layout, offset=offset, d_x=config.d_x)
        for key, (config, layout), offset in zip(distinct, unique, offsets.tolist())
    }
    return [found[key] for key in keys]


def optimize_partition(config: SystemConfig, layout: PaLayout) -> RegionPartition:
    """Rectangular partition whose cuts best match the exact arcs.

    Every interior cut sits at x_k plus one offset shared by all k. The
    offset minimizes the y-integrated horizontal deviation between a
    vertical cut and the exact equal-SNR arc (the misassigned area),
    evaluated with a fixed 64-point Gauss-Legendre rule so results are
    deterministic. The objective is convex in the offset, so a golden-section
    search over (0, delta) finds it to 1e-6 m. This is the one-pair case of
    `_optimize_partitions`, which searches each distinct geometry and
    layout of a batch once, all in lockstep.
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
    return _optimize_partitions([(config, layout)])[0]
