"""Small deterministic numerical helpers shared across the package."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["leggauss_cached", "gauss_legendre", "golden_section"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


@lru_cache(maxsize=None)
def leggauss_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    nodes, weights = leggauss_cached(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * nodes, half * weights


def golden_section(f, a: float, b: float, tol: float = 1e-6) -> float:
    """Minimize a unimodal scalar function on [a, b] by golden-section search.

    Runs the fixed number of iterations needed to shrink the bracket
    below tol and returns the bracket midpoint, so the result is
    deterministic for identical inputs.
    """
    if b <= a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    span = b - a
    if span <= tol:
        return 0.5 * (a + b)
    n_iter = int(math.ceil(math.log(tol / span) / math.log(INV_PHI)))
    c = b - INV_PHI * span
    d = a + INV_PHI * span
    fc = f(c)
    fd = f(d)
    for _ in range(n_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
