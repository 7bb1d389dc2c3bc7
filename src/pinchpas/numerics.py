"""Small deterministic numerical helpers shared across the package."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat

import numpy as np

__all__ = ["leggauss_cached", "gauss_legendre", "golden_section"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def _float_or_array(value):
    """A kernel's result: a Python float when every argument was a scalar."""
    return float(value) if np.ndim(value) == 0 else value


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: callers share it and only read it."""
    array.setflags(write=False)
    return array


def _piecewise(choice: np.ndarray, branches, *args: np.ndarray) -> np.ndarray:
    """branches[i](*args) where choice is i; a boolean choice picks branches[1] where it holds.

    Each branch sees only its own elements of the arguments, which share
    choice's shape; a branch with no elements is not called.
    """
    value = np.empty(choice.shape)
    for i, branch in enumerate(branches):
        where = choice == i
        if where.any():
            value[where] = branch(*(arg[where] for arg in args))
    return value


@lru_cache(maxsize=None)
def leggauss_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return _read_only(nodes), _read_only(weights)


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    nodes, weights = leggauss_cached(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * nodes, half * weights


def _golden_search(a: float, b: float, tol: float):
    """One bracket's search: yields each point to evaluate, is sent f there, and
    returns the midpoint after the fixed iteration count that shrinks [a, b] below tol."""
    span = b - a
    if span <= tol:
        return 0.5 * (a + b)
    n_iter = int(math.ceil(math.log(tol / span) / math.log(INV_PHI)))
    c = b - INV_PHI * span
    d = a + INV_PHI * span
    fc = yield c
    fd = yield d
    for _ in range(n_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = yield d
    return 0.5 * (a + b)


def golden_section(f, a, b, tol: float = 1e-6):
    """Minimize unimodal functions on brackets [a, b] by golden-section search.

    a and b may be arrays of brackets, searched in lockstep: f takes an array
    of one point per bracket and returns the value at each. Each result is
    bit for bit its bracket's own search. Floats in give a Python float out.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    # A step's bookkeeping stays in Python floats: vectorized, it takes
    # about ten numpy calls, more than the work of a few brackets.
    points = a.ravel().tolist()
    searches = dict(enumerate(map(_golden_search, points, b.ravel().tolist(), repeat(tol))))
    values, found = [None] * len(points), [0.0] * len(points)
    while searches:
        for i, search in list(searches.items()):
            try:
                points[i] = search.send(values[i])
            except StopIteration as done:
                found[i] = done.value
                del searches[i]
        if searches:
            values = np.asarray(f(np.array(points).reshape(a.shape))).ravel().tolist()
    return _float_or_array(np.array(found).reshape(a.shape))
