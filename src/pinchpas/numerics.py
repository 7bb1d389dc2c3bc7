"""Small deterministic numerical helpers shared across the package.

Gauss-Legendre rules come from Newton's method on the Legendre
three-term recurrence, in numpy alone, so a closed-form run neither
imports numpy.polynomial nor calls LAPACK: the 64- and 128-node rules
cost a fresh process about 2.5 ms on a 2-vCPU x86-64 host.
"""

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


def _is_whole(v) -> bool:
    """Whether v is a finite whole number. v - v is 0 for a finite int or float
    (an int may exceed any float) and nan for inf and nan."""
    return v - v == 0 and v == int(v)


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


def _legendre_sweep(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def leggauss_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached per order.

    Newton's method on the Legendre recurrence finds the nodes in [0, 1),
    from Tricomi's estimate (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)),
    written as a sine so that the middle node of an odd rule is exactly 0.
    From n = 64 to 200 the largest step is about 2e-6, 4e-9, 1e-14, then
    below an ulp, so three updates settle the nodes; the fourth sweep gives
    P_n' for the weights 2 / ((1 - x^2) P_n'(x)^2). The other half is the
    mirror image, so nodes and weights are exactly symmetric.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.sin(np.pi * (n + 1 - 2 * k) / (2 * n + 1))
    for _ in range(3):
        p, dp = _legendre_sweep(n, x)
        x = x - p / dp
    _, dp = _legendre_sweep(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # x falls from the largest node; an odd rule's 0 joins the upper half only.
    half = n // 2
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    return _read_only(nodes), _read_only(weights)


def gauss_legendre(n: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b], rule axis last.

    a and b may be arrays of interval ends, each row bit for bit its own call's:
    `metrics._y_rule` and `regions._optimize_partitions` lay all their rules at once.
    """
    nodes, weights = leggauss_cached(n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * nodes, half * weights


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
