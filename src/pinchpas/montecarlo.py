"""Monte Carlo estimators used to cross-check the closed-form metrics.

Users are drawn uniformly over the service rectangle, the serving antenna
is the one with the highest instantaneous SNR, and sample means with
standard errors are accumulated block by block, so a run of a billion
samples needs only memory for `_BLOCK_USERS` users. Each user's
best SNR comes from `system.best_snr`, big_c times the best gain, and no
(m, n) matrix holds it: up to ten antennas a running maximum takes one
antenna row at a time, and beyond that three candidate antennas per user
provably hold the best, so the cost per sample does not grow with the
antenna count. Users depend only on the room (d_x, d_y), so a batch of
outage points reads the run's users once per room for all its points
(every antenna count, and every value of an axis such as alpha or h).
The curves that share h and the layout form each antenna row's distances
once, the points that differ only in transmit SNR compute their best
gains once, and each point counts its own users exactly. Streams are
counter-based and cut into chunks of `_CHUNK_USERS` users: a given
(seed, n_samples) pair reproduces the same users regardless of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _is_whole
from .system import (
    PaLayout,
    SystemConfig,
    _best_gains,
    _continuous_snr,
    _unscaled,
    best_snr,
    db_to_linear,
)

__all__ = [
    "SimulationSpec",
    "SimEstimate",
    "simulate_outage",
    "simulate_rate",
    "simulate_continuous_rate",
]

_MIN_SAMPLES = 1_000
# Users drawn and evaluated at once. Small blocks keep the best gains'
# (n,) temporaries in cache: in 250,000-user pieces, page faults on fresh
# 2 MB temporaries made the best gains take about 1.6x as long at m = 100.
# At 16,384 users each temporary is 128 KiB, exactly glibc's default mmap
# threshold, so each was mapped afresh until a larger free raised that
# threshold: a process running only the m = 100 benchmark op took about
# 12,300 minor faults, and 6 after an op at m = 10, whose (10, n) matrix
# raised it. At 8,192 users the temporaries come from the heap: about 730
# faults alone, and about 5,100 after the m = 10 op, since glibc trims
# the heap's top after each block.
_BLOCK_USERS = 8192
# Users per jump of the Philox stream. The users a seed gives depend on
# it, so the simulate tables' header echoes it.
_CHUNK_USERS = 250_000


@dataclass(frozen=True)
class SimulationSpec:
    """Sample budget and stream identity of one simulation run.

    The (n_samples, seed) pair fixes a run's users; both are stored as int.
    """

    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            v = getattr(self, name)
            if not _is_whole(v):
                raise ValueError(f"{name} must be a whole number, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n_samples < _MIN_SAMPLES:
            raise ValueError(f"n_samples must be >= {_MIN_SAMPLES}, got {self.n_samples}")
        # Philox's key, which the seed is, holds 128 bits.
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class SimEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int


def _chunk_rng(spec: SimulationSpec, index: int) -> np.random.Generator:
    # Each chunk owns a disjoint jump of the Philox counter space, so the
    # draw for chunk i never depends on how earlier chunks were consumed.
    return np.random.Generator(np.random.Philox(key=spec.seed).jumped(index))


def _users(spec: SimulationSpec, d_x: float, d_y: float):
    """Every user of a run, in stream order, as (x, y) blocks of `_BLOCK_USERS`.

    Chunk i holds `_CHUNK_USERS` users (the last one the rest), and its
    users are bit for bit the chunk's `uniform(0, d_x, take)` followed by
    its `uniform(-d_y/2, d_y/2, take)`, read by two generators: one from
    the chunk's start, and one moved past the x draws. Philox makes four
    64-bit words per counter step and each double takes one word, so that
    is `take // 4` steps ahead and `take % 4` draws discarded.
    """
    for index, first in enumerate(range(0, spec.n_samples, _CHUNK_USERS)):
        take = min(_CHUNK_USERS, spec.n_samples - first)
        along = _chunk_rng(spec, index)
        across = _chunk_rng(spec, index)
        across.bit_generator.advance(take // 4)
        across.random(take % 4)
        for start in range(0, take, _BLOCK_USERS):
            n = min(_BLOCK_USERS, take - start)
            yield along.uniform(0.0, d_x, n), across.uniform(-d_y / 2.0, d_y / 2.0, n)


def simulate_outage(
    config: SystemConfig, layout: PaLayout, spec: SimulationSpec
) -> SimEstimate:
    """Fraction of users whose best-antenna SNR is at or below the threshold."""
    return _simulate_outages([(config, layout)], spec)[0]


def _gain_limit(threshold: float, big_c: float) -> float:
    """The largest float g with fl(big_c * g) <= threshold.

    Rounding is monotone, so fl(big_c * g) <= threshold exactly when
    g <= this limit. threshold / big_c is within an ulp or two of it.
    """
    limit = threshold / big_c
    while big_c * limit > threshold:
        limit = math.nextafter(limit, -math.inf)
    while big_c * math.nextafter(limit, math.inf) <= threshold:
        limit = math.nextafter(limit, math.inf)
    return limit


def _simulate_outages(
    points: list[tuple[SystemConfig, PaLayout]], spec: SimulationSpec
) -> list[SimEstimate]:
    """`simulate_outage` at each (config, layout) point, from one draw per room.

    A user's best SNR is big_c times its best gain (`system.best_snr`),
    and only big_c depends on the transmit SNR. So the points that share
    the layout (its m and delta) and every other field (`system._unscaled`)
    are one curve: each block of users gets each curve's best gains once,
    at its first point, from one `_best_gains` call for all the curves
    that share h and the layout, and each point counts the gains at or below
    `_gain_limit` of its threshold and its big_c: exactly the users whose
    best SNR is at or below the threshold. Users depend only on the room
    (d_x, d_y), so every curve in a room reads one stream of the run's
    users. Each estimate equals `simulate_outage` at its own point, bit
    for bit, by construction.
    """
    rooms: dict[tuple[float, float], dict[tuple, dict[tuple, list[int]]]] = {}
    for i, (config, layout) in enumerate(points):
        rows = rooms.setdefault((config.d_x, config.d_y), {})
        curves = rows.setdefault((config.h, layout.m, layout.delta), {})
        curves.setdefault(_unscaled(config), []).append(i)
    limits = [
        _gain_limit(db_to_linear(config.gamma_thr_db), config.big_c)
        for config, _ in points
    ]
    hits = [0] * len(points)
    for (d_x, d_y), rows in rooms.items():
        for x, y in _users(spec, d_x, d_y):
            for curves in rows.values():
                firsts = [points[members[0]] for members in curves.values()]
                gains = _best_gains([c for c, _ in firsts], firsts[0][1], x, y)
                for members, gain in zip(curves.values(), gains):
                    for i in members:
                        hits[i] += int(np.count_nonzero(gain <= limits[i]))
    return [_share(count, spec.n_samples) for count in hits]


def _share(count: int, n: int) -> SimEstimate:
    """The fraction count / n of n users, with its binomial standard error."""
    p = count / n
    return SimEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n), n_samples=n)


def _rate_estimate(config: SystemConfig, spec: SimulationSpec, snr) -> SimEstimate:
    """Mean of log2(1 + snr(x, y)) over uniform users, with its standard error."""
    total = 0.0
    total_sq = 0.0
    for x, y in _users(spec, config.d_x, config.d_y):
        rate = np.log2(1.0 + snr(x, y))
        total += float(rate.sum())
        total_sq += float(np.square(rate).sum())
    n = spec.n_samples
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return SimEstimate(mean=total / n, std_error=math.sqrt(var / n), n_samples=n)


def simulate_rate(
    config: SystemConfig, layout: PaLayout, spec: SimulationSpec
) -> SimEstimate:
    """Mean achievable rate, bits/s/Hz, under best-antenna selection."""
    return _rate_estimate(config, spec, lambda x, y: best_snr(config, layout, x, y))


def simulate_continuous_rate(config: SystemConfig, spec: SimulationSpec) -> SimEstimate:
    """Mean rate with the radiator re-placed optimally for every sample."""
    return _rate_estimate(config, spec, lambda x, y: _continuous_snr(config, x, y))
