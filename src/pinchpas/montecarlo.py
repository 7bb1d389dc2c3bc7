"""Monte Carlo estimators used to cross-check the closed-form metrics.

Users are drawn uniformly over the service rectangle, the serving antenna
is the one with the highest instantaneous SNR, and sample means with
standard errors are accumulated block by block, so a run of a billion
samples needs only memory for `_BLOCK_USERS` users. Each user's
best SNR comes from `system.best_snr`, big_c times the best gain, which
past a dozen antennas is evaluated on three candidate antennas per user
that provably hold the best, so the cost per sample does not grow with
the antenna count. Users depend only on the room (d_x, d_y), so a batch
of outage points draws each chunk once per room for all its points (every
antenna count, and every value of an axis such as alpha or h), and the
points that differ only in transmit SNR compute their best gains once
and each count their own users exactly. Streams are counter-based: a
given (seed, chunk size) pair reproduces the same users regardless of
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import (
    PaLayout,
    SystemConfig,
    _best_gain,
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
# Users drawn and evaluated at once. Small blocks keep `_best_gain`'s
# temporaries in cache and in the allocator's free lists; in 250,000-user
# pieces, page faults on fresh 2 MB temporaries made the best gains take
# about 1.6x as long at m = 100.
_BLOCK_USERS = 16384


@dataclass(frozen=True)
class SimulationSpec:
    """Sample budget and stream identity of one simulation run."""

    n_samples: int = 1_000_000
    seed: int = 0
    chunk_size: int = 250_000

    def __post_init__(self):
        if self.n_samples < _MIN_SAMPLES:
            raise ValueError(
                f"n_samples must be >= {_MIN_SAMPLES}, got {self.n_samples}"
            )
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {self.chunk_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _chunk_sizes(spec: SimulationSpec):
    remaining = spec.n_samples
    index = 0
    while remaining > 0:
        take = min(spec.chunk_size, remaining)
        yield index, take
        remaining -= take
        index += 1


def _chunk_users(spec: SimulationSpec, index: int, take: int, d_x: float, d_y: float):
    """Chunk `index`'s `take` users as (x, y) blocks of `_BLOCK_USERS`.

    Bit for bit the chunk's `uniform(0, d_x, take)` followed by its
    `uniform(-d_y/2, d_y/2, take)`, read by two generators: one from the
    chunk's start, and one moved past the x draws. Philox makes four
    64-bit words per counter step and each double takes one word, so that
    is `take // 4` steps ahead and `take % 4` draws discarded.
    """
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
    at its first point, and each point counts the gains at or below
    `_gain_limit` of its threshold and its big_c: exactly the users whose
    best SNR is at or below the threshold. Users depend only on the room
    (d_x, d_y), so every curve in a room reads one stream of its chunks'
    users. Each estimate equals `simulate_outage` at its own point, bit
    for bit, by construction.
    """
    rooms: dict[tuple[float, float], dict[tuple, list[int]]] = {}
    for i, (config, layout) in enumerate(points):
        curves = rooms.setdefault((config.d_x, config.d_y), {})
        curves.setdefault((_unscaled(config), layout.m, layout.delta), []).append(i)
    limits = [
        _gain_limit(db_to_linear(config.gamma_thr_db), config.big_c)
        for config, _ in points
    ]
    hits = [0] * len(points)
    for (d_x, d_y), curves in rooms.items():
        for index, take in _chunk_sizes(spec):
            for x, y in _chunk_users(spec, index, take, d_x, d_y):
                for members in curves.values():
                    gain = _best_gain(*points[members[0]], x, y)
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
    for index, take in _chunk_sizes(spec):
        for x, y in _chunk_users(spec, index, take, config.d_x, config.d_y):
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
