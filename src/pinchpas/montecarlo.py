"""Monte Carlo estimators used to cross-check the closed-form metrics.

Users are drawn uniformly over the service rectangle, the serving antenna
is the one with the highest instantaneous SNR, and sample means with
standard errors are accumulated chunk by chunk so a run of a billion
samples needs only chunk-sized memory. Each user's best SNR comes from
`system.best_snr`, big_c times the best gain, which past a dozen antennas
is evaluated on three candidate antennas per user that provably hold the
best, so the cost per sample does not grow with the antenna count. An
outage curve over transmit SNR draws each user and computes its best gain
once for all its points, and counts each point exactly. Streams are
counter-based: a given (seed, chunk size) pair reproduces the same
estimate regardless of platform.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .system import (
    PaLayout,
    SystemConfig,
    _best_gain,
    _continuous_snr,
    best_snr,
    db_to_linear,
    derive_rf,
)

__all__ = [
    "SimulationSpec",
    "SimEstimate",
    "simulate_outage",
    "simulate_outage_curve",
    "simulate_rate",
    "simulate_continuous_rate",
]

_MIN_SAMPLES = 1_000


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


def _draw_users(
    rng: np.random.Generator, config: SystemConfig, n: int
) -> tuple[np.ndarray, np.ndarray]:
    x = rng.uniform(0.0, config.d_x, size=n)
    y = rng.uniform(-config.d_y / 2.0, config.d_y / 2.0, size=n)
    return x, y


def simulate_outage(
    config: SystemConfig, layout: PaLayout, spec: SimulationSpec
) -> SimEstimate:
    """Fraction of users whose best-antenna SNR is at or below the threshold."""
    return simulate_outage_curve(config, layout, spec, (config.gamma_t_db,))[0]


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


def simulate_outage_curve(
    config: SystemConfig,
    layout: PaLayout,
    spec: SimulationSpec,
    gamma_t_dbs: tuple[float, ...],
) -> tuple[SimEstimate, ...]:
    """`simulate_outage` at each transmit SNR in `gamma_t_dbs`, from one draw.

    A user's best SNR is big_c times its best gain (`system.best_snr`),
    and only big_c depends on the transmit SNR. So each chunk's users are
    drawn and their best gains computed once, and gamma_t point i counts
    the gains at or below `_gain_limit` of the threshold and its big_c:
    exactly the users whose best SNR at gamma_i is at or below the
    threshold. Each estimate equals `simulate_outage` at `config` with
    gamma_t_db = gamma_i, bit for bit, by construction.
    """
    threshold = db_to_linear(config.gamma_thr_db)
    limits = []
    for gamma_t_db in gamma_t_dbs:
        point = dataclasses.replace(config, gamma_t_db=gamma_t_db)
        limits.append(_gain_limit(threshold, derive_rf(point).big_c))
    hits = [0] * len(limits)
    for index, take in _chunk_sizes(spec):
        x, y = _draw_users(_chunk_rng(spec, index), config, take)
        gain = _best_gain(config, layout, x, y)
        for i, limit in enumerate(limits):
            hits[i] += int(np.count_nonzero(gain <= limit))
    n = spec.n_samples
    estimates = []
    for count in hits:
        p = count / n
        se = math.sqrt(p * (1.0 - p) / n)
        estimates.append(SimEstimate(mean=p, std_error=se, n_samples=n))
    return tuple(estimates)


def _rate_estimate(config: SystemConfig, spec: SimulationSpec, snr) -> SimEstimate:
    """Mean of log2(1 + snr(x, y)) over uniform users, with its standard error."""
    total = 0.0
    total_sq = 0.0
    for index, take in _chunk_sizes(spec):
        rng = _chunk_rng(spec, index)
        x, y = _draw_users(rng, config, take)
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
