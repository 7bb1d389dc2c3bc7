"""Monte Carlo estimators used to cross-check the closed-form metrics.

Users are drawn uniformly over the service rectangle, the serving antenna
is the one with the highest instantaneous SNR, and sample means with
standard errors are accumulated chunk by chunk so a run of a billion
samples needs only chunk-sized memory. Each user's best SNR comes from
`system.best_snr`, which past a dozen antennas evaluates the one SNR law
on three candidate antennas per user that provably hold the best, so the
cost per sample does not grow with the antenna count. Streams are
counter-based: a given (seed, chunk size) pair reproduces the same
estimate regardless of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import PaLayout, SystemConfig, _continuous_snr, best_snr, db_to_linear

__all__ = [
    "SimulationSpec",
    "SimEstimate",
    "simulate_outage",
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
    threshold = db_to_linear(config.gamma_thr_db)
    hits = 0
    for index, take in _chunk_sizes(spec):
        rng = _chunk_rng(spec, index)
        x, y = _draw_users(rng, config, take)
        best = best_snr(config, layout, x, y)
        hits += int(np.count_nonzero(best <= threshold))
    p = hits / spec.n_samples
    se = math.sqrt(p * (1.0 - p) / spec.n_samples)
    return SimEstimate(mean=p, std_error=se, n_samples=spec.n_samples)


def _mean_and_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def simulate_rate(
    config: SystemConfig, layout: PaLayout, spec: SimulationSpec
) -> SimEstimate:
    """Mean achievable rate, bits/s/Hz, under best-antenna selection."""
    total = 0.0
    total_sq = 0.0
    for index, take in _chunk_sizes(spec):
        rng = _chunk_rng(spec, index)
        x, y = _draw_users(rng, config, take)
        rate = np.log2(1.0 + best_snr(config, layout, x, y))
        total += float(rate.sum())
        total_sq += float(np.square(rate).sum())
    mean, se = _mean_and_se(total, total_sq, spec.n_samples)
    return SimEstimate(mean=mean, std_error=se, n_samples=spec.n_samples)


def simulate_continuous_rate(config: SystemConfig, spec: SimulationSpec) -> SimEstimate:
    """Mean rate with the radiator re-placed optimally for every sample."""
    total = 0.0
    total_sq = 0.0
    for index, take in _chunk_sizes(spec):
        rng = _chunk_rng(spec, index)
        x, y = _draw_users(rng, config, take)
        rate = np.log2(1.0 + _continuous_snr(config, x, y))
        total += float(rate.sum())
        total_sq += float(np.square(rate).sum())
    mean, se = _mean_and_se(total, total_sq, spec.n_samples)
    return SimEstimate(mean=mean, std_error=se, n_samples=spec.n_samples)
