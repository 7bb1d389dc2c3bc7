"""Simulation oracle: determinism, stream independence, and agreement."""

from dataclasses import replace

import numpy as np
import pytest

from pinchpas import (
    SimulationSpec,
    SystemConfig,
    best_snr,
    db_to_linear,
    ergodic_rate,
    make_layout,
    optimize_partition,
    outage_probability,
    simulate_continuous_rate,
    simulate_outage,
    simulate_outage_curve,
    simulate_rate,
)
from pinchpas import montecarlo
from pinchpas.montecarlo import _chunk_rng, _chunk_sizes, _draw_users


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(n_samples=999)
    with pytest.raises(ValueError):
        SimulationSpec(seed=-1)
    with pytest.raises(ValueError):
        SimulationSpec(chunk_size=0)
    spec = SimulationSpec(n_samples=1000, seed=5, chunk_size=300)
    assert spec.n_samples == 1000


def test_chunk_sizes_cover_budget():
    spec = SimulationSpec(n_samples=1_000_000, chunk_size=300_000)
    chunks = list(_chunk_sizes(spec))
    assert [c[1] for c in chunks] == [300_000, 300_000, 300_000, 100_000]
    assert [c[0] for c in chunks] == [0, 1, 2, 3]


def test_chunk_streams_are_distinct():
    spec = SimulationSpec(n_samples=10_000, seed=42, chunk_size=5_000)
    a = _chunk_rng(spec, 0).random(8)
    b = _chunk_rng(spec, 1).random(8)
    assert not np.allclose(a, b)
    # and reproducible
    again = _chunk_rng(spec, 0).random(8)
    assert np.array_equal(a, again)


def test_runs_are_bit_stable():
    cfg = SystemConfig(d_x=12.0, gamma_t_db=94.0)
    lay = make_layout(cfg, 2)
    spec = SimulationSpec(n_samples=200_000, seed=17)
    r1 = simulate_outage(cfg, lay, spec)
    r2 = simulate_outage(cfg, lay, spec)
    assert r1 == r2
    s1 = simulate_rate(cfg, lay, spec)
    s2 = simulate_rate(cfg, lay, spec)
    assert s1.mean == s2.mean and s1.std_error == s2.std_error


def test_seed_changes_stream():
    cfg = SystemConfig(d_x=12.0, gamma_t_db=94.0)
    lay = make_layout(cfg, 2)
    a = simulate_rate(cfg, lay, SimulationSpec(n_samples=50_000, seed=0))
    b = simulate_rate(cfg, lay, SimulationSpec(n_samples=50_000, seed=1))
    assert a.mean != b.mean
    # but both estimates agree within a few standard errors
    assert abs(a.mean - b.mean) < 6.0 * (a.std_error + b.std_error)


def test_outage_simulation_matches_closed_form():
    cfg = SystemConfig(d_x=14.0, gamma_t_db=95.0, alpha=0.05)
    lay = make_layout(cfg, 3)
    part = optimize_partition(cfg, lay)
    analytic = outage_probability(cfg, lay, part).value
    sim = simulate_outage(cfg, lay, SimulationSpec(n_samples=400_000, seed=2))
    assert 0.01 < analytic < 0.99  # keep the comparison informative
    assert abs(analytic - sim.mean) < 5.0 * sim.std_error


def test_rate_simulation_matches_closed_form():
    cfg = SystemConfig(d_x=14.0, gamma_t_db=95.0, alpha=0.05)
    lay = make_layout(cfg, 3)
    part = optimize_partition(cfg, lay)
    analytic = ergodic_rate(cfg, lay, part).value
    sim = simulate_rate(cfg, lay, SimulationSpec(n_samples=400_000, seed=3))
    # The simulation picks the best antenna per user while the closed
    # form integrates the rectangular partition, so the simulated mean
    # can only sit a sliver above it.
    assert sim.mean - analytic > -5.0 * sim.std_error
    assert abs(sim.mean - analytic) / analytic < 2e-3


def test_three_sigma_band_covers_analytic_value():
    # Across 20 independent seeds at n = 1e5 the closed-form outage should
    # fall inside the +-3 sigma band of the estimate in at least 19 runs.
    cfg = SystemConfig(d_x=10.0, gamma_t_db=96.0, alpha=0.05)
    lay = make_layout(cfg, 2)
    part = optimize_partition(cfg, lay)
    analytic = outage_probability(cfg, lay, part).value
    inside = 0
    for seed in range(20):
        sim = simulate_outage(cfg, lay, SimulationSpec(n_samples=100_000, seed=seed))
        if abs(analytic - sim.mean) <= 3.0 * sim.std_error:
            inside += 1
    assert inside >= 19


def test_continuous_rate_simulation_sanity():
    cfg = SystemConfig(d_x=14.0, gamma_t_db=95.0, alpha=0.05)
    est = simulate_continuous_rate(cfg, SimulationSpec(n_samples=100_000, seed=4))
    assert est.std_error > 0.0
    assert est.n_samples == 100_000
    # the movable radiator beats the best fixed antenna of any layout
    lay = make_layout(cfg, 4)
    part = optimize_partition(cfg, lay)
    assert est.mean > ergodic_rate(cfg, lay, part).value


def test_standard_error_scales_with_samples():
    cfg = SystemConfig(d_x=14.0, gamma_t_db=95.0)
    lay = make_layout(cfg, 2)
    small = simulate_rate(cfg, lay, SimulationSpec(n_samples=10_000, seed=8))
    large = simulate_rate(cfg, lay, SimulationSpec(n_samples=160_000, seed=8))
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(4.0, rel=0.15)


# ------------------------------------------------------- outage curves --

_CURVE_GAMMAS = (88.0, 93.5, 97.0, 100.25, 106.0, 112.0)


def _direct_outage_hits(config, layout, spec):
    """Users at or below the threshold, each best SNR computed at `config`."""
    threshold = db_to_linear(config.gamma_thr_db)
    hits = 0
    for index, take in _chunk_sizes(spec):
        x, y = _draw_users(_chunk_rng(spec, index), config, take)
        hits += int(np.count_nonzero(best_snr(config, layout, x, y) <= threshold))
    return hits


@pytest.mark.parametrize("seed", [0, 3, 8191])
@pytest.mark.parametrize("m", [1, 10, 40])
def test_outage_curve_equals_pointwise_simulation(seed, m):
    # m = 40 takes best_snr's candidate window; 7,000 does not divide 30,000.
    cfg = SystemConfig(d_x=30.0, gamma_t_db=97.0)
    lay = make_layout(cfg, m)
    spec = SimulationSpec(n_samples=30_000, seed=seed, chunk_size=7_000)
    curve = simulate_outage_curve(cfg, lay, spec, _CURVE_GAMMAS)
    assert len(curve) == len(_CURVE_GAMMAS)
    for gamma_t_db, estimate in zip(_CURVE_GAMMAS, curve):
        point = replace(cfg, gamma_t_db=gamma_t_db)
        assert estimate == simulate_outage(point, lay, spec)
        assert estimate.mean == _direct_outage_hits(point, lay, spec) / spec.n_samples
    assert any(0.0 < estimate.mean < 1.0 for estimate in curve)


def test_outage_curve_recomputes_users_near_the_rescaled_threshold(monkeypatch):
    # A band of +-50% sends a large share of users through the recount at
    # their own transmit SNR, which must give the same counts.
    monkeypatch.setattr(montecarlo, "_RESCALE_BAND", 0.5)
    recounted = []

    def counting_best_snr(config, layout, x, y):
        if config.gamma_t_db != cfg.gamma_t_db:
            recounted.append(x.size)
        return best_snr(config, layout, x, y)

    monkeypatch.setattr(montecarlo, "best_snr", counting_best_snr)
    cfg = SystemConfig(d_x=30.0, gamma_t_db=100.0)
    lay = make_layout(cfg, 10)
    spec = SimulationSpec(n_samples=20_000, seed=5, chunk_size=6_000)
    curve = simulate_outage_curve(cfg, lay, spec, _CURVE_GAMMAS)
    assert sum(recounted) > 1_000
    for gamma_t_db, estimate in zip(_CURVE_GAMMAS, curve):
        point = replace(cfg, gamma_t_db=gamma_t_db)
        assert estimate.mean == _direct_outage_hits(point, lay, spec) / spec.n_samples
