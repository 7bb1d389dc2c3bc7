"""Simulation oracle: determinism, stream independence, and agreement."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchpas import (
    SimulationSpec,
    SystemConfig,
    db_to_linear,
    ergodic_rate,
    make_layout,
    optimize_partition,
    outage_probability,
    simulate_continuous_rate,
    simulate_outage,
    simulate_rate,
    snr_matrix,
)
from pinchpas import montecarlo
from pinchpas.montecarlo import _BLOCK_USERS, _chunk_rng, _users

import oracle_utils as oracle

# Users per jump of the Philox stream; the simulate goldens' headers pin it too.
STREAM_CHUNK = 250_000


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(n_samples=999)
    with pytest.raises(ValueError):
        SimulationSpec(seed=-1)
    spec = SimulationSpec(n_samples=1000, seed=5)
    assert spec.n_samples == 1000
    assert [f.name for f in fields(SimulationSpec)] == ["n_samples", "seed"]
    with pytest.raises(TypeError):
        SimulationSpec(chunk_size=300)


@pytest.mark.parametrize(
    "field, value, stored",
    [
        ("n_samples", math.inf, None),  # a chunk loop over it would never end
        ("n_samples", 2000.0, 2000),  # whole, so taken, and Philox gets an int
        ("seed", 1.5, None),  # would run seed 1's stream under a 1.5 header
    ],
)
def test_spec_takes_only_whole_finite_numbers(field, value, stored):
    if stored is None:
        with pytest.raises(ValueError, match=field):
            SimulationSpec(**{field: value})
        return
    spec = SimulationSpec(**{field: value})
    assert type(getattr(spec, field)) is int and getattr(spec, field) == stored
    cfg = SystemConfig(d_x=12.0, gamma_t_db=94.0)
    lay = make_layout(cfg, 2)
    assert simulate_outage(cfg, lay, spec) == simulate_outage(
        cfg, lay, replace(spec, **{field: stored})
    )


def test_seed_past_the_philox_key_names_seed():
    with pytest.raises(ValueError, match="seed"):
        SimulationSpec(seed=2**128)
    spec = SimulationSpec(n_samples=1000, seed=2**128 - 1)
    assert np.isfinite(_chunk_rng(spec, 0).uniform())


def test_chunk_streams_are_distinct():
    spec = SimulationSpec(n_samples=10_000, seed=42)
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
    """Users at or below the threshold, each best SNR the full matrix's maximum.

    The matrix is built for 10,000 users at a time.
    """
    threshold = db_to_linear(config.gamma_thr_db)
    x, y = oracle.simulation_users(
        spec.seed, spec.n_samples, STREAM_CHUNK, config.d_x, config.d_y
    )
    hits = 0
    for start in range(0, x.size, 10_000):
        users = slice(start, start + 10_000)
        best = snr_matrix(config, layout, x[users], y[users]).max(axis=0)
        hits += int(np.count_nonzero(best <= threshold))
    return hits


@pytest.mark.parametrize("seed", [0, 3, 8191])
@pytest.mark.parametrize("m", [1, 10, 40])
def test_outage_curve_equals_pointwise_simulation(seed, m):
    # m = 40 takes best_snr's candidate window; the run ends in a 3-user chunk.
    cfg = SystemConfig(d_x=30.0, gamma_t_db=97.0)
    lay = make_layout(cfg, m)
    spec = SimulationSpec(n_samples=STREAM_CHUNK + 3, seed=seed)
    points = [replace(cfg, gamma_t_db=gamma_t_db) for gamma_t_db in _CURVE_GAMMAS]
    curve = montecarlo._simulate_outages([(point, lay) for point in points], spec)
    assert len(curve) == len(points)
    for point, estimate in zip(points, curve):
        assert estimate == simulate_outage(point, lay, spec)
        assert estimate.mean == _direct_outage_hits(point, lay, spec) / spec.n_samples
    assert any(0.0 < estimate.mean < 1.0 for estimate in curve)


@settings(max_examples=400, deadline=None)
@given(
    threshold_exp=st.floats(-300.0, 300.0),
    big_c_exp=st.floats(-300.0, 300.0),
)
@example(threshold_exp=2.0, big_c_exp=math.log10(7.25e-7) + 10.0)  # 20 dB; 100 dB at 28 GHz
@example(threshold_exp=300.0, big_c_exp=-300.0)  # threshold / big_c overflows
@example(threshold_exp=-300.0, big_c_exp=300.0)  # and underflows to 0
def test_gain_limit_is_the_last_gain_in_outage(threshold_exp, big_c_exp):
    # A user is in outage when fl(big_c g) <= threshold; the curve counts
    # g <= limit instead, which is the same set only if the limit is the
    # largest such float.
    threshold, big_c = 10.0**threshold_exp, 10.0**big_c_exp
    limit = montecarlo._gain_limit(threshold, big_c)
    assert big_c * limit <= threshold < big_c * math.nextafter(limit, math.inf)


# ------------------------------------------------------- user stream --


@pytest.mark.parametrize(
    "n_samples",
    [
        1_001,  # one chunk, smaller than a block, 1 past a multiple of 4
        STREAM_CHUNK + 1,  # a 1-user last chunk: no whole Philox step to skip
        STREAM_CHUNK + 2,  # a 2-user last chunk
        STREAM_CHUNK + 3,  # a 3-user last chunk
        2 * STREAM_CHUNK + 3,  # two whole chunks, then 3 users
    ],
)
def test_user_stream_equals_whole_chunk_draws(n_samples):
    spec = SimulationSpec(n_samples=n_samples, seed=11)
    blocks = list(_users(spec, 30.0, 7.5))
    assert all(0 < x.size <= _BLOCK_USERS and y.size == x.size for x, y in blocks)
    x_ref, y_ref = oracle.simulation_users(11, n_samples, STREAM_CHUNK, 30.0, 7.5)
    assert np.array_equal(np.concatenate([x for x, _ in blocks]), x_ref)
    assert np.array_equal(np.concatenate([y for _, y in blocks]), y_ref)


def _count_user_streams(monkeypatch):
    """The room of each `_users` call, in call order."""
    streams = []
    users = montecarlo._users

    def counting_users(spec, d_x, d_y):
        streams.append((d_x, d_y))
        return users(spec, d_x, d_y)

    monkeypatch.setattr(montecarlo, "_users", counting_users)
    return streams


def test_mixed_run_equals_pointwise_simulation(monkeypatch):
    # Two antenna counts, an alpha axis, an h axis and a second room: the
    # d_x = 30 curves share one stream of users and d_x = 12 reads its own.
    streams = _count_user_streams(monkeypatch)
    base = SystemConfig(d_x=30.0, gamma_t_db=97.0)
    configs = [
        (base, 1),
        (base, 10),
        (replace(base, alpha=0.02), 10),
        (replace(base, alpha=0.1), 10),
        (replace(base, h=1.5), 40),
        (replace(base, h=6.0), 1),
        (replace(base, d_x=12.0), 10),
        (replace(base, d_x=12.0, alpha=0.2), 40),
    ]
    points = [
        (replace(config, gamma_t_db=gamma_t_db), make_layout(config, m))
        for config, m in configs
        for gamma_t_db in _CURVE_GAMMAS
    ]
    spec = SimulationSpec(n_samples=30_001, seed=3)
    found = montecarlo._simulate_outages(points, spec)
    assert streams == [(30.0, 10.0), (12.0, 10.0)]
    assert len(found) == len(points)
    for (point, layout), estimate in zip(points, found):
        assert estimate == simulate_outage(point, layout, spec)
        assert estimate.mean == _direct_outage_hits(point, layout, spec) / spec.n_samples
    assert any(0.0 < estimate.mean < 1.0 for estimate in found)


@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_batch_equals_pointwise_simulation(monkeypatch, seed):
    # Whatever the batch order and whatever it holds, each point is its own
    # simulation exactly, and each room's users are still read once.
    streams = _count_user_streams(monkeypatch)
    points = [(config, make_layout(config, m)) for config, m in oracle.mixed_batch(seed)]
    spec = SimulationSpec(n_samples=20_001, seed=9)
    found = montecarlo._simulate_outages(points, spec)
    assert sorted(streams) == [(12.0, 6.0), (30.0, 10.0)]
    monkeypatch.undo()
    assert found == [simulate_outage(config, layout, spec) for config, layout in points]
    assert any(0.0 < estimate.mean < 1.0 for estimate in found)
