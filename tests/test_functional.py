"""Tests for the topological observables and the critical-parameter estimate."""

import logging

import numpy as np
import pytest

from hopftda.dynsys import IntegrationDiverged, TimeSeries
from hopftda.embedding import EmbeddingParams, PointCloud
from hopftda.functional import (
    BettiGrid,
    PersistenceConfig,
    betti_curve,
    betti_l1,
    delta_series,
    estimate_critical,
    max_persistence,
    run_sweep,
)
from hopftda.persistence import PersistenceDiagram, pairwise_distances, rips_persistence

SQRT2 = float(np.sqrt(2.0))


def diagram(rows):
    rows = list(rows)
    return PersistenceDiagram(
        dims=np.array([r[0] for r in rows], dtype=np.int64),
        births=np.array([r[1] for r in rows], dtype=float),
        deaths=np.array([r[2] for r in rows], dtype=float),
    )


EMPTY = diagram([])


# ------------------------------------------------------------- max_persistence

def test_max_persistence_empty_is_zero():
    assert max_persistence(EMPTY, dim=1) == 0.0


def test_max_persistence_direct_max():
    d = diagram([(1, 0.2, 0.9), (1, 0.1, 0.3)])
    assert max_persistence(d, dim=1) == pytest.approx(0.7)


def test_max_persistence_unit_square_pipeline():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    d = rips_persistence(pairwise_distances(cloud))
    assert max_persistence(d, dim=1) == pytest.approx(SQRT2 - 1.0, abs=1e-12)


def test_max_persistence_rejects_open_h1():
    d = diagram([(1, 0.5, np.inf)])
    with pytest.raises(ValueError):
        max_persistence(d, dim=1)


def test_max_persistence_dim0_skips_infinite():
    d = diagram([(0, 0.0, 1.0), (0, 0.0, 2.5), (0, 0.0, np.inf)])
    assert max_persistence(d, dim=0) == 2.5


# ----------------------------------------------------------------- betti_curve

def test_betti_curve_single_pair():
    grid = betti_curve(diagram([(1, 1.0, 3.0)]), 1, np.array([0.0, 1, 2, 3, 4]))
    assert grid.counts.tolist() == [0, 1, 1, 0, 0]


def test_betti_curve_empty_diagram():
    grid = betti_curve(EMPTY, 1, np.linspace(0, 1, 5))
    assert grid.counts.tolist() == [0, 0, 0, 0, 0]


def test_betti_curve_nested_pairs():
    d = diagram([(1, 1.0, 4.0), (1, 2.0, 3.0)])
    grid = betti_curve(d, 1, np.array([1.5, 2.5]))
    assert grid.counts.tolist() == [1, 2]


def test_betti_curve_counts_open_classes():
    d = diagram([(0, 0.0, np.inf)])
    grid = betti_curve(d, 0, np.array([0.0, 10.0, 1e6]))
    assert grid.counts.tolist() == [1, 1, 1]


def test_betti_curve_rejects_descending_grid():
    with pytest.raises(ValueError):
        betti_curve(EMPTY, 1, np.array([1.0, 0.5]))


# -------------------------------------------------------------------- betti_l1

def test_betti_l1_single_pair():
    grid = betti_curve(diagram([(1, 1.0, 3.0)]), 1, np.array([0.0, 1, 2, 3, 4]))
    assert betti_l1(grid) == pytest.approx(2.0)


def test_betti_l1_zero_counts():
    grid = BettiGrid(eps_values=np.linspace(0, 1, 8), counts=np.zeros(8, dtype=int))
    assert betti_l1(grid) == 0.0


def test_betti_l1_rejects_nonuniform_grid():
    grid = BettiGrid(eps_values=np.array([0.0, 1.0, 3.0]), counts=np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        betti_l1(grid)


def test_betti_l1_resolution_refinement_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n_pairs = int(rng.integers(1, 8))
        births = rng.uniform(0, 1, n_pairs)
        deaths = births + rng.uniform(0.05, 1, n_pairs)
        d = diagram([(1, b, x) for b, x in zip(births, deaths)])
        hi = float(deaths.max())
        coarse = betti_l1(betti_curve(d, 1, np.linspace(0, hi, 64)))
        fine = betti_l1(betti_curve(d, 1, np.linspace(0, hi, 127)))
        assert abs(coarse - fine) < (hi / 63) * n_pairs


# ---------------------------------------------------------------- delta_series

def test_delta_series_examples():
    assert delta_series([0, 0, 1, 1.5]).tolist() == [0.0, 1.0, 0.5]
    assert delta_series([2.0, 2.0, 2.0]).tolist() == [0.0, 0.0]
    assert delta_series([3, 1]).tolist() == [2.0]


def test_delta_series_rejects_short_input():
    with pytest.raises(ValueError):
        delta_series([1.0])


# ----------------------------------------------------------- estimate_critical

def test_estimate_critical_unique_jump():
    mu = estimate_critical([-1, -0.5, 0, 0.5, 1], [0, 0, 0, 0.8, 1.0])
    assert mu == 0.5


def test_estimate_critical_all_equal_tie():
    assert estimate_critical([0.0, 0.25, 0.5, 0.75], [1, 1, 1, 1]) == 0.25


def test_estimate_critical_disappearance():
    mu = estimate_critical([3.0, 3.25, 3.5, 3.75], [2.0, 1.9, 0.1, 0.05])
    assert mu == 3.5


def test_estimate_critical_validation():
    with pytest.raises(ValueError):
        estimate_critical([0, 1], [1.0])
    with pytest.raises(ValueError):
        estimate_critical([0, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        estimate_critical([1.0], [1.0])


def test_estimate_critical_locality():
    params = [-1.0, -0.5, 0.0, 0.5, 1.0]
    h = [0.0, 0.0, 0.0, 0.9, 1.0]
    base = estimate_critical(params, h)
    # a new point in the flat region does not move the estimate
    assert estimate_critical([-2.0] + params, [0.0] + h) == base


def test_estimate_critical_scaling_invariance():
    rng = np.random.default_rng(3)
    params = np.sort(rng.uniform(-1, 1, 15))
    params += np.arange(15) * 1e-9  # guard against duplicates
    h = rng.uniform(0, 2, 15)
    base = estimate_critical(params, h)
    assert estimate_critical(params, 7.5 * h) == base


# ------------------------------------------------------------------- run_sweep

def sine_family(mu: float) -> TimeSeries:
    """Amplitude switches on at mu = 0, mimicking a supercritical transition."""
    t = np.arange(400, dtype=float)
    amplitude = np.sqrt(mu) if mu > 0 else 0.0
    values = amplitude * np.sin(2 * np.pi * t / 100.0 + 0.3)
    return TimeSeries(t0=0.0, dt=1.0, values=values)


def test_run_sweep_detects_synthetic_transition():
    params = np.linspace(-1, 1, 21)
    result = run_sweep(
        params,
        sine_family,
        embedding=EmbeddingParams(tau=25, m=2),
        config=PersistenceConfig(n_max=120, seed=0),
    )
    assert result.failures == ()
    assert abs(result.mu_hat - 0.0) <= 0.1 + 1e-12
    below = result.h_values[result.params < 0]
    above = result.h_values[result.params >= 0.2]
    assert np.all(below < 0.05)
    assert np.all(above > 0.5)
    assert len(result.diagrams) == 21
    assert delta_series(result.h_values).tolist() == np.abs(np.diff(result.h_values)).tolist()


def test_run_sweep_identical_series_flat():
    series = sine_family(0.5)
    result = run_sweep(
        [0.0, 1.0, 2.0],
        lambda mu: series,
        embedding=EmbeddingParams(tau=25, m=2),
    )
    assert np.all(result.h_values == result.h_values[0])
    assert np.all(delta_series(result.h_values) == 0.0)
    assert result.mu_hat == 1.0  # all-zero deltas tie to the smallest index


def test_run_sweep_excludes_failures():
    def factory(mu: float) -> TimeSeries:
        if abs(mu - 0.4) < 1e-9:
            raise IntegrationDiverged("state left the finite box", step=17)
        return sine_family(mu)

    params = np.linspace(-1, 1, 11)
    result = run_sweep(params, factory, embedding=EmbeddingParams(tau=25, m=2))
    assert len(result.failures) == 1
    assert result.failures[0][0] == pytest.approx(0.4)
    assert "IntegrationDiverged" in result.failures[0][1]
    assert result.params.shape[0] == 10
    assert 0.4 not in result.params.tolist()


def test_run_sweep_propagates_programming_errors():
    # only expected failures exclude a point; anything else is a bug
    def factory(mu: float) -> TimeSeries:
        if mu > 0.5:
            raise RuntimeError("not an expected failure")
        return sine_family(mu)

    with pytest.raises(RuntimeError, match="not an expected failure"):
        run_sweep([0.0, 0.25, 1.0], factory, embedding=EmbeddingParams(tau=25, m=2))


def test_run_sweep_logs_each_point(caplog):
    def factory(mu: float) -> TimeSeries:
        if mu == 0.5:
            raise IntegrationDiverged("state left the finite box", step=3)
        return sine_family(mu)

    with caplog.at_level(logging.INFO, logger="hopftda.functional"):
        run_sweep([0.0, 0.5, 1.0], factory, embedding=EmbeddingParams(tau=25, m=2),
                  config=PersistenceConfig(n_max=40))
    lines = [r.getMessage() for r in caplog.records if r.name == "hopftda.functional"]
    assert len(lines) == 3
    assert lines[0].startswith("sigma_rel=0 mu=0.0: ok, H=")
    assert lines[1].startswith("sigma_rel=0 mu=0.5: failed: IntegrationDiverged")
    assert lines[2].startswith("sigma_rel=0 mu=1.0: ok, H=")


def test_run_sweep_fails_below_two_successes():
    def bad(mu: float) -> TimeSeries:
        raise IntegrationDiverged("diverged", step=0)

    with pytest.raises(RuntimeError, match="sweep failed"):
        run_sweep([0.0, 1.0, 2.0], bad, embedding=EmbeddingParams(tau=1, m=2))


def test_run_sweep_deterministic():
    params = np.linspace(-0.5, 0.5, 5)
    kwargs = dict(
        series_factory=sine_family,
        embedding=EmbeddingParams(tau=25, m=2),
        config=PersistenceConfig(n_max=80, seed=3),
    )
    r1 = run_sweep(params, **kwargs)
    r2 = run_sweep(params, **kwargs)
    assert np.array_equal(r1.h_values, r2.h_values)
    assert np.array_equal(r1.betti_l1, r2.betti_l1)
    assert r1.mu_hat == r2.mu_hat


def test_run_sweep_validates_params():
    with pytest.raises(ValueError):
        run_sweep([1.0], sine_family, embedding=EmbeddingParams(tau=25, m=2))
    with pytest.raises(ValueError):
        run_sweep([1.0, 1.0], sine_family, embedding=EmbeddingParams(tau=25, m=2))
