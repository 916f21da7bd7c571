"""Delay-embedding, mutual-information and FNN tests."""

import math

import numpy as np
import pytest

from hopftda.dynsys import HopfParams, TimeSeries, TrajectoryConfig, integrate
from hopftda.embedding import (
    DEFAULT_N_BINS,
    EmbeddingParams,
    PointCloud,
    delay_embed,
    fnn_fraction,
    mutual_information,
    select_delay,
    select_dimension,
)


def make_series(values):
    return TimeSeries(t0=0.0, dt=1.0, values=np.asarray(values, dtype=float))


# ---------------------------------------------------------------- delay_embed

def test_delay_embed_tau1_m2():
    cloud = delay_embed(make_series([1, 2, 3, 4, 5]), EmbeddingParams(tau=1, m=2))
    assert np.array_equal(cloud.points, np.array([[2, 1], [3, 2], [4, 3], [5, 4]]))


def test_delay_embed_tau2_m3():
    cloud = delay_embed(make_series([1, 2, 3, 4, 5, 6]), EmbeddingParams(tau=2, m=3))
    assert np.array_equal(cloud.points, np.array([[5, 3, 1], [6, 4, 2]]))


def test_delay_embed_m1_identity():
    values = [3.0, 1.0, 4.0, 1.5]
    cloud = delay_embed(make_series(values), EmbeddingParams(tau=7, m=1))
    assert np.array_equal(cloud.points[:, 0], np.array(values))


def test_delay_embed_cardinality():
    rng = np.random.default_rng(11)
    for _ in range(50):
        length = int(rng.integers(10, 200))
        tau = int(rng.integers(1, 8))
        m = int(rng.integers(1, 5))
        if length <= (m - 1) * tau:
            continue
        series = make_series(rng.standard_normal(length))
        cloud = delay_embed(series, EmbeddingParams(tau=tau, m=m))
        assert len(cloud) == length - (m - 1) * tau
        assert cloud.dim == m


def test_delay_embed_too_short():
    with pytest.raises(ValueError, match="too short"):
        delay_embed(make_series([1, 2, 3]), EmbeddingParams(tau=2, m=3))


def test_embedding_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(tau=0, m=2)
    with pytest.raises(ValueError):
        EmbeddingParams(tau=1, m=0)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[1.0, np.inf]]))


# --------------------------------------------------------- mutual_information

def test_mi_constant_series_zero():
    assert mutual_information(make_series(np.ones(100)), lag=5) == 0.0


def test_mi_periodic_equals_marginal_entropy():
    # period equal to the lag makes every pair (x, x): joint mass sits on the
    # diagonal and MI reduces to the marginal histogram entropy
    base = np.array([0.0, 0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 0.8])
    values = np.tile(base, 50)
    series = make_series(values)
    lag = base.size
    counts = np.histogram(values[lag:], bins=np.linspace(0.0, 0.9, DEFAULT_N_BINS + 1))[0]
    p = counts / counts.sum()
    marginal_entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
    assert mutual_information(series, lag=lag) == pytest.approx(marginal_entropy, rel=1e-12)


def test_mi_iid_uniform_near_zero():
    rng = np.random.default_rng(123)
    series = make_series(rng.uniform(size=10_000))
    for lag in (1, 7, 50):
        assert 0.0 <= mutual_information(series, lag) < 0.05


def test_mi_nonnegative_randomized():
    rng = np.random.default_rng(7)
    for _ in range(30):
        series = make_series(rng.standard_normal(int(rng.integers(50, 500))))
        lag = int(rng.integers(1, 10))
        assert mutual_information(series, lag) >= -1e-12


def test_mi_reversal_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(20):
        values = rng.standard_normal(400)
        forward = mutual_information(make_series(values), lag=3)
        backward = mutual_information(make_series(values[::-1]), lag=3)
        assert abs(forward - backward) < 1e-9


def test_mi_validation():
    series = make_series(np.arange(100))
    with pytest.raises(ValueError):
        mutual_information(series, lag=0)
    with pytest.raises(ValueError):
        mutual_information(series, lag=99)
    with pytest.raises(ValueError):
        mutual_information(series, lag=1, n_bins=1)


# ---------------------------------------------------------------- select_delay

def test_select_delay_monotone_ramp_no_minimum():
    # length is chosen so the binned MI of the ramp decays over the whole scan
    # range (short ramps alias against the 16-bin grid and dip near lag 10)
    sel = select_delay(make_series(np.arange(3000.0)), max_lag=20)
    assert not sel.local_minimum
    assert sel.tau == 20  # argmin fallback sits at the cap


def test_select_delay_constant_series_no_minimum():
    sel = select_delay(make_series(np.zeros(100)), max_lag=10)
    assert not sel.local_minimum
    assert sel.tau == 1  # all-zero MI curve, first index wins


def test_select_delay_noisy_sinusoid_interior_minimum():
    # a noisy oscillation has a genuine interior MI minimum; frozen outcome
    # for this seed (the noiseless curve instead has early binning kinks)
    rng = np.random.default_rng(0)
    t = np.arange(8000)
    series = make_series(np.sin(2 * np.pi * t / 100.0) + 0.05 * rng.standard_normal(8000))
    sel = select_delay(series, max_lag=40)
    assert sel.local_minimum
    assert sel.tau == 19
    assert sel.mi_bits.shape == (40,)


def test_select_delay_hopf_defaults_deterministic():
    # limit-cycle series at mu=1: the binned-MI curve dips at its first
    # bin-crossing kink well before the ~157-sample quarter period
    series = integrate(HopfParams(mu=1.0), TrajectoryConfig())
    sel = select_delay(series)
    assert sel.local_minimum
    assert sel.tau == 10


def test_select_delay_validation():
    with pytest.raises(ValueError):
        select_delay(make_series(np.arange(10.0)), max_lag=9)
    with pytest.raises(ValueError):
        select_delay(make_series(np.arange(100.0)), max_lag=1)


# ---------------------------------------------------------------- fnn_fraction

def test_fnn_white_noise_high():
    rng = np.random.default_rng(5)
    series = make_series(rng.standard_normal(2000))
    assert fnn_fraction(series, tau=1, m=1) > 0.5


def test_fnn_sinusoid_plane_low():
    t = np.arange(500)
    series = make_series(np.sin(2 * np.pi * t / 100.0))
    assert fnn_fraction(series, tau=25, m=2) < 0.02


def test_fnn_monotone_on_sinusoid():
    t = np.arange(500)
    series = make_series(np.sin(2 * np.pi * t / 100.0))
    assert fnn_fraction(series, tau=25, m=2) <= fnn_fraction(series, tau=25, m=1)


def test_fnn_constant_series_zero():
    assert fnn_fraction(make_series(np.ones(100)), tau=2, m=2) == 0.0


def test_fnn_too_short():
    with pytest.raises(ValueError):
        fnn_fraction(make_series(np.arange(5.0)), tau=2, m=2)


# ------------------------------------------------------------ select_dimension

def test_select_dimension_sinusoid():
    t = np.arange(2000)
    series = make_series(np.sin(2 * np.pi * t / 100.0))
    sel = select_dimension(series, tau=25)
    assert sel.converged
    assert sel.m == 2


def test_select_dimension_hopf_case():
    series = integrate(HopfParams(mu=1.0), TrajectoryConfig())
    sel = select_dimension(series, tau=26)
    assert sel.converged
    assert sel.m == 2


def test_select_dimension_white_noise_not_converged():
    rng = np.random.default_rng(17)
    series = make_series(rng.standard_normal(3000))
    sel = select_dimension(series, tau=1)
    assert not sel.converged
    assert sel.m == 6
