import logging
import math

import numpy as np
import pytest
from scipy import stats

from hopftda.dynsys import HopfParams, IntegrationDiverged, LorenzParams
from hopftda.lyapunov import (
    CorrelationReport,
    LyapunovConfig,
    correlate_sweep,
    largest_lyapunov,
    pearson,
    spearman,
)


class TestPearson:
    def test_quadratic_example(self):
        # hand reduction: sxy=25, sxx=5, syy=129 -> r = 25/sqrt(645)
        r, p = pearson([1, 2, 3, 4], [1, 4, 9, 16])
        assert r == pytest.approx(25.0 / math.sqrt(645.0), abs=1e-15)
        assert 0.0 < p < 0.05

    def test_exact_linear(self):
        x = np.arange(10.0)
        r, p = pearson(x, 3.0 * x - 2.0)
        assert r == pytest.approx(1.0, abs=1e-14)
        r2, p2 = pearson(x, -0.5 * x + 4.0)
        assert r2 == pytest.approx(-1.0, abs=1e-14)
        # |r| = 1 pins the t statistic at infinity
        assert p == 0.0 and p2 == 0.0

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + rng.uniform(-1, 1) * x
            r, p = pearson(x, y)
            r_ref, p_ref = stats.pearsonr(x, y)
            assert r == pytest.approx(r_ref, abs=1e-12)
            assert p == pytest.approx(p_ref, abs=1e-10)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            a, c = rng.uniform(0.1, 5.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            b, d = rng.uniform(-3.0, 3.0, size=2)
            r, _ = pearson(x, y)
            r2, _ = pearson(a * x + b, c * y + d)
            assert r2 == pytest.approx(math.copysign(1.0, a * c) * r, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 25))
            r, p = pearson(rng.normal(size=n), rng.normal(size=n))
            assert -1.0 <= r <= 1.0
            assert 0.0 <= p <= 1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])


class TestSpearman:
    def test_tied_rank_example(self):
        # ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4] -> rho = sqrt(0.9)
        rho, p = spearman([1, 2, 2, 3], [1, 2, 3, 4])
        assert rho == pytest.approx(math.sqrt(0.9), abs=1e-15)
        assert 0.0 <= p <= 1.0

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            # round to force ties in roughly half the trials
            x = np.round(rng.normal(size=n), 1)
            y = rng.normal(size=n)
            if np.unique(x).shape[0] < 2:
                continue
            rho, _ = spearman(x, y)
            rho_ref, _ = stats.spearmanr(x, y)
            assert rho == pytest.approx(rho_ref, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            rho, p = spearman(x, y)
            rho2, p2 = spearman(x, np.exp(y))
            rho3, p3 = spearman(x ** 3, y)
            assert rho2 == rho and p2 == p
            assert rho3 == rho and p3 == p

    def test_perfect_monotone(self):
        x = np.array([0.3, 1.7, 2.0, 5.5, 9.1])
        rho, p = spearman(x, x ** 3)
        assert rho == pytest.approx(1.0, abs=1e-14)
        assert p == 0.0

    def test_all_tied_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            spearman([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])


class TestLargestLyapunov:
    def test_stable_focus_rate(self):
        # contraction rate of the radial equation at mu < 0 is mu itself
        lam = largest_lyapunov(HopfParams(mu=-0.5))
        assert lam == pytest.approx(-0.5, rel=0.05)

    def test_limit_cycle_neutral_direction(self):
        lam = largest_lyapunov(HopfParams(mu=0.5))
        assert abs(lam) <= 0.02

    def test_lorenz_chaotic_value(self):
        lam = largest_lyapunov(LorenzParams(rho=28.0))
        assert lam == pytest.approx(0.90, abs=0.05)

    def test_step_refinement_consistency(self):
        base = LyapunovConfig(dt=0.01, n_steps=60_000, transient_steps=12_000)
        fine = LyapunovConfig(dt=0.005, n_steps=120_000, transient_steps=24_000)
        a = largest_lyapunov(HopfParams(mu=-0.5), base)
        b = largest_lyapunov(HopfParams(mu=-0.5), fine)
        assert abs(a - b) < 0.02

    def test_deterministic(self):
        cfg = LyapunovConfig(n_steps=20_000, transient_steps=4_000, seed=5)
        a = largest_lyapunov(LorenzParams(rho=28.0), cfg)
        b = largest_lyapunov(LorenzParams(rho=28.0), cfg)
        assert a == b

    def test_divergence_raises(self):
        cfg = LyapunovConfig(dt=10.0, n_steps=2_000, transient_steps=100)
        with pytest.raises(IntegrationDiverged) as err:
            largest_lyapunov(LorenzParams(rho=28.0), cfg)
        # the transient (100 steps) ends before the first periodic check
        assert str(err.value) == "state left the finite box (step 100)"
        assert err.value.step == 100

    def test_zero_separation_reseeds(self, caplog):
        # d0 below one ulp of the state makes y == x exactly at every renorm
        cfg = LyapunovConfig(d0=1e-30, n_steps=2_000, transient_steps=500)
        with caplog.at_level(logging.WARNING, logger="hopftda.lyapunov"):
            lam = largest_lyapunov(HopfParams(mu=-1.0), cfg)
        assert lam == 0.0
        assert any("re-seeding" in rec.message for rec in caplog.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LyapunovConfig(dt=0.0)
        with pytest.raises(ValueError):
            LyapunovConfig(n_steps=100, transient_steps=100)
        with pytest.raises(ValueError):
            LyapunovConfig(renorm_interval=0)
        with pytest.raises(ValueError):
            LyapunovConfig(d0=-1e-8)


class TestCorrelateSweep:
    def test_perfect_linear_relation(self):
        h = np.array([0.0, 0.1, 0.4, 0.9, 1.6])
        report = correlate_sweep(h, 2.0 * h + 1.0)
        assert isinstance(report, CorrelationReport)
        assert report.pearson_r == pytest.approx(1.0, abs=1e-14)
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-14)
        assert report.n == 5
        assert report.p_method == "student-t"

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lyapunov grid has 2 values, sweep has 3"):
            correlate_sweep([0.0, 0.1, 0.4], [1.0, 2.0])
