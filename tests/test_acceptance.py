"""End-to-end acceptance gate.

Each test checks one release criterion at a fixed tolerance, driving the
bundled experiment configs, and prints a single [PASS]/[FAIL] line. The
expensive sweeps are module-scoped fixtures shared by several tests.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from _golden import assert_golden
from _oracles import naive_rips_rows, random_cloud
from hopftda.cli import ExperimentConfig, bundled_config, run_case
from hopftda.dynsys import (
    BzParams,
    HopfParams,
    LorenzParams,
    NoiseSpec,
    add_noise,
    integrate,
    rk4_stepper,
)
from hopftda.embedding import EmbeddingParams, PointCloud, fnn_fraction, mutual_information
from hopftda.functional import run_sweep
from hopftda.lyapunov import LyapunovConfig, largest_lyapunov, pearson, spearman
from hopftda.persistence import (
    DistanceMatrix,
    bottleneck_distance,
    pairwise_distances,
    rips_persistence,
)

SQRT2 = float(np.sqrt(2.0))


def report(name, failures, detail=""):
    ok = not failures
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    extra = "; ".join(failures) if failures else detail
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, f"{name}: {'; '.join(failures)}"


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def run_bundled(name, tmp_path_factory, jobs=1):
    out = tmp_path_factory.mktemp(name)
    cfg = replace(bundled_config(name), out_dir=str(out))
    t0 = time.perf_counter()
    code = run_case(cfg, jobs=jobs)
    elapsed = time.perf_counter() - t0
    summary = json.loads((out / "summary.json").read_text())
    return cfg, summary, elapsed, code


def level_arrays(summary, level=0):
    pts = [p for p in summary["noise"][level]["points"] if p["status"] == "ok"]
    return np.array([p["mu"] for p in pts]), np.array([p["H"] for p in pts])


def series_factory(cfg: ExperimentConfig, sigma_rel=0.0, seed=0):
    def factory(mu):
        return add_noise(integrate(cfg.params_at(mu), cfg.trajectory()),
                         NoiseSpec(sigma_rel, seed=seed))

    return factory


@pytest.fixture(scope="module")
def case_a(tmp_path_factory):
    return run_bundled("case_a", tmp_path_factory)


@pytest.fixture(scope="module")
def case_b(tmp_path_factory):
    return run_bundled("case_b", tmp_path_factory)


@pytest.fixture(scope="module")
def case_c(tmp_path_factory):
    return run_bundled("case_c", tmp_path_factory)


def lyapunov_over(cfg: ExperimentConfig, mus) -> np.ndarray:
    return np.array([largest_lyapunov(cfg.params_at(mu)) for mu in mus])


@pytest.fixture(scope="module")
def lorenz_correlations(case_b):
    cfg, summary, _, _ = case_b
    mus, hs = level_arrays(summary)
    lams = lyapunov_over(cfg, mus)
    return pearson(hs, lams), spearman(hs, lams)


@pytest.fixture(scope="module")
def hopf_correlations(case_a):
    cfg, summary, _, _ = case_a
    mus, hs = level_arrays(summary)
    lams = lyapunov_over(cfg, mus)
    return pearson(hs, lams), spearman(hs, lams)


@pytest.fixture(scope="module")
def bz_correlations(case_c):
    cfg, summary, _, _ = case_c
    mus, hs = level_arrays(summary)
    lams = lyapunov_over(cfg, mus)
    return pearson(hs, lams), spearman(hs, lams)


@pytest.mark.parametrize("name", ["case_a", "case_b", "case_c"])
def test_golden_digests(name, request):
    cfg, _, _, _ = request.getfixturevalue(name)
    assert_golden(name, cfg.out_dir)


def test_case_a_detection(case_a):
    cfg, summary, elapsed, code = case_a
    fails = []
    check(fails, code == 0, f"exit code {code}")
    step = (cfg.sweep_max - cfg.sweep_min) / (cfg.sweep_count - 1)
    mu_hat = summary["mu_hat"]
    check(fails, abs(mu_hat - 0.0) <= step + 1e-9, f"mu_hat={mu_hat} off by more than {step}")
    mus, hs = level_arrays(summary)
    below = hs[mus <= -0.2]
    check(fails, below.size > 0 and np.all(below < 0.05),
          f"H up to {below.max():.3g} for mu <= -0.2")
    three = run_sweep([0.25, 0.5, 1.0], series_factory(cfg),
                      cfg.embedding(), cfg.persistence())
    increasing = np.all(np.diff(three.h_values) > 0)
    check(fails, increasing, f"H over {{0.25,0.5,1.0}} = {three.h_values} not increasing")
    check(fails, elapsed < 120.0, f"took {elapsed:.0f}s, budget 120s")
    report("Case A detection", fails,
           f"mu_hat={mu_hat}, H(0.25..1.0)={np.round(three.h_values, 3)}, {elapsed:.0f}s")


def test_case_b_detection_under_noise(case_b):
    cfg, summary, elapsed, code = case_b
    fails = []
    check(fails, code == 0, f"exit code {code}")
    rho_c = LorenzParams().rho_critical
    hats = []
    for level, sigma in enumerate(cfg.noise_levels):
        entry = summary["noise"][level]
        check(fails, entry["status"] == "ok", f"sigma={sigma}: {entry['status']}")
        mu_hat = entry["mu_hat"]
        hats.append(mu_hat)
        check(fails, mu_hat is not None and abs(mu_hat - rho_c) <= 1.0,
              f"sigma={sigma}: mu_hat={mu_hat} not within 1.0 of {rho_c:.3f}")
        mus, hs = level_arrays(summary, level)
        pre = hs[mus < 22.0].mean()
        post = hs[mus > 27.0].mean()
        check(fails, post > 3.0 * pre, f"sigma={sigma}: contrast {post:.3g} <= 3x{pre:.3g}")
    check(fails, elapsed < 600.0, f"took {elapsed:.0f}s, budget 600s")
    report("Case B detection under noise", fails,
           f"mu_hat per level={hats}, rho_c={rho_c:.3f}, {elapsed:.0f}s")


def bz_max_real_eigenvalue(b: float) -> float:
    """Leading eigenvalue of the flow linearized at the coexistence point.

    Equilibrium by damped Newton on the printed right-hand side, Jacobian by
    central differences: independent of the closed-form stability condition.
    """
    rhs = BzParams(a=10.0, b=float(b)).rhs()

    def vector_field(state):
        return np.array(rhs(*state))

    state = np.array([1.5, 4.0])
    for _ in range(200):
        f = vector_field(state)
        J = np.empty((2, 2))
        h = 1e-7
        for k in range(2):
            up = state.copy()
            dn = state.copy()
            up[k] += h
            dn[k] -= h
            J[:, k] = (vector_field(up) - vector_field(dn)) / (2 * h)
        delta = np.linalg.solve(J, -f)
        state = state + delta
        if np.max(np.abs(delta)) < 1e-13:
            break
    return float(np.max(np.linalg.eigvals(J).real))


def test_case_c_disappearance(case_c):
    cfg, summary, elapsed, code = case_c
    fails = []
    check(fails, code == 0, f"exit code {code}")
    mus, hs = level_arrays(summary)
    pre = hs[mus < 3.3]
    post = hs[mus > 3.7]
    check(fails, np.all(pre > 0.5), f"pre-transition H down to {pre.min():.3g}")
    check(fails, np.all(post < 0.1 * pre.mean()),
          f"post-transition H up to {post.max():.3g} vs bound {0.1 * pre.mean():.3g}")
    step = (cfg.sweep_max - cfg.sweep_min) / (cfg.sweep_count - 1)
    mu_hat = summary["mu_hat"]
    check(fails, abs(mu_hat - 3.5) <= step + 1e-9, f"mu_hat={mu_hat} not within {step} of 3.5")

    lo, hi = 3.0, 4.0
    g_lo, g_hi = bz_max_real_eigenvalue(lo), bz_max_real_eigenvalue(hi)
    check(fails, g_lo > 0 > g_hi, f"eigenvalue oracle has no sign change: {g_lo}, {g_hi}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bz_max_real_eigenvalue(mid) > 0:
            lo = mid
        else:
            hi = mid
    b_c = 0.5 * (lo + hi)
    check(fails, abs(b_c - 3.5) <= 1e-6, f"eigenvalue oracle b_c={b_c!r}")
    report("Case C disappearance", fails,
           f"mu_hat={mu_hat}, oracle b_c={b_c:.9f}, {elapsed:.0f}s")


def test_embedding_sensitivity(case_a):
    cfg, _, _, _ = case_a
    fails = []
    step = (cfg.sweep_max - cfg.sweep_min) / (cfg.sweep_count - 1)
    grid = cfg.grid()
    factory = series_factory(cfg)
    hats = {}
    for tau, m in [(26, 2), (26, 3), (26, 4), (13, 2), (39, 2)]:
        res = run_sweep(grid, factory, EmbeddingParams(tau=tau, m=m), cfg.persistence())
        hats[(tau, m)] = res.mu_hat
        check(fails, abs(res.mu_hat - 0.0) <= step + 1e-9,
              f"tau={tau} m={m}: mu_hat={res.mu_hat}")
    # (26, 2) serves both the m-scan and the tau-scan, six configurations total
    report("Embedding sensitivity", fails, f"mu_hat by (tau,m): {hats}")


def test_correlations(lorenz_correlations, hopf_correlations, bz_correlations):
    (lorenz_r, _), (lorenz_rho, _) = lorenz_correlations
    (hopf_r, _), (hopf_rho, _) = hopf_correlations
    (bz_r, _), (bz_rho, _) = bz_correlations
    fails = []
    check(fails, lorenz_r > 0.8, f"Lorenz pearson r={lorenz_r:.4f} <= 0.8")
    check(fails, hopf_rho > 0.85, f"Hopf spearman rho={hopf_rho:.4f} <= 0.85")
    check(fails, bz_r > 0 and bz_rho > 0, f"BZ coefficients not positive: {bz_r:.4f}, {bz_rho:.4f}")
    check(fails, bz_r < lorenz_r and bz_rho < lorenz_r,
          f"BZ coefficients not below Lorenz r: {bz_r:.4f}, {bz_rho:.4f} vs {lorenz_r:.4f}")
    report("Correlations with Lyapunov baseline", fails,
           f"lorenz r={lorenz_r:.4f}, hopf rho={hopf_rho:.4f}, "
           f"bz r={bz_r:.4f} rho={bz_rho:.4f}")


def test_persistence_oracle_suite():
    fails = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        cloud = random_cloud(rng, n, m)
        dist = pairwise_distances(cloud)
        got = rips_persistence(dist).rows()
        want = naive_rips_rows(dist.entries)
        if got != want:
            mismatches += 1
    check(fails, mismatches == 0, f"{mismatches} of 200 clouds disagree with naive reduction")

    square = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    h1 = rips_persistence(pairwise_distances(square)).pairs(1)
    check(fails, h1.shape == (1, 2) and h1[0, 0] == 1.0 and h1[0, 1] == SQRT2,
          f"unit square H1 = {h1}")

    line = DistanceMatrix(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]))
    deaths = sorted(rips_persistence(line).pairs(0)[:, 1].tolist())
    check(fails, deaths == [1.0, 2.0, np.inf], f"collinear H0 deaths {deaths}")
    elapsed = time.perf_counter() - t0
    check(fails, elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s")
    report("Persistence oracle suite", fails, f"200 clouds exact, {elapsed:.1f}s")


def test_stability_property():
    fails = []
    worst = 0.0
    n = 200
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        angles = rng.uniform(0.0, 2.0 * np.pi, n)
        clean = np.column_stack([np.cos(angles), np.sin(angles)])
        clean_diagram = rips_persistence(pairwise_distances(PointCloud(clean)))
        for delta in (0.01, 0.05):
            radius = delta * np.sqrt(rng.uniform(0.0, 1.0, n))
            theta = rng.uniform(0.0, 2.0 * np.pi, n)
            pert = clean + np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
            pert_diagram = rips_persistence(pairwise_distances(PointCloud(pert)))
            d = bottleneck_distance(clean_diagram, pert_diagram, dim=1)
            worst = max(worst, d / delta)
            if d > 2.0 * delta + 1e-12:
                fails.append(f"trial {trial} delta {delta}: d_B={d:.4f} > {2 * delta}")
    report("Stability under pointwise perturbation", fails,
           f"100 trials x 2 deltas, worst d_B/delta = {worst:.3f} (bound 2)")


def test_lyapunov_baselines():
    fails = []
    lam_stable = largest_lyapunov(HopfParams(mu=-0.5))
    check(fails, abs(lam_stable - (-0.5)) <= 0.025, f"hopf mu=-0.5: {lam_stable}")
    lam_cycle = largest_lyapunov(HopfParams(mu=0.5))
    check(fails, abs(lam_cycle) <= 0.02, f"hopf mu=0.5: {lam_cycle}")
    lam_lorenz = largest_lyapunov(LorenzParams(rho=28.0))
    check(fails, abs(lam_lorenz - 0.90) <= 0.05, f"lorenz rho=28: {lam_lorenz}")
    halved = largest_lyapunov(
        LorenzParams(rho=28.0),
        LyapunovConfig(dt=0.005, n_steps=400_000, transient_steps=80_000),
    )
    check(fails, abs(halved - lam_lorenz) < 0.02,
          f"step halving moved lorenz lambda1 by {abs(halved - lam_lorenz):.4f}")
    # sign structure across each critical reference
    check(fails, largest_lyapunov(LorenzParams(rho=20.0)) < 0.0, "lorenz rho=20 not negative")
    check(fails, abs(largest_lyapunov(BzParams(a=10.0, b=3.0))) <= 0.02, "bz b=3 not neutral")
    check(fails, largest_lyapunov(BzParams(a=10.0, b=4.5)) < -0.05, "bz b=4.5 not contracting")
    report("Lyapunov baselines", fails,
           f"hopf {lam_stable:.4f}/{lam_cycle:.5f}, lorenz {lam_lorenz:.4f} "
           f"(halved {halved:.4f})")


def test_numerical_property_suite():
    fails = []

    # RK4 order: global error over [0,1] for x' = x, as two decoupled
    # coordinates, shrinks ~16x per halving
    def global_error(dt):
        steps = round(1.0 / dt)
        step = rk4_stepper(lambda x, y: (x, y), 2, dt)
        x = (1.0, 1.0)
        for _ in range(steps):
            x = step(*x)
        return abs(x[0] - math.e)

    ratio = global_error(0.01) / global_error(0.005)
    check(fails, 12.0 <= ratio <= 20.0, f"RK4 halving ratio {ratio:.2f} outside [12, 20]")

    from hopftda.dynsys import TimeSeries

    rng = np.random.default_rng(42)
    for _ in range(200):
        values = rng.standard_normal(int(rng.integers(60, 400)))
        lag = int(rng.integers(1, 10))
        mi = mutual_information(TimeSeries(0.0, 1.0, values), lag)
        mi_rev = mutual_information(TimeSeries(0.0, 1.0, values[::-1]), lag)
        if mi < 0:
            fails.append(f"negative MI {mi}")
            break
        if not np.isclose(mi, mi_rev, atol=1e-12):
            fails.append(f"MI reversal asymmetry {mi} vs {mi_rev}")
            break

    t = np.arange(500)
    sinusoid = TimeSeries(0.0, 1.0, np.sin(2 * np.pi * t / 100.0))
    frac = fnn_fraction(sinusoid, tau=25, m=2)
    check(fails, frac < 0.02, f"FNN on sinusoid at m=2: {frac}")

    bad_bounds = bad_affine = bad_monotone = 0
    for trial in range(1000):
        trng = np.random.default_rng(9000 + trial)
        n = int(trng.integers(3, 30))
        x = trng.normal(size=n)
        y = trng.normal(size=n)
        r, p = pearson(x, y)
        rho, rho_p = spearman(x, y)
        if not (-1 <= r <= 1 and 0 <= p <= 1 and -1 <= rho <= 1 and 0 <= rho_p <= 1):
            bad_bounds += 1
            continue
        a, c = trng.uniform(0.1, 4.0, size=2) * trng.choice([-1.0, 1.0], size=2)
        r2, _ = pearson(a * x + trng.uniform(-2, 2), c * y + trng.uniform(-2, 2))
        if abs(r2 - math.copysign(1.0, a * c) * r) > 1e-12:
            bad_affine += 1
        rho2, p2 = spearman(x, np.exp(y))
        if rho2 != rho or p2 != rho_p:
            bad_monotone += 1
    check(fails, bad_bounds == 0, f"{bad_bounds}/1000 bound violations")
    check(fails, bad_affine == 0, f"{bad_affine}/1000 affine equivariance violations")
    check(fails, bad_monotone == 0, f"{bad_monotone}/1000 monotone invariance violations")
    report("Numerical property suite", fails,
           f"rk4 ratio {ratio:.1f}, fnn {frac:.4f}, 1000 correlation trials clean")
