"""Scalar topological observables over a parameter sweep.

H(mu) is the largest finite H1 persistence of the embedded cloud at mu, the
Betti L1 norm integrates the H1 Betti curve over a uniform scale grid, and
the critical-parameter estimate is the grid point receiving the largest
absolute jump of H.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynsys import IntegrationDiverged, NoiseSpec, TimeSeries, add_noise
from .embedding import EmbeddingParams, delay_embed, select_delay, select_dimension
from .persistence import (
    DEFAULT_N_MAX,
    PersistenceDiagram,
    maxmin_subsample,
    pairwise_distances,
    rips_persistence,
)

logger = logging.getLogger(__name__)

# resolution of the Betti-curve sampling grid from 0 to the cloud's diameter
DEFAULT_EPS_GRID_SIZE = 64

# grid points of one noise level all derive from one base; levels are spaced
# far enough apart that their streams never collide on sensible grid sizes
NOISE_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class BettiGrid:
    """Betti numbers sampled on an ascending scale grid."""

    eps_values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps_values, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if eps.ndim != 1 or eps.shape[0] == 0 or eps.shape != counts.shape:
            raise ValueError("eps_values and counts must be aligned 1-d arrays")
        if np.any(np.diff(eps) < 0) or not np.all(np.isfinite(eps)):
            raise ValueError("eps grid must be ascending and finite")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "eps_values", eps)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class PersistenceConfig:
    """Knobs for the per-parameter persistence stage of a sweep.

    seed is a base value; grid point j subsamples with seed + j so that a
    single point can be reproduced in isolation.
    """

    n_max: int = DEFAULT_N_MAX
    seed: int = 0
    eps_grid_size: int = DEFAULT_EPS_GRID_SIZE

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.eps_grid_size < 2:
            raise ValueError(f"eps_grid_size must be >= 2, got {self.eps_grid_size}")


@dataclass(frozen=True)
class SweepResult:
    """Per-parameter observables of a sweep, failures excluded.

    params holds the values that succeeded (ascending); failures pairs each
    excluded value with the reason. mu_hat is always one of params, or None
    when fewer than 2 values succeeded (only sweep_levels returns such a
    result; run_sweep raises).
    """

    params: np.ndarray
    h_values: np.ndarray
    betti_l1: np.ndarray
    mu_hat: Optional[float]
    diagrams: Tuple[PersistenceDiagram, ...] = ()
    failures: Tuple[Tuple[float, str], ...] = ()

    @property
    def delta_h(self) -> np.ndarray:
        """|h_values[i+1] - h_values[i]|; empty below 2 values."""
        return np.abs(np.diff(self.h_values))

    @property
    def status(self) -> str:
        if self.mu_hat is not None:
            return "ok"
        total = self.params.shape[0] + len(self.failures)
        return f"failed: only {self.params.shape[0]} of {total} parameter values succeeded"


def max_persistence(diagram: PersistenceDiagram, dim: int = 1) -> float:
    """Largest finite death - birth among pairs of the dimension; 0 if none.

    A diagram with an infinite pair in dimension 1 is rejected: it means the
    filtration was capped below the scale where the loop fills in, and the
    functional is not defined there.
    """
    pairs = diagram.pairs(dim)
    if pairs.shape[0] == 0:
        return 0.0
    infinite = np.isinf(pairs[:, 1])
    if dim == 1 and np.any(infinite):
        raise ValueError("dimension-1 diagram has an unresolved infinite pair")
    finite = pairs[~infinite]
    if finite.shape[0] == 0:
        return 0.0
    return float(np.max(finite[:, 1] - finite[:, 0]))


def betti_curve(diagram: PersistenceDiagram, dim: int, eps_grid: np.ndarray) -> BettiGrid:
    """Number of classes alive at each scale: birth <= eps < death."""
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.shape[0] == 0:
        raise ValueError("eps_grid must be a nonempty 1-d array")
    if np.any(np.diff(eps) < 0):
        raise ValueError("eps_grid must be ascending")
    pairs = diagram.pairs(dim)
    if pairs.shape[0] == 0:
        counts = np.zeros(eps.shape[0], dtype=np.int64)
    else:
        alive = (pairs[:, 0:1] <= eps[None, :]) & (eps[None, :] < pairs[:, 1:2])
        counts = alive.sum(axis=0)
    return BettiGrid(eps_values=eps, counts=counts)


def betti_l1(grid: BettiGrid) -> float:
    """Riemann-sum L1 norm of the Betti curve on a uniform grid."""
    eps = grid.eps_values
    if eps.shape[0] < 2:
        raise ValueError("betti_l1 needs a grid of at least 2 points")
    steps = np.diff(eps)
    width = (eps[-1] - eps[0]) / (eps.shape[0] - 1)
    if not np.allclose(steps, width, rtol=1e-9, atol=1e-12 * max(abs(width), 1.0)):
        raise ValueError("betti_l1 requires a uniformly spaced grid")
    return float(np.sum(grid.counts) * width)


def delta_series(h_values: Sequence[float]) -> np.ndarray:
    """Absolute first differences |H(mu_j) - H(mu_{j-1})|, length M-1."""
    h = np.asarray(h_values, dtype=float)
    if h.ndim != 1 or h.shape[0] < 2:
        raise ValueError("delta_series needs at least 2 values")
    return np.abs(np.diff(h))


def estimate_critical(params: Sequence[float], h_values: Sequence[float]) -> float:
    """Grid point receiving the largest jump of H, ties to the smallest index.

    The jump between mu_{j-1} and mu_j is attributed to the right endpoint
    mu_j, so the estimate is always the second point or later.
    """
    p = np.asarray(params, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if p.shape != h.shape or p.ndim != 1:
        raise ValueError("params and h_values must be aligned 1-d arrays")
    if p.shape[0] < 2:
        raise ValueError("need at least 2 parameter values")
    if np.any(np.diff(p) <= 0):
        raise ValueError("params must be strictly ascending")
    deltas = delta_series(h)
    return float(p[1 + int(np.argmax(deltas))])


def sweep_point(
    series: TimeSeries,
    embedding: Optional[EmbeddingParams],
    config: PersistenceConfig,
    index: int,
) -> Tuple[float, float, PersistenceDiagram]:
    """One grid point of a sweep: (H, betti L1, diagram) of the series.

    The filtration runs to the landmarks' diameter, and the Betti curve is
    sampled on config.eps_grid_size points from 0 to it. index offsets the
    subsampling seed so grid points draw distinct starts.
    """
    if embedding is None:  # auto: tau at the first MI minimum, then m by FNN
        tau = select_delay(series).tau
        embedding = EmbeddingParams(tau=tau, m=select_dimension(series, tau).m)
    cloud = delay_embed(series, embedding)
    cloud = maxmin_subsample(cloud, n_max=config.n_max, seed=config.seed + index)
    dist = pairwise_distances(cloud)
    diagram = rips_persistence(dist)
    h = max_persistence(diagram, dim=1)
    cap = float(dist.entries.max()) if dist.n > 1 else 0.0
    grid = np.linspace(0.0, cap, config.eps_grid_size)
    l1 = betti_l1(betti_curve(diagram, 1, grid)) if cap > 0 else 0.0
    return h, l1, diagram


def _attempt(task: tuple) -> Tuple[bool, object]:
    """(True, fn(*args)), or (False, reason) on an expected failure.

    The one place a grid point is declared failed: a rejected value or a
    diverged integration. Anything else is a bug and propagates.
    """
    fn, args = task
    try:
        return True, fn(*args)
    except (ValueError, IntegrationDiverged) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def _noisy_point(clean, noise, embedding, config, index):
    """sweep_point on the clean series with observation noise added."""
    return sweep_point(add_noise(clean, noise), embedding, config, index)


def _level_result(kept: list, failures: list) -> SweepResult:
    """One level's result from its (mu, (H, L1, diagram)) survivors in grid order."""
    mus = np.array([mu for mu, _ in kept])
    h = np.array([pt[0] for _, pt in kept])
    return SweepResult(
        params=mus,
        h_values=h,
        betti_l1=np.array([pt[1] for _, pt in kept]),
        mu_hat=estimate_critical(mus, h) if len(kept) >= 2 else None,
        diagrams=tuple(pt[2] for _, pt in kept),
        failures=tuple(failures),
    )


def sweep_levels(
    params: Sequence[float],
    series_factory: Callable[[float], TimeSeries],
    noise_levels: Sequence[float],
    embedding: Optional[EmbeddingParams],
    config: PersistenceConfig,
    jobs: int = 1,
    timings: Optional[Dict[str, float]] = None,
) -> List[SweepResult]:
    """The sweep engine: one SweepResult per noise level, in order.

    series_factory gives the clean series of a grid point; it is called once
    per point. Point j of level v gets noise and landmarks seeded
    config.seed + NOISE_SEED_STRIDE * v + j, so any point can be reproduced
    alone. A point that fails in an expected way is excluded from its level;
    a level with fewer than 2 survivors has mu_hat None. With jobs > 1 a fork
    pool runs the series, then every (level, point) pipeline, and the factory
    must pickle. timings, when given, receives the wall seconds of the series
    phase ("simulate_s") and of the pipeline phase ("embed_persist_s"), as
    the calling process sees them. Each (level, point) outcome is logged at
    info level as it arrives.
    """
    p = np.asarray(params, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("need at least 2 parameter values")
    if np.any(np.diff(p) <= 0):
        raise ValueError("params must be strictly ascending")
    grid = p.tolist()
    pool = multiprocessing.get_context("fork").Pool(processes=jobs) if jobs > 1 else None
    run = map if pool is None else pool.imap
    try:
        t_series = time.perf_counter()
        clean = list(run(_attempt, [(series_factory, (mu,)) for mu in grid]))
        t_pipes = time.perf_counter()
        tasks = []
        for v, sigma in enumerate(noise_levels):
            base = config.seed + NOISE_SEED_STRIDE * v
            pcfg = replace(config, seed=base)
            for j, (ok, series) in enumerate(clean):
                if ok:
                    tasks.append((_noisy_point, (series, NoiseSpec(sigma, base + j),
                                                 embedding, pcfg, j)))
        outcomes = run(_attempt, tasks)
        results = []
        for sigma in noise_levels:
            kept, failures = [], []
            for mu, (ok, payload) in zip(grid, clean):
                if ok:
                    ok, payload = next(outcomes)
                status = f"ok, H={payload[0]!r}" if ok else f"failed: {payload}"
                logger.info("sigma_rel=%g mu=%r: %s", sigma, mu, status)
                (kept if ok else failures).append((mu, payload))
            results.append(_level_result(kept, failures))
        t_done = time.perf_counter()
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    if timings is not None:
        timings["simulate_s"] = t_pipes - t_series
        timings["embed_persist_s"] = t_done - t_pipes
    return results


def run_sweep(
    params: Sequence[float],
    series_factory: Callable[[float], TimeSeries],
    embedding: Optional[EmbeddingParams] = None,
    config: PersistenceConfig = PersistenceConfig(),
) -> SweepResult:
    """Embed, subsample, and compute persistence at each parameter value.

    embedding=None selects (tau, m) per series automatically. A value whose
    series construction or pipeline raises ValueError or IntegrationDiverged
    is excluded and recorded in failures; the sweep itself fails when fewer
    than 2 values survive. This is sweep_levels at one noise-free level, in
    process.
    """
    result = sweep_levels(params, series_factory, (0.0,), embedding, config)[0]
    if result.mu_hat is None:
        raise RuntimeError(f"sweep {result.status}")
    return result
