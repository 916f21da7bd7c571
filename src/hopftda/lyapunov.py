"""Largest Lyapunov exponent by two-trajectory renormalization, and the
correlation statistics pairing it with the topological functional.

The exponent uses the known equations of motion: a reference and a perturbed
trajectory are stepped together, the separation is rescaled to d0 every
renorm_interval steps, and lambda1 is the time-averaged sum of ln(d / d0).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import stdtr

from .dynsys import _BIG, IntegrationDiverged, SystemParams, rk4_stepper

logger = logging.getLogger(__name__)

# parameter values closer to the critical one than this relative margin get
# their step budget doubled: convergence to the attractor slows there
NEAR_CRITICAL_MARGIN = 0.02


@dataclass(frozen=True)
class LyapunovConfig:
    """Benettin-run settings; defaults suit all three bundled systems."""

    dt: float = 0.01
    n_steps: int = 200_000
    transient_steps: int = 40_000
    renorm_interval: int = 10
    d0: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not 0 <= self.transient_steps < self.n_steps:
            raise ValueError("transient_steps must satisfy 0 <= transient < n_steps")
        if self.renorm_interval < 1:
            raise ValueError("renorm_interval must be >= 1")
        if not self.d0 > 0:
            raise ValueError(f"d0 must be > 0, got {self.d0}")


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson/Spearman coefficients with t-approximation p-values."""

    pearson_r: float
    pearson_p: float
    spearman_rho: float
    spearman_p: float
    n: int
    p_method: str = "student-t"


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm > 0:
            return v / norm


def largest_lyapunov(params: SystemParams, config: LyapunovConfig = LyapunovConfig()) -> float:
    """Largest Lyapunov exponent of the system, in inverse time units.

    A run within NEAR_CRITICAL_MARGIN of the system's critical parameter
    (relative to max(|critical|, 1)) doubles both step counts, keeping the
    20% transient fraction. Divergence is detected at renormalization
    granularity. An exactly zero separation is re-seeded in a fresh random
    direction and that block contributes nothing to the sum; the event is
    logged as a warning.
    """
    value, critical = getattr(params, params.swept), params.critical
    n_steps, transient = config.n_steps, config.transient_steps
    if abs(value - critical) <= NEAR_CRITICAL_MARGIN * max(abs(critical), 1.0):
        n_steps *= 2
        transient *= 2

    dt = config.dt
    x = params.initial_state
    advance = rk4_stepper(params.rhs(), len(x), dt)
    for step in range(transient):
        x = advance(*x)
        if step % 1000 == 999 and not all(-_BIG < s < _BIG for s in x):
            raise IntegrationDiverged("state left the finite box", step=step)
    if not all(-_BIG < s < _BIG for s in x):
        raise IntegrationDiverged("state left the finite box", step=transient)

    rng = np.random.default_rng(config.seed)
    d0 = config.d0
    u = _unit_direction(rng, len(x))
    y = tuple(xi + d0 * ui for xi, ui in zip(x, u))
    remaining = n_steps - transient
    done = 0
    total = 0.0
    while done < remaining:
        block = min(config.renorm_interval, remaining - done)
        for _ in range(block):
            x = advance(*x)
            y = advance(*y)
        done += block
        if not all(-_BIG < s < _BIG for s in x) or not all(-_BIG < s < _BIG for s in y):
            raise IntegrationDiverged("state left the finite box", step=transient + done)
        d = math.sqrt(sum((yi - xi) ** 2 for xi, yi in zip(x, y)))
        if d == 0.0:
            logger.warning(
                "separation collapsed to zero at step %d; re-seeding direction",
                transient + done,
            )
            u = _unit_direction(rng, len(x))
            y = tuple(xi + d0 * ui for xi, ui in zip(x, u))
            continue
        total += math.log(d / d0)
        scale = d0 / d
        y = tuple(xi + (yi - xi) * scale for xi, yi in zip(x, y))
    return total / (remaining * dt)


def _t_pvalue(r: float, n: int) -> float:
    if 1.0 - r * r <= 0.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def pearson(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Sample Pearson correlation and its two-sided t-approximation p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0.0:
        raise ValueError("x has zero variance")
    if syy == 0.0:
        raise ValueError("y has zero variance")
    r = float(np.dot(xc, yc)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return r, _t_pvalue(r, n)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.shape[0], dtype=float)
    sorted_v = v[order]
    i = 0
    while i < v.shape[0]:
        j = i
        while j + 1 < v.shape[0] and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Pearson correlation of average ranks, with the same t p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.shape[0] < 3:
        raise ValueError(f"need at least 3 samples, got {x.shape[0]}")
    return pearson(_average_ranks(x), _average_ranks(y))


def correlate_sweep(h_values: Sequence[float], lyap_values: Sequence[float]) -> CorrelationReport:
    """Correlations between H(mu_j) and lambda1(mu_j) over a shared grid."""
    h = np.asarray(h_values, dtype=float)
    lam = np.asarray(lyap_values, dtype=float)
    if lam.shape != h.shape:
        raise ValueError(f"lyapunov grid has {lam.size} values, sweep has {h.size}")
    r, rp = pearson(h, lam)
    rho, rhop = spearman(h, lam)
    return CorrelationReport(
        pearson_r=r, pearson_p=rp, spearman_rho=rho, spearman_p=rhop, n=int(lam.shape[0])
    )
