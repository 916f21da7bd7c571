"""Delay embedding of scalar series and automatic (tau, m) selection.

The embedding sends sample index k to the point
(x[k+(m-1)*tau], x[k+(m-2)*tau], ..., x[k]), so the leading coordinate is the
most recent sample. The delay is chosen at the first local minimum of the
lagged mutual information; the dimension by the false-nearest-neighbor
criterion of Kennel et al.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dynsys import TimeSeries

DEFAULT_N_BINS = 16
DEFAULT_MAX_LAG = 30
DEFAULT_R_TOL = 10.0
DEFAULT_A_TOL = 2.0
DEFAULT_FNN_THRESHOLD = 0.01
DEFAULT_M_MAX = 6

# brute-force neighbor searches process the distance matrix in row blocks
# of this many rows to bound memory at O(block * N)
_NN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay embedding parameters: delay in samples and dimension."""

    tau: int
    m: int

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class PointCloud:
    """Ordered point set in R^m, stored as an (N, m) array."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a nonempty (N, m) array")
        if not np.all(np.isfinite(points)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


@dataclass(frozen=True)
class DelaySelection:
    """Result of select_delay: chosen lag, the MI curve, and whether a true
    local minimum was found (False means the argmin fallback was used)."""

    tau: int
    local_minimum: bool
    mi_bits: np.ndarray


@dataclass(frozen=True)
class DimensionSelection:
    """Result of select_dimension; converged=False means the FNN fraction
    never dropped below DEFAULT_FNN_THRESHOLD up to DEFAULT_M_MAX."""

    m: int
    converged: bool
    fractions: np.ndarray


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> PointCloud:
    """Delay-embed a scalar series.

    Parameters
    ----------
    series : TimeSeries
    params : EmbeddingParams

    Returns
    -------
    PointCloud
        N = L - (m-1)*tau points; point k is
        (x[k+(m-1)tau], ..., x[k+tau], x[k]).
    """
    values = series.values
    length = values.size
    if length <= (params.m - 1) * params.tau:
        raise ValueError(
            f"series length {length} too short; need more than "
            f"{(params.m - 1) * params.tau} samples for tau={params.tau}, m={params.m}"
        )
    n = length - (params.m - 1) * params.tau
    cols = [
        values[(params.m - 1 - c) * params.tau : (params.m - 1 - c) * params.tau + n]
        for c in range(params.m)
    ]
    return PointCloud(np.column_stack(cols))


def mutual_information(series: TimeSeries, lag: int, n_bins: int = DEFAULT_N_BINS) -> float:
    """Histogram estimate of I(X_t; X_{t-lag}) in bits.

    Uses an equal-width n_bins x n_bins joint histogram over the pairs
    (x[k], x[k-lag]), with both axes binned over the series' min-max range.
    A constant series has a single occupied bin and yields 0.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    values = series.values
    if values.size - lag < 2:
        raise ValueError(f"series too short for lag {lag}")
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, n_bins + 1)
    joint, _, _ = np.histogram2d(values[lag:], values[:-lag], bins=(edges, edges))
    total = joint.sum()
    p_joint = joint / total
    p_x = p_joint.sum(axis=1)
    p_y = p_joint.sum(axis=0)
    nz = p_joint > 0
    outer = np.outer(p_x, p_y)
    return float(np.sum(p_joint[nz] * np.log2(p_joint[nz] / outer[nz])))


def select_delay(
    series: TimeSeries,
    max_lag: int = DEFAULT_MAX_LAG,
    n_bins: int = DEFAULT_N_BINS,
) -> DelaySelection:
    """Pick the embedding delay at the first local minimum of lagged MI.

    Returns the smallest lag l with MI(l-1) > MI(l) <= MI(l+1). When no local
    minimum exists up to max_lag the lag minimizing MI is returned with
    ``local_minimum=False``.
    """
    if max_lag < 2:
        raise ValueError(f"max_lag must be >= 2, got {max_lag}")
    if series.values.size < max_lag + 2:
        raise ValueError(
            f"series length {series.values.size} must be >= max_lag + 2 = {max_lag + 2}"
        )
    mi = np.array([mutual_information(series, lag, n_bins) for lag in range(1, max_lag + 1)])
    for lag in range(2, max_lag):
        if mi[lag - 2] > mi[lag - 1] <= mi[lag]:
            return DelaySelection(tau=lag, local_minimum=True, mi_bits=mi)
    return DelaySelection(tau=int(np.argmin(mi)) + 1, local_minimum=False, mi_bits=mi)


def _nearest_neighbors(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor (excluding self) per point, brute force in blocks.

    Ties resolve to the smallest index. Returns (indices, distances).
    """
    n, m = points.shape
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=float)
    # explicit differences keep tiny distances exact where the expanded
    # x^2 - 2xy + y^2 form cancels to noise; shrink blocks to bound the
    # (rows, n, m) temporary at roughly _NN_BLOCK_ROWS * n doubles
    rows_per_block = max(1, _NN_BLOCK_ROWS // m)
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        diff = points[start:stop, None, :] - points[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        rows = np.arange(start, stop)
        d2[rows - start, rows] = np.inf
        nearest = np.argmin(d2, axis=1)
        idx[start:stop] = nearest
        dist[start:stop] = np.sqrt(d2[rows - start, nearest])
    return idx, dist


def fnn_fraction(series: TimeSeries, tau: int, m: int) -> float:
    """Fraction of false nearest neighbors going from dimension m to m+1.

    For each point of the m-dimensional embedding (restricted to indices that
    also exist at dimension m+1), the nearest neighbor is found by exact
    brute-force search; the pair is false if the added-coordinate jump exceeds
    DEFAULT_R_TOL (10) times the m-dimensional distance, or if the
    (m+1)-dimensional distance exceeds DEFAULT_A_TOL (2) times the series
    standard deviation (Kennel et al.'s two tests). Coincident pairs (zero
    distance and zero jump) count as true neighbors.
    """
    values = series.values
    n_next = values.size - m * tau
    if n_next < 2:
        raise ValueError(
            f"need at least 2 embeddable points at dimension {m + 1}; series too short"
        )
    cloud_m = delay_embed(series, EmbeddingParams(tau=tau, m=m)).points[:n_next]
    added = values[m * tau :]  # added coordinate of point k at dimension m+1
    nn_idx, nn_dist = _nearest_neighbors(cloud_m)
    jump = np.abs(added - added[nn_idx])
    sigma = float(np.std(values))

    # the ratio test is undefined for pairs coincident in the m-dimensional
    # embedding, so those fall to the absolute-increase test alone; the floor
    # extends the exact 0/0 true-neighbor rule to rounding-level distances,
    # where the ratio of two machine-epsilon quantities carries no signal
    dist_next = np.sqrt(nn_dist**2 + jump**2)
    false = dist_next > DEFAULT_A_TOL * sigma
    positive = nn_dist > 1e-12 * sigma
    false[positive] |= jump[positive] > DEFAULT_R_TOL * nn_dist[positive]
    return float(np.mean(false))


def select_dimension(series: TimeSeries, tau: int) -> DimensionSelection:
    """Smallest m whose FNN fraction is below DEFAULT_FNN_THRESHOLD (1%),
    scanning m = 1..DEFAULT_M_MAX (6); DEFAULT_M_MAX when none is."""
    fractions = []
    for m in range(1, DEFAULT_M_MAX + 1):
        frac = fnn_fraction(series, tau, m)
        fractions.append(frac)
        if frac < DEFAULT_FNN_THRESHOLD:
            return DimensionSelection(m=m, converged=True, fractions=np.array(fractions))
    return DimensionSelection(m=DEFAULT_M_MAX, converged=False, fractions=np.array(fractions))
