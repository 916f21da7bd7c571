"""Vietoris-Rips persistence in dimensions 0 and 1, with landmark subsampling
and the bottleneck distance between diagrams.

The filtration uses the closed convention: a simplex enters once all its
pairwise distances are <= epsilon. Edges are ordered by (value, vertex pair)
and triangles by (largest edge, second-largest edge), which refines their
value. H1 comes from persistent cohomology over Z/2 with clearing and
apparent pairs (Bauer, "Ripser: efficient computation of Vietoris-Rips
persistence barcodes", JACT 2021), which pairs simplices as the homology
reduction does:

- an edge with an earlier common neighbour is apparent: it pairs with its
  minimal coface at zero persistence and gets no column;
- a union-find pass over the other edges gives H0, and the edges that merge
  components are cleared;
- each remaining edge closes a cycle. Its coboundary column is reduced, from
  the largest such edge down, by adding stored columns and the coboundaries
  of apparent edges until its pivot (smallest triangle) is free, which gives
  the death, or the column vanishes, which leaves the class open.

Triangles are never enumerated: a coboundary is read off two rows of the
edge-position matrix when a column needs it.

Diagrams are multisets of (birth, death) values per dimension. Pairs with
death == birth carry no topological signal at any threshold and are omitted;
with that convention the diagram is independent of how equal-value simplices
are ordered, so the optimized reduction and any naive one agree exactly.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .embedding import PointCloud

logger = logging.getLogger(__name__)

# subsampling cap: the apparent-pair scan costs about n^3 operations, and on a
# round circle of 400 points the one cycle column grows to 2 million triangles
DEFAULT_N_MAX = 400

_NO_EDGE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative distances with zero diagonal, all finite.

    Symmetry is checked exactly: producers are expected to compute each
    unordered pair once (pairwise_distances does).
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("distances must be finite")
        if np.any(entries < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diag(entries) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(entries, entries.T):
            raise ValueError("entries must be symmetric")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs per homology dimension.

    Rows are sorted by (dim, birth, death) with infinite deaths last inside
    their dimension, so equal diagrams compare equal array-wise.
    """

    dims: np.ndarray
    births: np.ndarray
    deaths: np.ndarray

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=np.int64)
        births = np.asarray(self.births, dtype=float)
        deaths = np.asarray(self.deaths, dtype=float)
        if not (dims.shape == births.shape == deaths.shape) or dims.ndim != 1:
            raise ValueError("dims, births, deaths must be equal-length 1-d arrays")
        if not np.all((dims == 0) | (dims == 1)):
            raise ValueError("dims must be 0 or 1")
        if np.any(births < 0) or np.any(np.isinf(births)):
            raise ValueError("births must be finite and nonnegative")
        if np.any(deaths < births):
            raise ValueError("death must be >= birth")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "births", births)
        object.__setattr__(self, "deaths", deaths)

    def __len__(self) -> int:
        return int(self.dims.shape[0])

    def pairs(self, dim: int) -> np.ndarray:
        """(k, 2) array of (birth, death) rows in the given dimension."""
        sel = self.dims == dim
        return np.column_stack([self.births[sel], self.deaths[sel]])

    def rows(self) -> List[Tuple[int, float, float]]:
        return [
            (int(d), float(b), float(x))
            for d, b, x in zip(self.dims, self.births, self.deaths)
        ]


def _sorted_diagram(rows: List[Tuple[int, float, float]]) -> PersistenceDiagram:
    rows.sort()
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return PersistenceDiagram(
        dims=arr[:, 0].astype(np.int64), births=arr[:, 1], deaths=arr[:, 2]
    )


def pairwise_distances(cloud: PointCloud) -> DistanceMatrix:
    """Exact Euclidean distance matrix of the cloud.

    Per-pair squared coordinate differences are summed in ascending order, so
    the result is bit-identical under any reordering of coordinates (the
    isometry invariance tests rely on this).
    """
    points = cloud.points
    diff = points[:, None, :] - points[None, :, :]
    sq = diff * diff
    sq.sort(axis=2)
    d = np.sqrt(np.sum(sq, axis=2))
    return DistanceMatrix(entries=d)


def maxmin_subsample(cloud: PointCloud, n_max: int = DEFAULT_N_MAX, seed: int = 0) -> PointCloud:
    """Greedy farthest-point landmarks: at most n_max points of the cloud.

    Starts from a seeded random point, then repeatedly adds the point
    farthest from the chosen set (ties to the smallest index), stopping early
    once every remaining point coincides with a landmark, so the landmarks
    are distinct. A repeated point adds only zero-length pairs, which
    diagrams omit, so stopping there leaves the diagram unchanged. Returns
    the input unchanged when it is already small enough.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    points = cloud.points
    n = points.shape[0]
    if n <= n_max:
        return cloud
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    chosen = [start]
    diff = points - points[start]
    mind = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    for _ in range(n_max - 1):
        nxt = int(np.argmax(mind))
        if mind[nxt] == 0.0:
            break
        chosen.append(nxt)
        diff = points - points[nxt]
        np.minimum(mind, np.sqrt(np.einsum("ij,ij->i", diff, diff)), out=mind)
    return PointCloud(points=points[np.array(chosen)])


def rips_persistence(
    dist: DistanceMatrix, eps_max: Optional[float] = None
) -> PersistenceDiagram:
    """H0 and H1 persistence of the Vietoris-Rips filtration up to eps_max.

    eps_max defaults to the largest pairwise distance, at which scale the
    complex is a full 2-skeleton and every H1 class has died; smaller caps
    may leave classes open, reported with death = +inf. Every vertex is born
    at 0; the H0 pair of each component still separate at eps_max has death
    +inf. Pairs with death == birth are omitted (see module docstring).
    """
    if isinstance(dist, np.ndarray):
        dist = DistanceMatrix(entries=dist)
    d = dist.entries
    n = dist.n
    if eps_max is None:
        eps_max = float(d.max()) if n > 1 else 0.0
    elif eps_max <= 0:
        raise ValueError(f"eps_max must be > 0, got {eps_max}")

    rows_iu, cols_iu = np.triu_indices(n, k=1)
    keep = d[rows_iu, cols_iu] <= eps_max
    ei, ej = rows_iu[keep], cols_iu[keep]
    evals = d[ei, ej]
    order = np.lexsort((ej, ei, evals))
    ei, ej, evals = ei[order], ej[order], evals[order]
    n_edges = ei.shape[0]

    pos_matrix = np.full((n, n), _NO_EDGE, dtype=np.int64)
    arange_e = np.arange(n_edges, dtype=np.int64)
    pos_matrix[ei, ej] = arange_e
    pos_matrix[ej, ei] = arange_e

    # second[p]: the smallest second edge of a triangle on edge p = (i, j),
    # min over k of max(pos(i, k), pos(j, k)), one row of vertices at a time
    second_matrix = np.full((n, n), _NO_EDGE, dtype=np.int64)
    for i in range(n - 1):
        second_matrix[i, i + 1:] = np.maximum(pos_matrix[i], pos_matrix[i + 1:]).min(axis=1)
    second = second_matrix[ei, ej]
    # an edge with an earlier common neighbour is apparent: it joins vertices
    # already connected and pairs at zero persistence with its minimal coface
    apparent = second < arange_e
    second = second.tolist()
    values = evals.tolist()

    parent = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def coboundary(pos: int) -> List[int]:
        """Ascending keys of the triangles on edge pos: max_edge_pos * n_edges
        + second_edge_pos, unique since two edges fix the third vertex."""
        a, b = pos_matrix[ei[pos]], pos_matrix[ej[pos]]
        valid = (a != _NO_EDGE) & (b != _NO_EDGE)  # also drops k = i and k = j
        hi = np.maximum(a[valid], b[valid])
        lo = np.minimum(a[valid], b[valid])
        keys = np.maximum(hi, pos) * n_edges + np.maximum(lo, np.minimum(hi, pos))
        keys.sort()
        return keys.tolist()

    rows: List[Tuple[int, float, float]] = []
    cycle_edges = []
    for pos in np.flatnonzero(~apparent).tolist():
        ri, rj = find(int(ei[pos])), find(int(ej[pos]))
        if ri == rj:
            cycle_edges.append(pos)
        else:
            # component merge: an H0 class dies at this scale
            parent[rj] = ri
            if values[pos] > 0.0:
                rows.append((0, 0.0, values[pos]))
    rows.extend((0, 0.0, np.inf) for v in range(n) if parent[v] == v)

    # cohomology: reduce the coboundary column of each cycle-creating edge,
    # largest first; every other edge is cleared (a merge) or apparent
    pivots: Dict[int, set] = {}  # pivot triangle -> reduced column
    additions = 0
    for pos in reversed(cycle_edges):
        heap = coboundary(pos)
        column = set(heap)  # heap: a lazily cleaned min-heap over column
        while True:
            while heap and heap[0] not in column:
                heapq.heappop(heap)
            if not heap:
                rows.append((1, values[pos], np.inf))
                break
            pivot = heap[0]
            other = pivots.get(pivot)
            if other is None:
                top, low = divmod(pivot, n_edges)
                if second[top] != low:
                    pivots[pivot] = column
                    if values[top] > values[pos]:
                        rows.append((1, values[pos], values[top]))
                    break
                # pivot is the minimal coface of the apparent edge top
                other = coboundary(top)
            additions += 1
            for key in other:
                if key in column:
                    column.remove(key)
                else:
                    column.add(key)
                    heapq.heappush(heap, key)
    logger.debug("rips_persistence: %d edges, %d apparent pairs, %d reduced columns, "
                 "%d column additions", n_edges, int(np.count_nonzero(apparent)),
                 len(cycle_edges), additions)
    return _sorted_diagram(rows)


def _matching_feasible(
    cost: float, cross: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray
) -> bool:
    """Perfect matching at max edge cost <= cost, diagonal matches allowed.

    Left side: points of a, then one diagonal slot per point of b; right
    side mirrors. Diagonal slots pair with each other freely at no cost.
    cross holds the L-inf costs between points of a and points of b.
    """
    # imported here: at module level scipy.sparse adds about 80 ms to every
    # import of the command line, which most commands never use
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    na, nb = cross.shape
    adj = np.zeros((na + nb, nb + na), dtype=bool)
    adj[:na, :nb] = cross <= cost
    adj[np.arange(na), nb + np.arange(na)] = diag_a <= cost
    adj[na + np.arange(nb), np.arange(nb)] = diag_b <= cost
    adj[na:, nb:] = True
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return bool(np.all(match >= 0))


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram, dim: int = 1) -> float:
    """Exact bottleneck distance between the dim-restricted diagrams.

    Finite pairs may match each other (L-inf cost) or the diagonal (cost
    (death - birth) / 2); the minimum over matchings of the maximum cost is
    found by binary search over the finite candidate set with a bipartite
    feasibility check. Infinite-death pairs must agree in count, else +inf;
    equal counts are matched by sorted birth.
    """
    p1, p2 = d1.pairs(dim), d2.pairs(dim)
    inf1, inf2 = np.isinf(p1[:, 1]), np.isinf(p2[:, 1])
    if int(inf1.sum()) != int(inf2.sum()):
        return float(np.inf)
    inf_cost = 0.0
    if inf1.any():
        births1 = np.sort(p1[inf1, 0])
        births2 = np.sort(p2[inf2, 0])
        inf_cost = float(np.max(np.abs(births1 - births2)))
    a, b = p1[~inf1], p2[~inf2]
    if a.shape[0] == 0 and b.shape[0] == 0:
        return inf_cost
    diag_a, diag_b = (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0
    cross = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    values = np.unique(np.concatenate([diag_a, diag_b, cross.ravel(), [0.0]]))
    lo, hi = 0, values.shape[0] - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(float(values[mid]), cross, diag_a, diag_b):
            hi = mid
        else:
            lo = mid + 1
    return max(float(values[lo]), inf_cost)
