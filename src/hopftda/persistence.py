"""Vietoris-Rips persistence in dimensions 0 and 1, with landmark subsampling
and the bottleneck distance between diagrams.

The filtration uses the closed convention: a simplex enters once all its
pairwise distances are <= epsilon. H0 comes from a union-find pass over edges
sorted by (value, vertex pair). H1 reduces triangle columns over Z/2; edge
columns are never reduced at all, which is the clearing optimization in its
strongest form: every triangle block opens with an emergent zero-persistence
pair that claims the block edge as pivot, and later columns cascade through
claimed pivots as plain integer XOR until they either vanish or land on an
unpaired cycle-creating edge. Once no unpaired such edge remains below the
current block the rest of the block must vanish and is skipped outright.

Diagrams are multisets of (birth, death) values per dimension. Pairs with
death == birth carry no topological signal at any threshold and are omitted;
with that convention the diagram is independent of how equal-value simplices
are ordered, so the optimized reduction and any naive one agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .embedding import PointCloud

# subsampling cap keeping the triangle stage tractable (about 10^7 triangles)
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


def _clear_claimed(column: int, claimed: int, tails: List[Optional[int]]) -> int:
    """XOR out every claimed bit of the column using the stored pivot tails.

    Tails are claimed-free when stored but can go stale as later positions
    get claimed, so the claimed projection is re-derived until it is empty;
    it strictly decreases each pass, and the fixpoint is unique because any
    nonzero combination of pivot columns has a claimed top bit.
    """
    work = column & claimed
    while work:
        b = work.bit_length() - 1
        bit = 1 << b
        column ^= bit ^ tails[b]
        work = column & claimed
    return column


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

    parent = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    rows: List[Tuple[int, float, float]] = []
    # tails[p] holds the cycle bits strictly below claimed position p, stored
    # claimed-free so that most clearing steps are a single XOR (see
    # _clear_claimed for the staleness caveat)
    tails: List[Optional[int]] = [None] * n_edges
    claimed = 0  # bitmask of claimed positions
    unpaired = {}  # cycle-creating edge position -> its birth value
    for pos in range(n_edges):
        i, j, value = int(ei[pos]), int(ej[pos]), float(evals[pos])
        mask = (pos_matrix[i] < pos) & (pos_matrix[j] < pos)
        ks = np.nonzero(mask)[0]
        if ks.shape[0] == 0:
            ri, rj = find(i), find(j)
            if ri != rj:
                # component merge: an H0 class dies at this scale
                if size[ri] < size[rj]:
                    ri, rj = rj, ri
                parent[rj] = ri
                size[ri] += size[rj]
                if value > 0.0:
                    rows.append((0, 0.0, value))
                continue
            unpaired[pos] = value
            continue
        # a shared earlier neighbor means i and j were already connected, so
        # this edge creates a cycle; the block's first triangle pairs it off
        # immediately at zero persistence and claims it as pivot
        pa = pos_matrix[i, ks].tolist()  # python ints: bitsets must not be int64
        pb = pos_matrix[j, ks].tolist()
        head = _clear_claimed((1 << pa[0]) | (1 << pb[0]), claimed, tails)
        tails[pos] = head
        claimed |= 1 << pos
        for a_pos, b_pos in zip(pa[1:], pb[1:]):
            if not unpaired:
                break  # every further column in this block must vanish
            # triangle boundary is {pos, a, b}; XOR with the block pivot
            # cancels the own bit up front
            column = _clear_claimed(((1 << a_pos) | (1 << b_pos)) ^ head, claimed, tails)
            if column == 0:
                continue
            # a nonzero fully reduced column is a cycle whose top bit is an
            # unpaired cycle-creating edge (never a merge edge)
            low = column.bit_length() - 1
            birth = unpaired.pop(low)
            tails[low] = column ^ (1 << low)
            claimed |= 1 << low
            if value > birth:
                rows.append((1, birth, value))

    for pos in range(n):
        if parent[pos] == pos:
            rows.append((0, 0.0, np.inf))
    for birth in unpaired.values():
        rows.append((1, birth, np.inf))
    return _sorted_diagram(rows)


def _matching_feasible(cost: float, a: np.ndarray, b: np.ndarray) -> bool:
    """Perfect matching at max edge cost <= cost, diagonal matches allowed.

    Left side: points of a, then one diagonal slot per point of b; right
    side mirrors. Diagonal slots pair with each other freely at no cost.
    """
    na, nb = a.shape[0], b.shape[0]
    diag_a = (a[:, 1] - a[:, 0]) / 2.0
    diag_b = (b[:, 1] - b[:, 0]) / 2.0
    total = na + nb
    adj: List[List[int]] = []
    for p in range(na):
        linf = np.max(np.abs(a[p] - b), axis=1) if nb else np.empty(0)
        targets = np.nonzero(linf <= cost)[0].tolist()
        if diag_a[p] <= cost:
            targets.append(nb + p)
        adj.append(targets)
    diag_targets = list(range(nb, total))
    for q in range(nb):
        targets = list(diag_targets)
        if diag_b[q] <= cost:
            targets.append(q)
        adj.append(targets)

    match_right = [-1] * total
    for root in range(total):
        if not _augment(root, adj, match_right):
            # a left vertex that finds no augmenting path never will later
            return False
    return True


def _augment(root: int, adj: List[List[int]], match_right: List[int]) -> bool:
    """Kuhn's depth-first augmenting-path search from one left vertex.

    Rights are tried in adjacency order and a matched right hands the search
    on to its owner, as in the recursive form, but on an explicit stack so
    that chains of re-matches may exceed the interpreter's recursion limit.
    """
    seen = [False] * len(match_right)
    stack = [(root, iter(adj[root]))]
    path: List[int] = []  # path[k] is the right vertex stack[k] is trying
    while stack:
        for right in stack[-1][1]:
            if not seen[right]:
                seen[right] = True
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(right)
        owner = match_right[right]
        if owner < 0:
            for (left, _), r in zip(stack, path):
                match_right[r] = left
            return True
        stack.append((owner, iter(adj[owner])))
    return False


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
    candidates = [(a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0]
    if a.shape[0] and b.shape[0]:
        cross = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
        candidates.append(cross.ravel())
    values = np.unique(np.concatenate(candidates + [np.array([0.0])]))
    lo, hi = 0, values.shape[0] - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(float(values[mid]), a, b):
            hi = mid
        else:
            lo = mid + 1
    return max(float(values[lo]), inf_cost)
