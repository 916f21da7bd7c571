"""Tests for Rips persistence, subsampling, and bottleneck distance.

The reference implementation lives in _oracles: build every simplex up to
dimension 2, sort by (value, dim, vertex tuple), reduce the dense boundary
matrix left to right with no shortcuts, and read pairs off the pivots. The
optimized pipeline must reproduce it exactly, including under a filtration
cap that leaves classes open.
"""

import hashlib
import logging
import sys
import traceback

import numpy as np
import pytest

from _oracles import maxmin_indices, naive_rips_rows, random_cloud
from hopftda.cli import bundled_config
from hopftda.embedding import PointCloud, delay_embed
from hopftda.persistence import (
    DistanceMatrix,
    PersistenceDiagram,
    bottleneck_distance,
    maxmin_subsample,
    pairwise_distances,
    rips_persistence,
)

SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------- pairwise_distances

def test_pairwise_unit_square_values():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    d = pairwise_distances(cloud).entries
    off = np.sort(d[np.triu_indices(4, k=1)])
    assert np.array_equal(off, np.array([1.0, 1.0, 1.0, 1.0, SQRT2, SQRT2]))


def test_pairwise_single_point():
    d = pairwise_distances(PointCloud(np.array([[2.0, -1.0]])))
    assert d.n == 1 and d.entries[0, 0] == 0.0


def test_pairwise_coordinate_reversal_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        points = rng.standard_normal((15, 3))
        d1 = pairwise_distances(PointCloud(points)).entries
        d2 = pairwise_distances(PointCloud(points[:, ::-1])).entries
        assert np.array_equal(d1, d2)


def test_pairwise_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0], [np.nan]]))


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((2, 3)))  # not square


# ------------------------------------------------------------ maxmin_subsample

def test_maxmin_identity_when_small():
    cloud = PointCloud(np.random.default_rng(0).standard_normal((50, 2)))
    assert maxmin_subsample(cloud, n_max=50) is cloud
    assert maxmin_subsample(cloud, n_max=400) is cloud


def test_maxmin_circle_gaps_near_uniform():
    theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
    sub = maxmin_subsample(cloud, n_max=10, seed=5)
    assert len(sub) == 10
    angles = np.sort(np.arctan2(sub.points[:, 1], sub.points[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    assert np.max(gaps) <= 2.5 * (2 * np.pi / 10)


def test_maxmin_deterministic_and_subset():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.standard_normal((80, 3)))
    s1 = maxmin_subsample(cloud, n_max=20, seed=7)
    s2 = maxmin_subsample(cloud, n_max=20, seed=7)
    assert np.array_equal(s1.points, s2.points)
    rows = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in rows for p in s1.points)


def test_maxmin_distinct_landmarks_from_repeated_points():
    distinct = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    repeated = PointCloud(np.repeat(distinct, 50, axis=0))
    sub = maxmin_subsample(repeated, n_max=100, seed=3)
    assert sub.points.shape[0] == 4
    assert {tuple(p) for p in sub.points} == {tuple(p) for p in distinct}
    # repeated vertices add only zero-length pairs, which diagrams omit
    full = rips_persistence(pairwise_distances(repeated)).rows()
    assert rips_persistence(pairwise_distances(sub)).rows() == full


def _assert_maxmin_matches_oracle(points, n_max, seed):
    sub = maxmin_subsample(PointCloud(points), n_max=n_max, seed=seed)
    assert np.array_equal(sub.points, points[maxmin_indices(points, n_max, seed)])


def test_maxmin_matches_oracle_on_case_a_clouds():
    config = bundled_config("case_a")
    for index, mu in enumerate(config.grid()):
        points = delay_embed(config.series_at(mu), config.embedding).points
        _assert_maxmin_matches_oracle(points, config.n_max, config.seed + index)


@pytest.mark.parametrize("n_max", [10, 200, 400])
def test_maxmin_matches_oracle_randomized(n_max):
    rng = np.random.default_rng(n_max)
    for trial in range(30):
        n, m = int(rng.integers(n_max + 1, 3 * n_max + 50)), int(rng.integers(1, 7))
        if trial % 2:
            points = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-40.0, 40.0)
        else:
            points = np.repeat(rng.standard_normal((-(-n // 5), m)), 5, axis=0)[:n]
            points = points[rng.permutation(n)]
        _assert_maxmin_matches_oracle(points, n_max, trial)


def test_maxmin_ties_break_on_roots():
    # squared distances 2 and 2 + 2^-51 from the start (index 2, seed 0)
    # share the root sqrt(2), so the smaller index wins
    points = np.array([[1.0, 1.0], [1.0, 1.0000000000000002], [0.0, 0.0]])
    sub = maxmin_subsample(PointCloud(points), n_max=2, seed=0)
    assert sub.points.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert sub.points.tolist() == points[maxmin_indices(points, 2, 0)].tolist()


def test_maxmin_rejects_bad_n_max():
    cloud = PointCloud(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        maxmin_subsample(cloud, n_max=0)


# ------------------------------------------------------------ rips_persistence

def test_rips_collinear_points():
    d = pairwise_distances(PointCloud(np.array([[0.0], [1.0], [3.0]])))
    assert rips_persistence(d).rows() == [
        (0, 0.0, 1.0),
        (0, 0.0, 2.0),
        (0, 0.0, np.inf),
    ]


def test_rips_unit_square_single_loop():
    d = pairwise_distances(
        PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    )
    diag = rips_persistence(d, eps_max=2.0)
    assert diag.pairs(1).tolist() == [[1.0, SQRT2]]
    assert sorted(diag.pairs(0)[:, 1].tolist()) == [1.0, 1.0, 1.0, np.inf]


def test_rips_open_loop_under_low_cap():
    d = pairwise_distances(
        PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    )
    diag = rips_persistence(d, eps_max=1.2)
    assert diag.pairs(1).tolist() == [[1.0, np.inf]]


def test_rips_no_edges_below_min_distance():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.uniform(0, 1, (6, 2)))
    d = pairwise_distances(cloud)
    eps = 0.5 * float(np.min(d.entries[np.triu_indices(6, k=1)]))
    diag = rips_persistence(d, eps_max=eps)
    assert diag.rows() == [(0, 0.0, np.inf)] * 6


def test_rips_single_point():
    d = pairwise_distances(PointCloud(np.array([[5.0, 5.0]])))
    assert rips_persistence(d).rows() == [(0, 0.0, np.inf)]


def test_rips_input_validation():
    d = pairwise_distances(PointCloud(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        rips_persistence(d, eps_max=0.0)
    with pytest.raises(ValueError):
        rips_persistence(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_rips_matches_naive_oracle_randomized():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        cloud = random_cloud(rng, n, m=int(rng.integers(1, 4)))
        entries = pairwise_distances(cloud).entries
        got = rips_persistence(DistanceMatrix(entries)).rows()
        assert got == naive_rips_rows(entries), f"trial {trial}"


def test_rips_matches_naive_oracle_capped():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        cloud = random_cloud(rng, n)
        entries = pairwise_distances(cloud).entries
        cap = 0.6 * float(entries.max())
        if cap <= 0:
            continue
        got = rips_persistence(DistanceMatrix(entries), eps_max=cap).rows()
        assert got == naive_rips_rows(entries, eps_max=cap), f"trial {trial}"


def test_rips_matches_naive_oracle_noisy_circles():
    # these clouds need column additions of both kinds, a stored column
    # (trials 0, 4, 9, 16) and an apparent edge's coboundary (most trials);
    # every third cloud is rounded, for ties, and every third is capped below
    # the big loop's death, which leaves an essential H1 class open
    rng = np.random.default_rng(31)
    open_classes = 0
    for trial in range(24):
        n = int(rng.integers(20, 31))
        theta = rng.uniform(0.0, 2 * np.pi, n)
        points = np.column_stack([np.cos(theta), np.sin(theta)])
        points += 0.3 * rng.standard_normal((n, 2))
        if trial % 3 == 1:
            points = np.round(points, 1)
        cap = 1.0 if trial % 3 == 2 else None
        entries = pairwise_distances(PointCloud(points)).entries
        got = rips_persistence(DistanceMatrix(entries), eps_max=cap).rows()
        assert got == naive_rips_rows(entries, eps_max=cap), f"trial {trial}"
        open_classes += sum(1 for dim, _, death in got if dim == 1 and death == np.inf)
    assert open_classes > 0


def test_rips_noisy_ellipse_400_pinned():
    # digest of the rows computed by the triangle-column homology reduction
    # that the cohomology reduction replaced
    rng = np.random.default_rng(400)
    theta = rng.uniform(0.0, 2 * np.pi, 400)
    points = np.column_stack([2.0 * np.cos(theta), np.sin(theta)])
    cloud = PointCloud(points + 0.05 * rng.standard_normal((400, 2)))
    rows = rips_persistence(pairwise_distances(cloud)).rows()
    assert len(rows) == 446
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "011a82a81b1a4cb6231852d3e25c0a335e0a5e946f13b7b5e5aea7b742547d5e"
    )


def test_rips_logs_reduction_counters(caplog):
    d = pairwise_distances(
        PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    )
    with caplog.at_level(logging.DEBUG, logger="hopftda.persistence"):
        rips_persistence(d)
    assert caplog.messages == [
        "rips_persistence: 6 edges, 2 apparent pairs, 1 reduced columns, "
        "0 column additions"
    ]


def test_rips_permutation_invariance():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((30, 2))
    base = rips_persistence(pairwise_distances(PointCloud(points))).rows()
    for _ in range(3):
        perm = rng.permutation(30)
        shuffled = rips_persistence(pairwise_distances(PointCloud(points[perm]))).rows()
        assert shuffled == base


def test_rips_scaling_equivariance():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((25, 2))
    base = rips_persistence(pairwise_distances(PointCloud(points)))
    for s in (0.3, 7.0):
        scaled = rips_persistence(pairwise_distances(PointCloud(points * s)))
        assert np.array_equal(base.dims, scaled.dims)
        assert np.allclose(scaled.births, base.births * s, rtol=1e-12, atol=0)
        finite = np.isfinite(base.deaths)
        assert np.array_equal(finite, np.isfinite(scaled.deaths))
        assert np.allclose(
            scaled.deaths[finite], base.deaths[finite] * s, rtol=1e-12, atol=0
        )


def test_rips_circle_one_dominant_class():
    theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
    h1 = rips_persistence(pairwise_distances(cloud)).pairs(1)
    pers = h1[:, 1] - h1[:, 0]
    assert np.sum(pers > 1.0) == 1
    assert np.all(pers[pers <= 1.0] < 0.1)


def test_rips_h1_finite_at_full_scale():
    rng = np.random.default_rng(13)
    for _ in range(5):
        cloud = PointCloud(rng.standard_normal((40, 2)))
        h1 = rips_persistence(pairwise_distances(cloud)).pairs(1)
        assert np.all(np.isfinite(h1))


# ---------------------------------------------------------- bottleneck_distance

def diagram(rows):
    rows = list(rows)
    dims = np.array([r[0] for r in rows], dtype=np.int64)
    births = np.array([r[1] for r in rows], dtype=float)
    deaths = np.array([r[2] for r in rows], dtype=float)
    return PersistenceDiagram(dims=dims, births=births, deaths=deaths)


EMPTY = PersistenceDiagram(
    dims=np.array([], dtype=np.int64), births=np.array([]), deaths=np.array([])
)


def test_bottleneck_identity_zero():
    d = diagram([(1, 0.2, 0.9), (1, 0.1, 0.3)])
    assert bottleneck_distance(d, d) == 0.0


def test_bottleneck_single_point_vs_empty():
    assert bottleneck_distance(diagram([(1, 0.0, 2.0)]), EMPTY) == 1.0


def test_bottleneck_shifted_birth():
    d1 = diagram([(1, 0.0, 2.0)])
    d2 = diagram([(1, 0.5, 2.0)])
    assert bottleneck_distance(d1, d2) == 0.5


def test_bottleneck_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d1 = diagram([(1, b, b + p) for b, p in rng.uniform(0.1, 1, (4, 2))])
        d2 = diagram([(1, b, b + p) for b, p in rng.uniform(0.1, 1, (3, 2))])
        assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1)


def test_bottleneck_infinite_count_mismatch():
    d1 = diagram([(1, 0.5, np.inf)])
    assert bottleneck_distance(d1, EMPTY) == np.inf
    d2 = diagram([(1, 0.8, np.inf)])
    assert bottleneck_distance(d1, d2) == pytest.approx(0.3)


def test_bottleneck_h0_infinite_pairs_match():
    cloud = PointCloud(np.array([[0.0], [1.0], [3.0]]))
    d = rips_persistence(pairwise_distances(cloud))
    assert bottleneck_distance(d, d, dim=0) == 0.0


def brute_bottleneck(a, b):
    """Exhaustive minimax matching for tiny diagrams of finite pairs."""
    best = [np.inf]

    def rec(i, used, cur):
        if cur >= best[0]:
            return
        if i == len(a):
            rest = max(
                ((b[j][1] - b[j][0]) / 2 for j in range(len(b)) if j not in used),
                default=0.0,
            )
            best[0] = min(best[0], max(cur, rest))
            return
        rec(i + 1, used, max(cur, (a[i][1] - a[i][0]) / 2))
        for j in range(len(b)):
            if j not in used:
                cost = max(abs(a[i][0] - b[j][0]), abs(a[i][1] - b[j][1]))
                rec(i + 1, used | {j}, max(cur, cost))

    rec(0, frozenset(), 0.0)
    return best[0]


def test_bottleneck_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(50):
        na, nb = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        a = [(b, b + p) for b, p in rng.uniform(0.0, 1.0, (na, 2))]
        b = [(x, x + p) for x, p in rng.uniform(0.0, 1.0, (nb, 2))]
        got = bottleneck_distance(
            diagram([(1, x, y) for x, y in a]), diagram([(1, x, y) for x, y in b])
        )
        assert got == pytest.approx(brute_bottleneck(a, b), abs=1e-12), f"trial {trial}"


def test_bottleneck_long_rematch_chain_without_recursion():
    # a_i (i < n-1) sits between b_i and b_{i+1}, the last a only by b_0, so
    # matching the last a re-matches every earlier one in a single chain;
    # births differ by 1e-6 only, to fix the order the points are visited
    n = 250
    eps = 1e-6
    top = 10.0 * n  # long bars: the diagonal is never competitive
    a = [(1, i * eps, top + i + 0.5) for i in range(n - 1)] + [(1, (n - 1) * eps, top - 0.5)]
    b = [(1, j * eps, top + j) for j in range(n)]
    # a limit well below the chain length stands in for the default one: a
    # chain longer than that needs over 1000 pairs, where the search takes
    # minutes
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
    try:
        got = bottleneck_distance(diagram(a), diagram(b))
    finally:
        sys.setrecursionlimit(old_limit)
    assert got == 0.5


def random_pair_diagram(rng, k):
    births = rng.uniform(0.0, 1.0, k)
    return diagram((1, b, b + p) for b, p in zip(births, rng.uniform(0.0, 1.0, k)))


@pytest.mark.parametrize("seed, k, expected", [
    (300, 300, 0.12567416450520286),
    (700, 700, 0.08906424640226507),
])
def test_bottleneck_random_diagrams_pinned(seed, k, expected):
    # values computed by the depth-first augmenting-path search that the
    # library matching replaced
    rng = np.random.default_rng(seed)
    d1, d2 = random_pair_diagram(rng, k), random_pair_diagram(rng, k)
    assert bottleneck_distance(d1, d2) == expected


# ------------------------------------------------------------------- stability

def test_stability_bound_smoke():
    # full 100-trial sweep lives in the acceptance suite; this guards the bound
    theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    base_points = np.column_stack([np.cos(theta), np.sin(theta)])
    base = rips_persistence(pairwise_distances(PointCloud(base_points)))
    rng = np.random.default_rng(100)
    delta = 0.05
    for _ in range(5):
        direction = rng.standard_normal((200, 2))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        radius = delta * np.sqrt(rng.uniform(0, 1, 200))
        perturbed = PointCloud(base_points + radius[:, None] * direction)
        moved = rips_persistence(pairwise_distances(perturbed))
        assert bottleneck_distance(base, moved, dim=1) <= 2 * delta
