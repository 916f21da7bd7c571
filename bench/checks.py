"""Correctness checks computed apart from the program.

Each check takes program outputs and returns a list of error strings (empty
when the output is right). No expected value comes from the code path being
judged: H0 is compared with scipy's minimum spanning tree, small diagrams
with a dense boundary-matrix reduction kept here, detections and exponents
with analytic values of the three systems, and the bottleneck distance and
the dominant bar with the stability theorem. selfcheck.py feeds each one
corrupted outputs.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

Rows = List[Tuple[int, float, float]]

# sweep_hopf: H below mu = -0.2 comes from clouds of width <= ~1e-9
HOPF_ZERO_H = 1e-6
# sweep_hopf: relative spread (max - min) / median of H / sqrt(mu), mu >= 0.2
HOPF_SCALE_TOL = 0.10
# sweep_lorenz_noise: mu_hat distance to rho_c = 470/19
LORENZ_MU_HAT_TOL = 1.0
LORENZ_RHO_C = 470.0 / 19.0
# lyapunov_grid: exponent tolerance against analytic values, and the
# published Lorenz exponent at rho = 28 with its tolerance
LYAP_TOL = 0.01
LORENZ_LAMBDA_28 = 0.906
LORENZ_LAMBDA_TOL = 0.05
# rounding slack on comparisons of distances that went through CSV files
REL_SLACK = 1e-9


# ---------------------------------------------------------------------------
# diagrams against the minimum spanning tree and a naive reduction


def mst_weights(entries: np.ndarray) -> np.ndarray:
    """Sorted positive MST edge weights of the Euclidean distance matrix.

    scipy reads dense entries within 1e-8 of zero as missing edges, and drops
    explicit zeros, so points at distance zero are merged first and the
    distinct points' edges are passed as an explicit sparse matrix.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    d = np.asarray(entries, dtype=float)
    if d.shape[0] < 2:
        return np.empty(0)
    _, labels = connected_components(csr_matrix((d == 0.0).astype(np.int8)), directed=False)
    _, reps = np.unique(labels, return_index=True)
    k = reps.shape[0]
    iu = np.triu_indices(k, k=1)
    graph = csr_matrix((d[np.ix_(reps, reps)][iu], iu), shape=(k, k))
    return np.sort(minimum_spanning_tree(graph).data)


def check_h0_mst(entries: np.ndarray, rows: Rows) -> List[str]:
    """Full-scale diagram: finite H0 deaths are the MST weights, one infinite
    H0 class, no infinite H1 class."""
    errors = []
    h0 = [(b, d) for dim, b, d in rows if dim == 0]
    finite = np.sort(np.array([d for b, d in h0 if math.isfinite(d)], dtype=float))
    n_inf0 = sum(1 for b, d in h0 if not math.isfinite(d))
    n_inf1 = sum(1 for dim, b, d in rows if dim == 1 and not math.isfinite(d))
    expect = mst_weights(entries)
    if finite.shape != expect.shape or not np.array_equal(finite, expect):
        errors.append(
            f"H0 deaths differ from MST weights ({finite.shape[0]} vs {expect.shape[0]} values)"
        )
    if any(b != 0.0 for b, d in h0):
        errors.append("an H0 class is born after 0")
    if n_inf0 != 1:
        errors.append(f"{n_inf0} infinite H0 classes at full scale, expected 1")
    if n_inf1:
        errors.append(f"{n_inf1} infinite H1 classes at full scale, expected 0")
    return errors


def naive_rips(entries: np.ndarray) -> Rows:
    """H0/H1 of the full Rips 2-skeleton by dense column reduction over Z/2.

    Simplices are ordered by (value, dimension, vertices); pairs with
    death == birth are dropped, as the program does.
    """
    d = np.asarray(entries, dtype=float)
    n = d.shape[0]
    simplices = [(0.0, 0, (i,)) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        simplices.append((float(d[i, j]), 1, (i, j)))
    for i, j, k in itertools.combinations(range(n), 3):
        simplices.append((float(max(d[i, j], d[i, k], d[j, k])), 2, (i, j, k)))
    simplices.sort()
    index = {s[2]: pos for pos, s in enumerate(simplices)}
    low_owner: Dict[int, int] = {}
    paired = set()
    rows: Rows = []
    for pos, (value, dim, verts) in enumerate(simplices):
        column = {index[f] for f in itertools.combinations(verts, dim)} if dim else set()
        while column and max(column) in low_owner:
            column ^= low_owner[max(column)][1]
        if column:
            low = max(column)
            low_owner[low] = (pos, column)
            paired.update((low, pos))
            birth_value, birth_dim = simplices[low][0], simplices[low][1]
            if value > birth_value:
                rows.append((birth_dim, birth_value, value))
    for pos, (value, dim, _) in enumerate(simplices):
        if pos not in paired and dim < 2:
            rows.append((dim, value, math.inf))
    return sorted(rows)


def check_naive(entries: np.ndarray, rows: Rows) -> List[str]:
    expect = naive_rips(entries)
    got = sorted((int(a), float(b), float(c)) for a, b, c in rows)
    if got != expect:
        return [f"diagram of a {entries.shape[0]}-point subset differs from the naive reduction"]
    return []


# ---------------------------------------------------------------------------
# sweeps


def check_hopf_sweep(mus: Sequence[float], hs: Sequence[float], mu_hat: float,
                     step: float) -> List[str]:
    """mu_hat within one grid step of mu_c = 0; H ~ 0 for mu <= -0.2; H / sqrt(mu)
    constant for mu >= 0.2 (cycle radius sqrt(mu), speed independent of mu, Rips
    scale-equivariant)."""
    errors = []
    mus = np.asarray(mus, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if not abs(mu_hat - 0.0) <= step * (1 + 1e-9):
        errors.append(f"mu_hat = {mu_hat} is more than one grid step ({step}) from 0")
    low = hs[mus <= -0.2 + 1e-12]
    if low.size == 0 or np.any(low > HOPF_ZERO_H):
        errors.append(f"H exceeds {HOPF_ZERO_H} below mu = -0.2 (max {low.max() if low.size else None})")
    sel = mus >= 0.2 - 1e-12
    ratio = hs[sel] / np.sqrt(mus[sel])
    if ratio.size < 2:
        errors.append("fewer than two grid points with mu >= 0.2")
    else:
        spread = (ratio.max() - ratio.min()) / np.median(ratio)
        if not spread <= HOPF_SCALE_TOL:
            errors.append(f"H/sqrt(mu) spread {spread:.4f} exceeds {HOPF_SCALE_TOL}")
    return errors


def check_lorenz_levels(levels: Sequence[dict]) -> List[str]:
    """Every noise level ok, every point ok, mu_hat within 1.0 of 470/19."""
    errors = []
    for v, entry in enumerate(levels):
        if entry.get("status") != "ok":
            errors.append(f"noise level {v}: status {entry.get('status')!r}")
            continue
        bad = [p["mu"] for p in entry["points"] if p["status"] != "ok"]
        if bad:
            errors.append(f"noise level {v}: failed points at {bad}")
        mu_hat = entry.get("mu_hat")
        if mu_hat is None or not abs(mu_hat - LORENZ_RHO_C) <= LORENZ_MU_HAT_TOL:
            errors.append(f"noise level {v}: mu_hat {mu_hat} not within "
                          f"{LORENZ_MU_HAT_TOL} of {LORENZ_RHO_C:.4f}")
    return errors


def check_same_bytes(files_a: Dict[str, bytes], files_b: Dict[str, bytes]) -> List[str]:
    """Two runs' artifacts (relative path -> bytes) are byte-identical."""
    errors = []
    if sorted(files_a) != sorted(files_b):
        errors.append(f"artifact sets differ: {sorted(set(files_a) ^ set(files_b))}")
    for name in sorted(set(files_a) & set(files_b)):
        if files_a[name] != files_b[name]:
            errors.append(f"{name} differs between the parallel and the serial run")
    return errors


# ---------------------------------------------------------------------------
# Lyapunov exponents


def bz_focus_rate(a: float, b: float) -> float:
    """Real part of the Jacobian eigenvalues at (a/5, 1 + a^2/25)."""
    x = a / 5.0
    q = 1.0 + x * x
    y = q
    jac = np.array([
        [-1.0 - 4.0 * y * (1.0 - x * x) / q**2, -4.0 * x / q],
        [b * (1.0 - y / q) + b * x * 2.0 * x * y / q**2, -b * x / q],
    ])
    return float(np.max(np.linalg.eigvals(jac).real))


def lorenz_fixed_point_rate(rho: float, sigma: float = 10.0, beta: float = 8.0 / 3.0) -> float:
    """Largest real part of the Jacobian eigenvalues at C+ = (x, x, rho - 1)."""
    x = math.sqrt(beta * (rho - 1.0))
    jac = np.array([[-sigma, sigma, 0.0], [1.0, -1.0, -x], [x, x, -beta]])
    return float(np.max(np.linalg.eigvals(jac).real))


def expected_exponent(system: str, value: float, fixed: Dict[str, float]) -> Tuple[float, float]:
    """Analytic (or published) largest exponent and its tolerance."""
    if system == "hopf":
        # mu < 0: the origin attracts at rate mu; mu >= 0: cycle (or the
        # degenerate focus at mu = 0), zero exponent
        return (value if value < 0 else 0.0), LYAP_TOL
    if system == "bz":
        a = fixed.get("a", 10.0)
        b_c = 3.0 * a / 5.0 - 25.0 / a
        return (bz_focus_rate(a, value) if value > b_c else 0.0), LYAP_TOL
    if system == "lorenz":
        if value == 28.0:
            return LORENZ_LAMBDA_28, LORENZ_LAMBDA_TOL
        sigma, beta = fixed.get("sigma", 10.0), fixed.get("beta", 8.0 / 3.0)
        # below ~24.06, where the strange attractor appears, C+- are the only attractors
        if 1.0 < value < 24.0:
            return lorenz_fixed_point_rate(value, sigma, beta), LYAP_TOL
    raise ValueError(f"no reference exponent for {system} at {value}")


def check_exponents(system: str, fixed: Dict[str, float],
                    values: Sequence[Tuple[float, float]], expected_mus: Sequence[float]) -> List[str]:
    errors = []
    got = {round(mu, 9): lam for mu, lam in values}
    for mu in expected_mus:
        lam = got.get(round(mu, 9))
        if lam is None:
            errors.append(f"{system}: no exponent at {mu}")
            continue
        ref, tol = expected_exponent(system, mu, fixed)
        if not abs(lam - ref) <= tol:
            errors.append(f"{system} at {mu}: lambda1 = {lam:.5f}, expected {ref:.5f} +- {tol}")
    return errors


# ---------------------------------------------------------------------------
# persist_chain


def check_stability(d_b: float, delta: float) -> List[str]:
    """Stability theorem for Rips: points moved by <= delta move H1 by <= 2 delta."""
    if not d_b <= 2.0 * delta * (1 + REL_SLACK):
        return [f"d_B = {d_b:.6g} exceeds 2 delta = {2 * delta:.6g}"]
    return []


def ellipse_axes(r: float, theta: float, m: int) -> Tuple[np.ndarray, float, float]:
    """Delay embedding of r cos(psi) with lag angle theta in dimension m.

    Point (x[k+(m-1)tau], ..., x[k]) is r (cos psi C - sin psi S) with
    C_c = cos((m-1-c) theta), S_c = sin((m-1-c) theta): an ellipse with
    semi-axes a >= b, the singular values of r [C, -S]. Returns the (m, 2)
    matrix and (a, b).
    """
    lags = (m - 1 - np.arange(m)) * theta
    mat = r * np.column_stack([np.cos(lags), -np.sin(lags)])
    sv = np.linalg.svd(mat, compute_uv=False)
    return mat, float(sv[0]), float(sv[-1])


def hausdorff_to_ellipse(points: np.ndarray, mat: np.ndarray, samples: int = 8192) -> float:
    """Upper bound on the Hausdorff distance between points and the ellipse.

    Both directed distances are taken against a dense sample of the ellipse;
    the sample's largest gap bounds the discretization error.
    """
    psi = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    curve = np.column_stack([np.cos(psi), np.sin(psi)]) @ mat.T
    gap = float(np.max(np.linalg.norm(np.diff(np.vstack([curve, curve[:1]]), axis=0), axis=1)))
    to_curve = 0.0
    to_points = np.full(samples, np.inf)
    for start in range(0, points.shape[0], 32):  # bounds the temporary to 32 x samples x m
        d = np.sqrt(((points[start:start + 32, None, :] - curve[None, :, :]) ** 2).sum(axis=2))
        to_curve = max(to_curve, float(d.min(axis=1).max()))
        np.minimum(to_points, d.min(axis=0), out=to_points)
    return max(to_curve, float(to_points.max())) + gap


def check_dominant_bar(rows: Rows, a: float, b: float, eps: float) -> List[str]:
    """Dominant H1 bar against the ellipse's bar.

    With semi-axes a >= b, Rips(a S^1) <= Rips(E) <= Rips(b S^1) on matching
    points, so the ellipse's loop is born at 0 and dies in [sqrt3 b, sqrt3 a]
    (the circle's (0, sqrt3 r) when a = b = r). Landmarks within Hausdorff
    distance eps of the ellipse shift that bar by at most 2 eps.
    """
    h1 = [(bb, dd) for dim, bb, dd in rows if dim == 1 and math.isfinite(dd)]
    if not h1:
        return ["no finite H1 bar"]
    birth, death = max(h1, key=lambda p: p[1] - p[0])
    lo, hi = math.sqrt(3.0) * b - 2 * eps, math.sqrt(3.0) * a + 2 * eps
    errors = []
    if not birth <= 2 * eps:
        errors.append(f"dominant bar born at {birth:.6g} > 2 eps = {2 * eps:.6g}")
    if not lo <= death <= hi:
        errors.append(f"dominant bar dies at {death:.6g}, outside [{lo:.6g}, {hi:.6g}]")
    return errors
