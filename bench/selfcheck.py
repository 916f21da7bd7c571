"""Shows that every check in checks.py accepts a right output and rejects a
corrupted one. Runs in a few seconds:

    python3 bench/selfcheck.py

Exit status 0 when every genuine output passes and every corrupted one fails.
"""

import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from hopftda.embedding import PointCloud  # noqa: E402
from hopftda.persistence import (  # noqa: E402
    PersistenceDiagram,
    bottleneck_distance,
    pairwise_distances,
    rips_persistence,
)
from workloads import LyapunovGrid  # noqa: E402

RESULTS = []


def expect(name: str, errors, should_pass: bool) -> None:
    ok = (not errors) == should_pass
    RESULTS.append(ok)
    verdict = "accepts" if not errors else "rejects"
    print(f"{'ok  ' if ok else 'FAIL'} {verdict} {name}" + ("" if ok else f": {errors}"))


def nudged(rows, pick, field, factor):
    """Copy of rows with row `pick` (an index into rows) scaled in one field."""
    out = [list(r) for r in rows]
    out[pick][field] *= factor
    return [tuple(r) for r in out]


def rips_cases(rng):
    pts = rng.normal(size=(40, 2))
    pts[7] = pts[3]  # a repeated point: scipy must not see the zero as a missing edge
    d = pairwise_distances(PointCloud(pts)).entries
    rows = rips_persistence(d).rows()
    expect("MST: genuine diagram", checks.check_h0_mst(d, rows), True)
    finite0 = [i for i, r in enumerate(rows) if r[0] == 0 and math.isfinite(r[2])]
    expect("MST: one H0 death nudged", checks.check_h0_mst(d, nudged(rows, finite0[5], 2, 1 + 1e-12)), False)
    expect("MST: infinite H0 class dropped",
           checks.check_h0_mst(d, [r for r in rows if not (r[0] == 0 and math.isinf(r[2]))]), False)
    expect("MST: infinite H1 class added", checks.check_h0_mst(d, rows + [(1, 0.5, math.inf)]), False)
    tiny = pairwise_distances(PointCloud(pts * 1e-40)).entries  # a vanishing-scale Hopf cloud
    expect("MST: genuine diagram at scale 1e-40", checks.check_h0_mst(tiny, rips_persistence(tiny).rows()), True)

    ring = np.linspace(0, 2 * np.pi, 10, endpoint=False) + 0.1 * rng.uniform(-1, 1, 10)
    sub = pairwise_distances(PointCloud(np.column_stack([np.cos(ring), np.sin(ring)]))).entries
    sub_rows = rips_persistence(sub).rows()
    expect("naive: genuine 10-point diagram", checks.check_naive(sub, sub_rows), True)
    h1 = [i for i, r in enumerate(sub_rows) if r[0] == 1]
    expect("naive: H1 death nudged", checks.check_naive(sub, nudged(sub_rows, h1[0], 2, 1.001)), False)
    expect("naive: H0 death nudged", checks.check_naive(sub, nudged(sub_rows, 0, 2, 1.001)), False)
    expect("naive: a row dropped", checks.check_naive(sub, sub_rows[1:]), False)


def hopf_cases(rng):
    mus = np.round(np.linspace(-1.0, 1.0, 21), 12)
    hs = np.where(mus > 0, 0.83 * np.sqrt(np.clip(mus, 0, None)) * (1 + 0.005 * rng.uniform(-1, 1, 21)),
                  1e-12)
    expect("hopf: genuine sweep", checks.check_hopf_sweep(mus, hs, 0.1, 0.1), True)
    expect("hopf: mu_hat moved two grid steps", checks.check_hopf_sweep(mus, hs, 0.3, 0.1), False)
    bad = hs.copy()
    bad[2] = 1e-3  # mu = -0.8
    expect("hopf: H not near zero below -0.2", checks.check_hopf_sweep(mus, bad, 0.1, 0.1), False)
    bad = hs.copy()
    bad[15] *= 1.1  # mu = 0.5
    expect("hopf: H/sqrt(mu) off by 10% at one point", checks.check_hopf_sweep(mus, bad, 0.1, 0.1), False)


def lorenz_cases():
    def level(mu_hat, status="ok"):
        return {"status": status, "mu_hat": mu_hat,
                "points": [{"mu": m, "status": "ok"} for m in (16.0, 20.0, 24.0, 28.0, 32.0)]}

    expect("lorenz: genuine levels", checks.check_lorenz_levels([level(24.0)] * 3), True)
    expect("lorenz: mu_hat moved two grid steps",
           checks.check_lorenz_levels([level(24.0), level(32.0), level(24.0)]), False)
    expect("lorenz: a level failed",
           checks.check_lorenz_levels([level(24.0), level(None, "failed: x"), level(24.0)]), False)
    broken = level(24.0)
    broken["points"][1] = {"mu": 20.0, "status": "failed: IntegrationDiverged"}
    expect("lorenz: a point failed", checks.check_lorenz_levels([broken] * 3), False)
    files = {"noise_00/sweep.csv": b"mu,H\n1,2\n", "noise_00/diagram_00.csv": b"dim\n"}
    expect("bytes: identical artifacts", checks.check_same_bytes(files, dict(files)), True)
    flipped = dict(files, **{"noise_00/sweep.csv": b"mu,H\n1,3\n"})
    expect("bytes: one byte changed", checks.check_same_bytes(files, flipped), False)
    expect("bytes: a file missing", checks.check_same_bytes(files, {"noise_00/sweep.csv": files["noise_00/sweep.csv"]}), False)


def lyapunov_cases():
    for system, fixed, _, lo, hi, count in LyapunovGrid.GRIDS:
        grid = [float(g) for g in np.round(np.linspace(lo, hi, count), 12)]
        ref = [(mu, checks.expected_exponent(system, mu, fixed)[0]) for mu in grid]
        expect(f"lyapunov {system}: reference values", checks.check_exponents(system, fixed, ref, grid), True)
        for i in range(len(grid)):
            shifted = [(mu, lam + (0.1 if j == i else 0.0)) for j, (mu, lam) in enumerate(ref)]
            expect(f"lyapunov {system}: value at {grid[i]} shifted by 0.1",
                   checks.check_exponents(system, fixed, shifted, grid), False)
        expect(f"lyapunov {system}: a point missing", checks.check_exponents(system, fixed, ref[1:], grid), False)


def persist_cases(rng):
    r, m, theta = 1.3, 2, 2 * np.pi * 9 / 40.7
    psi = rng.uniform(0, 2 * np.pi, 150)
    mat, a, b = checks.ellipse_axes(r, theta, m)
    pts = np.column_stack([np.cos(psi), np.sin(psi)]) @ mat.T + 0.01 * r * rng.uniform(-1, 1, (150, m))
    rows = rips_persistence(pairwise_distances(PointCloud(pts))).rows()
    eps = checks.hausdorff_to_ellipse(pts, mat)
    expect("bar: genuine noisy ellipse", checks.check_dominant_bar(rows, a, b, eps), True)
    dom = max((i for i, x in enumerate(rows) if x[0] == 1), key=lambda i: rows[i][2] - rows[i][1])
    expect("bar: dominant death moved by 3 eps",
           checks.check_dominant_bar(nudged(rows, dom, 2, 1 + 3 * eps / rows[dom][2] + 2 * (a - b) / a),
                                     a, b, eps), False)
    expect("bar: ellipse claimed at half its size",
           checks.check_dominant_bar(rows, 0.5 * a, 0.5 * b, eps), False)

    scaled = pts * 1.015
    d1 = PersistenceDiagram(*_cols(rows))
    d2 = PersistenceDiagram(*_cols(rips_persistence(pairwise_distances(PointCloud(scaled))).rows()))
    d_b = bottleneck_distance(d1, d2, 1)
    delta = float(np.max(np.linalg.norm(scaled - pts, axis=1)))
    expect("stability: genuine perturbed copy", checks.check_stability(d_b, delta), True)
    expect("stability: delta understated fourfold", checks.check_stability(d_b, delta / 4), False)


def _cols(rows):
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return arr[:, 0].astype(np.int64), arr[:, 1], arr[:, 2]


def main() -> int:
    rng = np.random.default_rng(20261020)
    rips_cases(rng)
    hopf_cases(rng)
    lorenz_cases()
    lyapunov_cases()
    persist_cases(rng)
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
