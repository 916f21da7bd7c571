"""Reference implementations shared by the test suites.

The Rips oracle is deliberately naive: build every simplex up to dimension 2,
sort by (value, dim, vertex tuple), reduce the dense boundary matrix left to
right with no shortcuts, and read pairs off the pivots.

The RK4 oracle is the generic tuple form of the step, over fields that take
and return the whole state as a tuple; ``tuple_rhs`` gives each bundled
system's equations in that form, written apart from ``hopftda.dynsys``.
"""

import itertools

import numpy as np

from hopftda.embedding import PointCloud


def naive_rips_rows(entries, eps_max=None):
    """Full boundary-matrix reduction, no optimizations, for small inputs."""
    n = entries.shape[0]
    if eps_max is None:
        eps_max = float(entries.max()) if n > 1 else 0.0
    simplices = [(0.0, 0, (v,)) for v in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if entries[i, j] <= eps_max:
            simplices.append((float(entries[i, j]), 1, (i, j)))
    for i, j, k in itertools.combinations(range(n), 3):
        value = max(entries[i, j], entries[i, k], entries[j, k])
        if value <= eps_max:
            simplices.append((float(value), 2, (i, j, k)))
    simplices.sort()
    index = {s[2]: idx for idx, s in enumerate(simplices)}

    reduced = []
    for value, dim, verts in simplices:
        if dim == 0:
            reduced.append(0)
        elif dim == 1:
            reduced.append((1 << index[(verts[0],)]) | (1 << index[(verts[1],)]))
        else:
            i, j, k = verts
            reduced.append(
                (1 << index[(i, j)]) | (1 << index[(i, k)]) | (1 << index[(j, k)])
            )
    owner = {}
    for col_idx in range(len(reduced)):
        col = reduced[col_idx]
        while col:
            low = col.bit_length() - 1
            if low not in owner:
                break
            col ^= reduced[owner[low]]
        reduced[col_idx] = col
        if col:
            owner[col.bit_length() - 1] = col_idx

    paired = set(owner.values()) | set(owner.keys())
    rows = []
    for low, col_idx in owner.items():
        birth, dim = simplices[low][0], simplices[low][1]
        death = simplices[col_idx][0]
        if dim <= 1 and death > birth:
            rows.append((dim, birth, death))
    for idx, (value, dim, _verts) in enumerate(simplices):
        if idx not in paired and dim <= 1:
            rows.append((dim, value, np.inf))
    rows.sort()
    return rows


def random_cloud(rng, n, m=2):
    points = rng.uniform(-1.0, 1.0, size=(n, m))
    if n >= 2 and rng.random() < 0.3:
        points[rng.integers(n)] = points[rng.integers(n)]  # duplicate stress
    return PointCloud(points=points)


def rk4_step_field(field, state, dt):
    """One classical RK4 step of an arbitrary autonomous field on float tuples."""
    k1 = field(state)
    half = 0.5 * dt
    k2 = field(tuple(s + half * k for s, k in zip(state, k1)))
    k3 = field(tuple(s + half * k for s, k in zip(state, k2)))
    k4 = field(tuple(s + dt * k for s, k in zip(state, k3)))
    sixth = dt / 6.0
    return tuple(
        s + sixth * (a + 2.0 * (b + c) + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def tuple_rhs(params):
    """A bundled system's right-hand side as a tuple-to-tuple field."""
    if params.name == "hopf":
        mu, omega = params.mu, params.omega

        def f(state):
            x, y = state
            r2 = x * x + y * y
            return (mu * x - omega * y - x * r2, omega * x + mu * y - y * r2)

    elif params.name == "lorenz":
        sigma, rho, beta = params.sigma, params.rho, params.beta

        def f(state):
            x, y, z = state
            return (sigma * (y - x), x * (rho - z) - y, x * y - beta * z)

    else:
        a, b = params.a, params.b

        def f(state):
            x, y = state
            q = 1.0 + x * x
            return (a - x - 4.0 * x * y / q, b * x * (1.0 - y / q))

    return f
