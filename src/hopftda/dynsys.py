"""Benchmark dynamical systems and fixed-step RK4 integration.

Three planar/3-D flows that undergo a Hopf-type transition as one control
parameter sweeps: the supercritical Hopf normal form, the Lorenz system, and
a reduced two-variable Belousov-Zhabotinsky (chlorite-iodide) model. The first
coordinate is recorded after a transient is discarded; observational Gaussian
noise can be added to the recorded series.

Each system is one frozen parameter record that also carries the system's
name, its right-hand side (rhs, a closure over the parameters that takes the
coordinates as separate floats), its default initial state, the name of the
parameter swept across the transition and that parameter's critical value.
``rk4_stepper`` turns an rhs into one unrolled RK4 step on those coordinates;
``integrate`` and ``lyapunov.largest_lyapunov`` both step with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Tuple, Union

import numpy as np

_BIG = 1e15  # state magnitude treated as divergence

State = Tuple[float, ...]


class IntegrationDiverged(RuntimeError):
    """Raised when the integrated state leaves the finite range.

    The step index reached is kept in ``step``.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


@dataclass(frozen=True)
class HopfParams:
    """Supercritical Hopf normal form.

    dx/dt = mu*x - omega*y - x*(x^2 + y^2)
    dy/dt = omega*x + mu*y - y*(x^2 + y^2)

    The origin is stable for mu < 0; for mu > 0 a limit cycle of radius
    sqrt(mu) attracts. Critical value mu_c = 0.
    """

    name: ClassVar[str] = "hopf"
    swept: ClassVar[str] = "mu"
    initial_state: ClassVar[State] = (0.5, 0.0)
    critical: ClassVar[float] = 0.0

    mu: float
    omega: float = 1.0

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    def rhs(self) -> Callable[..., State]:
        mu, omega = self.mu, self.omega

        def f(x, y):
            r2 = x * x + y * y
            return (mu * x - omega * y - x * r2, omega * x + mu * y - y * r2)

        return f


@dataclass(frozen=True)
class LorenzParams:
    """Lorenz system.

    dx/dt = sigma*(y - x)
    dy/dt = x*(rho - z) - y
    dz/dt = x*y - beta*z

    With sigma=10, beta=8/3 the fixed points C+- lose stability at
    rho_c = sigma*(sigma + beta + 3)/(sigma - beta - 1) = 470/19 ~ 24.74.
    """

    name: ClassVar[str] = "lorenz"
    swept: ClassVar[str] = "rho"
    initial_state: ClassVar[State] = (1.0, 1.0, 1.0)

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.beta > 0):
            raise ValueError("sigma and beta must be > 0")
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")

    @property
    def rho_critical(self) -> float:
        """Linear-stability threshold of the C+- fixed points."""
        return self.sigma * (self.sigma + self.beta + 3.0) / (self.sigma - self.beta - 1.0)

    critical = rho_critical

    def rhs(self) -> Callable[..., State]:
        sigma, rho, beta = self.sigma, self.rho, self.beta

        def f(x, y, z):
            return (sigma * (y - x), x * (rho - z) - y, x * y - beta * z)

        return f


@dataclass(frozen=True)
class BzParams:
    """Reduced two-variable Belousov-Zhabotinsky oscillator.

    dx/dt = a - x - 4*x*y / (1 + x^2)
    dy/dt = b*x * (1 - y / (1 + x^2))

    The equilibrium (a/5, 1 + a^2/25) changes stability at
    b_c = 3a/5 - 25/a (oscillatory below, stable above).
    """

    name: ClassVar[str] = "bz"
    swept: ClassVar[str] = "b"
    initial_state: ClassVar[State] = (1.0, 1.0)

    a: float = 10.0
    b: float = 3.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("a and b must be > 0")

    @property
    def b_critical(self) -> float:
        """Trace-zero (Hopf) condition of the linearization at the equilibrium."""
        return 3.0 * self.a / 5.0 - 25.0 / self.a

    critical = b_critical

    def rhs(self) -> Callable[..., State]:
        a, b = self.a, self.b

        def f(x, y):
            q = 1.0 + x * x
            return (a - x - 4.0 * x * y / q, b * x * (1.0 - y / q))

        return f


SystemParams = Union[HopfParams, LorenzParams, BzParams]

# every supported system by name; each record carries its own equations,
# default initial state, swept parameter and critical value
SYSTEMS = {cls.name: cls for cls in (HopfParams, LorenzParams, BzParams)}


def rk4_stepper(field: Callable[..., State], dim: int, dt: float) -> Callable[..., State]:
    """One classical RK4 step of size ``dt`` for an autonomous field in ``dim``
    coordinates (2 or 3): ``step(*coords)`` returns the next coordinates.

    ``field(*coords)`` returns the derivatives as a tuple. The stages are
    written out per coordinate, so a step builds no intermediate sequences;
    every coordinate sees the same operations in the same order as the
    textbook form ``s + sixth * (k1 + 2 * (k2 + k3) + k4)``.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    if dim == 2:

        def step(x, y):
            ax, ay = field(x, y)
            bx, by = field(x + half * ax, y + half * ay)
            cx, cy = field(x + half * bx, y + half * by)
            dx, dy = field(x + dt * cx, y + dt * cy)
            return (
                x + sixth * (ax + 2.0 * (bx + cx) + dx),
                y + sixth * (ay + 2.0 * (by + cy) + dy),
            )

    elif dim == 3:

        def step(x, y, z):
            ax, ay, az = field(x, y, z)
            bx, by, bz = field(x + half * ax, y + half * ay, z + half * az)
            cx, cy, cz = field(x + half * bx, y + half * by, z + half * bz)
            dx, dy, dz = field(x + dt * cx, y + dt * cy, z + dt * cz)
            return (
                x + sixth * (ax + 2.0 * (bx + cx) + dx),
                y + sixth * (ay + 2.0 * (by + cy) + dy),
                z + sixth * (az + 2.0 * (bz + cz) + dz),
            )

    else:
        raise ValueError(f"rk4_stepper supports 2 or 3 coordinates, got {dim}")
    return step


@dataclass(frozen=True)
class TrajectoryConfig:
    """Fixed-step integration run description.

    ``n_steps`` RK4 steps of size ``dt`` are taken from the system's
    ``initial_state``; the first coordinate of the states at steps
    ``transient_steps .. n_steps-1`` is recorded (pre-step states, so the
    initial state is included when ``transient_steps`` is 0).
    """

    dt: float = 0.01
    n_steps: int = 20_000
    transient_steps: int = 10_000

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= self.transient_steps < self.n_steps:
            raise ValueError(
                f"transient_steps must be in [0, n_steps), got {self.transient_steps}"
            )
        if self.n_steps - self.transient_steps < 2:
            raise ValueError("recorded length n_steps - transient_steps must be >= 2")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar series."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must all be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)


@dataclass(frozen=True)
class NoiseSpec:
    """Observational Gaussian noise, scaled relative to the clean series."""

    sigma_rel: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma_rel < 0:
            raise ValueError(f"sigma_rel must be >= 0, got {self.sigma_rel}")


def integrate(params: SystemParams, config: TrajectoryConfig) -> TimeSeries:
    """Integrate the system and record its first coordinate.

    Parameters
    ----------
    params : SystemParams
        System and parameter values.
    config : TrajectoryConfig
        Step size and lengths; the run starts from ``params.initial_state``.

    Returns
    -------
    TimeSeries
        Post-transient samples of the first coordinate (x for every bundled
        system), length ``n_steps - transient_steps``.

    Raises
    ------
    IntegrationDiverged
        If the state leaves the finite range; the exception names the step
        index reached.
    """
    dt, transient = config.dt, config.transient_steps
    state = params.initial_state
    step = rk4_stepper(params.rhs(), len(state), dt)
    for k in range(transient):
        state = step(*state)
        for s in state:
            if not -_BIG < s < _BIG:
                raise IntegrationDiverged("state became non-finite", step=k)
    out = np.empty(config.n_steps - transient, dtype=float)
    for j in range(out.size):
        out[j] = state[0]
        state = step(*state)
        for s in state:
            if not -_BIG < s < _BIG:
                raise IntegrationDiverged("state became non-finite", step=transient + j)
    return TimeSeries(t0=transient * dt, dt=dt, values=out)


def add_noise(series: TimeSeries, spec: NoiseSpec) -> TimeSeries:
    """Add i.i.d. Gaussian noise with std = sigma_rel * std(series).

    ``sigma_rel = 0`` returns the input unchanged. Fixed (seed, sigma_rel,
    series) triples produce identical outputs.
    """
    if spec.sigma_rel == 0:
        return series
    sigma = spec.sigma_rel * float(np.std(series.values))
    rng = np.random.default_rng(spec.seed)
    noisy = series.values + rng.normal(0.0, sigma, size=series.values.size)
    return TimeSeries(t0=series.t0, dt=series.dt, values=noisy)
