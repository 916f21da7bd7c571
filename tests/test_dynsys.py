"""Integrator and system-definition tests with hand-derived oracles."""

import math

import numpy as np
import pytest

from _oracles import rk4_step_field, tuple_rhs
from hopftda.dynsys import (
    SYSTEMS,
    BzParams,
    HopfParams,
    IntegrationDiverged,
    LorenzParams,
    NoiseSpec,
    TimeSeries,
    TrajectoryConfig,
    add_noise,
    integrate,
    rk4_stepper,
)

# One RK4 step of x' = x from x=1 with dt=0.1, expanded by hand:
# k1=1, k2=1.05, k3=1.0525, k4=1.10525 -> 1 + 0.1*6.31025/6
RK4_EXP_ONE_STEP = 1.1051708333333333
EXP_01 = 1.1051709180756477


def test_vector_field_hopf_origin_equilibrium():
    assert HopfParams(mu=0.0, omega=1.0).rhs()(0.0, 0.0) == (0.0, 0.0)


def test_vector_field_lorenz_substitution():
    out = LorenzParams(10.0, 28.0, 8.0 / 3.0).rhs()(1.0, 1.0, 1.0)
    assert out == (0.0, 26.0, 1.0 - 8.0 / 3.0)


def test_vector_field_bz_substitution():
    assert BzParams(a=10.0, b=3.0).rhs()(1.0, 1.0) == (7.0, 1.5)


def test_vector_field_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        integrate(HopfParams(mu=0.0), TrajectoryConfig(initial_state=(0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="dimension"):
        integrate(LorenzParams(), TrajectoryConfig(initial_state=(1.0, 1.0)))


def test_state_dims():
    assert len(HopfParams.initial_state) == 2
    assert len(LorenzParams.initial_state) == 3
    assert len(BzParams.initial_state) == 2
    assert SYSTEMS == {"hopf": HopfParams, "lorenz": LorenzParams, "bz": BzParams}


def test_records_carry_swept_parameter_and_critical_value():
    assert (HopfParams.swept, HopfParams(mu=0.3).critical) == ("mu", 0.0)
    assert LorenzParams.swept == "rho"
    assert LorenzParams().critical == pytest.approx(470.0 / 19.0, rel=1e-15)
    assert BzParams.swept == "b"
    assert BzParams(a=10.0).critical == pytest.approx(3.5, rel=1e-15)


def test_param_validation():
    with pytest.raises(ValueError):
        HopfParams(mu=0.0, omega=0.0)
    with pytest.raises(ValueError):
        LorenzParams(sigma=-1.0)
    with pytest.raises(ValueError):
        LorenzParams(rho=-0.1)
    with pytest.raises(ValueError):
        BzParams(a=0.0)


def test_rk4_scalar_exponential_one_step():
    # x' = x as two decoupled coordinates
    y1, y2 = rk4_stepper(lambda x, y: (x, y), 2, 0.1)(1.0, 1.0)
    assert y1 == y2
    assert y1 == pytest.approx(RK4_EXP_ONE_STEP, abs=1e-15)
    assert abs(y1 - EXP_01) < 1e-7


def test_rk4_fixed_point_invariance():
    assert rk4_stepper(HopfParams(mu=0.5).rhs(), 2, 0.05)(0.0, 0.0) == (0.0, 0.0)


def test_rk4_step_halving_oracle_lorenz():
    f = LorenzParams(10.0, 28.0, 8.0 / 3.0).rhs()
    full = rk4_stepper(f, 3, 0.01)(1.0, 1.0, 1.0)
    half_step = rk4_stepper(f, 3, 0.005)
    half = half_step(*half_step(1.0, 1.0, 1.0))
    # local truncation mismatch ~ C*dt^5 with C ~ 1e4 for these derivatives
    assert np.max(np.abs(np.subtract(full, half))) < 1e-5


def test_rk4_global_order_ratio():
    # global error on x' = x over [0,1] should shrink ~16x per halving
    def run(dt):
        step = rk4_stepper(lambda x, y: (x, y), 2, dt)
        y = (1.0, 1.0)
        for _ in range(round(1.0 / dt)):
            y = step(*y)
        assert y[0] == y[1]
        return abs(y[0] - math.e)

    ratio = run(0.1) / run(0.05)
    assert 12.0 <= ratio <= 20.0


def _random_system(rng, name):
    """Parameters and a starting state near the attractor, as Python floats."""
    def u(lo, hi, n=1):
        return rng.uniform(lo, hi, n).tolist()

    if name == "hopf":
        (mu,), (omega,) = u(-1.0, 1.0), u(0.5, 2.0)
        return HopfParams(mu=mu, omega=omega), tuple(u(-1.5, 1.5, 2))
    if name == "lorenz":
        sigma, rho, beta = u(5.0, 15.0) + u(0.0, 40.0) + u(1.0, 4.0)
        return LorenzParams(sigma=sigma, rho=rho, beta=beta), tuple(u(-20.0, 20.0, 3))
    (a,), (b,) = u(5.0, 15.0), u(1.0, 6.0)
    return BzParams(a=a, b=b), tuple(u(0.1, 5.0, 2))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_rk4_stepper_bit_identical_to_tuple_oracle(name):
    rng = np.random.default_rng(20261020)
    for _ in range(5):
        params, state = _random_system(rng, name)
        dt = float(rng.uniform(0.001, 0.02))
        step = rk4_stepper(params.rhs(), len(state), dt)
        field = tuple_rhs(params)
        expected = state
        for _ in range(1000):
            state = step(*state)
            expected = rk4_step_field(field, expected, dt)
            assert state == expected
        assert all(math.isfinite(s) for s in state)


def test_rk4_stepper_rejects_other_dimensions():
    with pytest.raises(ValueError, match="2 or 3"):
        rk4_stepper(lambda x: (x,), 1, 0.1)


def test_integrate_decay_to_origin():
    series = integrate(
        HopfParams(mu=-1.0),
        TrajectoryConfig(dt=0.01, n_steps=2_000, transient_steps=0),
    )
    assert abs(series.values[-1]) < 1e-3


def test_integrate_length_contract():
    series = integrate(
        HopfParams(mu=0.5),
        TrajectoryConfig(dt=0.01, n_steps=1_000, transient_steps=400),
    )
    assert len(series) == 600
    assert series.t0 == pytest.approx(4.0)


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0])
def test_hopf_limit_cycle_amplitude(mu):
    series = integrate(HopfParams(mu=mu), TrajectoryConfig())
    amplitude = float(np.max(np.abs(series.values)))
    assert amplitude == pytest.approx(math.sqrt(mu), rel=0.02)


def test_integrate_equilibrium_constant_series():
    # Lorenz origin is a fixed point for any parameters
    series = integrate(
        LorenzParams(10.0, 28.0, 8.0 / 3.0),
        TrajectoryConfig(dt=0.01, n_steps=500, transient_steps=0,
                         initial_state=(0.0, 0.0, 0.0)),
    )
    assert np.max(np.abs(series.values)) < 1e-9


def test_integrate_divergence_reports_step():
    with pytest.raises(IntegrationDiverged) as err:
        integrate(
            LorenzParams(10.0, 28.0, 8.0 / 3.0),
            TrajectoryConfig(dt=1.0, n_steps=100, transient_steps=0),
        )
    assert str(err.value) == "state became non-finite (step 1)"
    assert err.value.step == 1


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_steps=100, transient_steps=100)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_steps=100, transient_steps=99)  # recorded length 1


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=0.01, values=np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=0.01, values=np.array([1.0, np.nan]))


def test_add_noise_zero_is_identity():
    series = integrate(HopfParams(mu=0.5), TrajectoryConfig(n_steps=200, transient_steps=0))
    assert add_noise(series, NoiseSpec(sigma_rel=0.0, seed=7)) is series


def test_add_noise_deterministic():
    series = integrate(HopfParams(mu=0.5), TrajectoryConfig(n_steps=500, transient_steps=0))
    a = add_noise(series, NoiseSpec(sigma_rel=0.05, seed=42))
    b = add_noise(series, NoiseSpec(sigma_rel=0.05, seed=42))
    assert np.array_equal(a.values, b.values)
    c = add_noise(series, NoiseSpec(sigma_rel=0.05, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_add_noise_empirical_std():
    series = integrate(HopfParams(mu=1.0), TrajectoryConfig())
    noisy = add_noise(series, NoiseSpec(sigma_rel=0.05, seed=3))
    target = 0.05 * float(np.std(series.values))
    measured = float(np.std(noisy.values - series.values))
    assert abs(measured - target) <= 0.1 * target
