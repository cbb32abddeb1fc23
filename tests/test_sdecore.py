"""Tests for controlled systems, integration schemes, and calculus conversion."""

import io
from dataclasses import fields, replace

import numpy as np
import pytest

from sdecontrol.benchmarks import controlled_gbm_system, gbm_exact_path, gbm_system
from sdecontrol.errors import (
    ConfigurationError,
    DivergenceError,
    UnsupportedSchemeError,
)
from sdecontrol.sdecore import (
    Calculus,
    ControlledSystem,
    _ito_form,
    _reverse_walk,
    _walk,
    convert_calculus,
    dump_trajectory_csv,
    forward_states,
    integrate,
    milstein_terms,
    step_control,
    step_partials,
)
from sdecontrol.policy import init_params
from sdecontrol.portfolio import MarketParams, build_system
from sdecontrol.studies import (
    fit_order,
    reversibility_study,
    strong_convergence_study,
)
from sdecontrol.wiener import TimeGrid, WienerPath, generate_path
from numdiff import central_difference


def scalar_system(f, g, fdx, fdu, gdx, gdu, calculus=Calculus.ITO):
    """Scalar (n_x = n_u = n_xi = 1) system from scalar-valued lambdas.

    The Milstein partials assume g affine in x with a u-free slope g_x, as in
    every caller: m = g_x g / 2, so m_x = g_x^2 / 2 and m_u = g_x g_u / 2.
    """
    g_x = lambda t, x, u: gdx(t, x[..., 0], u[..., 0])[..., None, None, None]  # noqa: E731
    g_u = lambda t, x, u: gdu(t, x[..., 0], u[..., 0])[..., None, None, None]  # noqa: E731
    return ControlledSystem(
        state_dim=1,
        control_dim=1,
        noise_dim=1,
        drift=lambda t, x, u: f(t, x[..., 0], u[..., 0])[..., None],
        diffusion=lambda t, x, u: g(t, x[..., 0], u[..., 0])[..., None, None],
        drift_dx=lambda t, x, u: fdx(t, x[..., 0], u[..., 0])[..., None, None],
        drift_du=lambda t, x, u: fdu(t, x[..., 0], u[..., 0])[..., None, None],
        diffusion_dx=g_x,
        diffusion_du=g_u,
        calculus=calculus,
        milstein_dx=lambda t, x, u: 0.5 * g_x(t, x, u) ** 2,
        milstein_du=lambda t, x, u: 0.5 * g_x(t, x, u) * g_u(t, x, u),
    )


def zero_system(calculus=Calculus.ITO):
    z = lambda t, x, u: np.zeros_like(x)  # noqa: E731
    return scalar_system(z, z, z, z, z, z, calculus)


def zero_path(n_steps, t_end=1.0, dims=1):
    grid = TimeGrid(0.0, t_end, n_steps)
    return WienerPath(grid=grid, increments=np.zeros((n_steps, dims)), seed=0)


def euler_step(system, x, dt, dB):
    """One uncontrolled Euler-Maruyama step of ``step_control`` at t = 0."""
    u = np.zeros(x.shape[:-1] + (system.control_dim,))
    return step_control(system, 0.0, x, u, dt, dB, euler=True)


def milstein_step(system, x, dt, dB):
    """One uncontrolled Ito-Milstein step of ``step_control`` at t = 0."""
    u = np.zeros(x.shape[:-1] + (system.control_dim,))
    return step_control(system, 0.0, x, u, dt, dB)


def euler_states(system, x0, path):
    """States of an uncontrolled Euler-Maruyama integration along ``path``."""
    return forward_states(system, None, x0, path.increments, path.grid, euler=True)[0]


class TestEulerMaruyamaStep:
    def test_zero_system_identity(self):
        x = np.array([1.5])
        out = euler_step(zero_system(), x, 0.1, np.array([0.3]))
        assert np.array_equal(out, x)

    def test_pure_drift(self):
        one = lambda t, x, u: np.ones_like(x)  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        system = scalar_system(one, zero, zero, zero, zero, zero)
        out = euler_step(system, np.array([2.0]), 0.1, np.array([0.5]))
        assert np.allclose(out, [2.1])

    def test_gbm_hand_step(self):
        # x' = 1 + 0.23*1*0.01 + 0.18*1*0.05 = 1.0113
        system = gbm_system(mu=0.23, sigma=0.18)
        out = euler_step(system, np.array([1.0]), 0.01, np.array([0.05]))
        assert np.allclose(out, [1.0113], atol=1e-15)

    def test_rejects_stratonovich_system(self):
        system = zero_system(Calculus.STRATONOVICH)
        with pytest.raises(ConfigurationError):
            euler_states(system, np.array([1.0]), zero_path(1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        big = lambda t, x, u: np.full_like(x, 1e308)  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        system = scalar_system(big, zero, zero, zero, zero, zero)
        with pytest.raises(DivergenceError):
            euler_states(system, np.array([1e308]), zero_path(1))


class TestMilsteinStep:
    def test_state_independent_diffusion_equals_euler(self):
        one = lambda t, x, u: np.ones_like(x)  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        system = scalar_system(one, one, zero, zero, zero, zero)
        x = np.array([1.0])
        em = euler_step(system, x, 0.1, np.array([0.2]))
        mi = milstein_step(system, x, 0.1, np.array([0.2]))
        assert np.allclose(em, mi, atol=1e-15)

    def test_squared_increment_equals_dt_cancels_correction(self):
        system = gbm_system()
        dt = 0.04
        dB = np.array([np.sqrt(dt)])
        x = np.array([1.0])
        em = euler_step(system, x, dt, dB)
        mi = milstein_step(system, x, dt, dB)
        assert np.allclose(em, mi, atol=1e-15)

    def test_correction_value_on_gbm(self):
        # m = sigma^2 x / 2 shifts the step by m (dB^2 - dt)
        system = gbm_system(mu=0.0, sigma=0.2)
        dt, dB = 0.01, np.array([0.3])
        x = np.array([2.0])
        em = euler_step(system, x, dt, dB)
        mi = milstein_step(system, x, dt, dB)
        expected = 0.5 * 0.2**2 * 2.0 * (0.3**2 - dt)
        assert np.allclose(mi - em, expected, atol=1e-15)

    def test_multichannel_noncommutative_rejected(self):
        system = ControlledSystem(
            state_dim=1,
            control_dim=0,
            noise_dim=2,
            drift=lambda t, x, u: np.zeros_like(x),
            diffusion=lambda t, x, u: np.stack([x, x**2], axis=-1),
            drift_dx=lambda t, x, u: np.zeros(x.shape[:-1] + (1, 1)),
            drift_du=lambda t, x, u: np.zeros(x.shape[:-1] + (1, 0)),
            diffusion_dx=lambda t, x, u: np.zeros(x.shape[:-1] + (2, 1, 1)),
            diffusion_du=lambda t, x, u: np.zeros(x.shape[:-1] + (2, 1, 0)),
            calculus=Calculus.ITO,
            milstein_dx=lambda t, x, u: np.zeros(x.shape[:-1] + (2, 1, 1)),
            milstein_du=lambda t, x, u: np.zeros(x.shape[:-1] + (2, 1, 0)),
        )
        with pytest.raises(UnsupportedSchemeError):
            integrate(system, None, np.array([1.0]), zero_path(1, dims=2))

    def test_milstein_terms_gbm(self):
        system = gbm_system(mu=0.0, sigma=0.3)
        m = milstein_terms(system, 0.0, np.array([2.0]), np.zeros(0))
        assert np.allclose(m, 0.5 * 0.3**2 * 2.0)


def test_milstein_step_calls_diffusion_once():
    # The Milstein term is formed from the diffusion value the Euler part
    # already holds; the result equals the Euler step plus the term that
    # milstein_terms computes on its own.
    base = build_system(MarketParams())
    calls = []

    def diffusion(t, x, u):
        calls.append(1)
        return base.diffusion(t, x, u)

    system = replace(base, diffusion=diffusion)
    x, u = np.array([1.2, -0.1]), np.array([0.3, 0.4])
    dt, dB = 0.01, np.array([0.07])
    out = step_control(system, 0.2, x, u, dt, dB)
    assert len(calls) == 1
    euler = step_control(base, 0.2, x, u, dt, dB, euler=True)
    m = milstein_terms(base, 0.2, x, u)
    assert np.array_equal(out, euler + np.einsum("...ia,...i->...a", m, dB**2 - dt))


def einsum_step(system, t, x, u, dt, dB, euler=False):
    """The step with every sum over noise channels an ``einsum``, as
    ``step_control`` takes it with more than one channel."""
    g = system.diffusion(t, x, u)
    out = x + system.drift(t, x, u) * dt + np.einsum("...xi,...i->...x", g, dB)
    if euler:
        return out
    m = 0.5 * np.einsum("...iab,...bi->...ia", system.diffusion_dx(t, x, u), g)
    return out + np.einsum("...ia,...i->...a", m, dB**2 - dt)


def random_system(n_x, seed):
    """A nonlinear one-channel Ito system of n_x states and two controls with
    random coefficients: f = tanh(A x + B u), g = sin(C x) + d.  Only the
    callbacks of the step are real; the other partials are zeros."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    a, b = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_x, 2))
    c, d = rng.standard_normal((n_x, n_x)), rng.standard_normal(n_x)
    zeros = lambda t, x, u: np.zeros(x.shape[:-1] + (1, n_x, n_x))  # noqa: E731
    return ControlledSystem(
        state_dim=n_x,
        control_dim=2,
        noise_dim=1,
        drift=lambda t, x, u: np.tanh(x @ a.T + u @ b.T),
        diffusion=lambda t, x, u: (np.sin(x @ c.T) + d)[..., None],
        drift_dx=zeros,
        drift_du=zeros,
        diffusion_dx=lambda t, x, u: (np.cos(x @ c.T)[..., None] * c)[..., None, :, :],
        diffusion_du=zeros,
        calculus=Calculus.ITO,
        milstein_dx=zeros,
        milstein_du=zeros,
    )


@pytest.mark.parametrize("n_x", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (50,), (4548,)], ids=["one row", "50 rows", "4548 rows"])
@pytest.mark.parametrize("scheme", ["milstein", "euler", "-dt"])
def test_one_channel_step_has_the_bits_of_the_einsum_step(n_x, batch, scheme):
    # With one channel step_control forms each sum over channels as a plain
    # product, which must give the bits of the one-term einsum.
    system = random_system(n_x, seed=10 * n_x + len(batch))
    rng = np.random.Generator(np.random.Philox(key=n_x))
    x = rng.standard_normal(batch + (n_x,))
    u = rng.standard_normal(batch + (2,))
    dt = -0.01 if scheme == "-dt" else 0.01
    dB = 0.1 * rng.standard_normal(batch + (1,))
    euler = scheme == "euler"
    got = step_control(system, 0.3, x, u, dt, dB, euler)
    assert np.array_equal(got, einsum_step(system, 0.3, x, u, dt, dB, euler))


@pytest.mark.parametrize("euler", [False, True], ids=["milstein", "euler"])
def test_two_channel_step_is_the_einsum_step(euler):
    # Diagonal noise g = diag(s * x + c) is commutative: the sums over its
    # two channels stay einsums.
    s, c = np.array([0.3, -0.7]), np.array([0.2, 0.5])
    system = ControlledSystem(
        state_dim=2,
        control_dim=1,
        noise_dim=2,
        drift=lambda t, x, u: np.sin(x) * u,
        diffusion=lambda t, x, u: (s * x + c)[..., None] * np.eye(2),
        drift_dx=None,
        drift_du=None,
        diffusion_dx=lambda t, x, u: np.broadcast_to(
            np.eye(2)[:, :, None] * np.eye(2) * s[:, None, None], x.shape[:-1] + (2, 2, 2)
        ),
        diffusion_du=None,
        calculus=Calculus.ITO,
        milstein_dx=None,
        milstein_du=None,
        commutative_noise=True,
    )
    rng = np.random.Generator(np.random.Philox(key=3))
    x, u = rng.standard_normal((50, 2)), rng.standard_normal((50, 1))
    dB = 0.1 * rng.standard_normal((50, 2))
    got = step_control(system, 0.0, x, u, 0.01, dB, euler)
    assert np.array_equal(got, einsum_step(system, 0.0, x, u, 0.01, dB, euler))
    # The Milstein term of channel i moves state i only.
    if not euler:
        plain = x + np.sin(x) * u * 0.01 + (s * x + c) * dB
        assert np.allclose(got, plain + 0.5 * s * (s * x + c) * (dB**2 - 0.01), rtol=1e-14)


def per_step_divergence(system, x0, increments, grid):
    """Step index and message of the first non-finite Euler-Maruyama step,
    checked after every step as a loop that stops at once would report them."""
    x = np.array(x0, dtype=float)
    u = np.zeros(x.shape[:-1] + (system.control_dim,))
    with np.errstate(all="ignore"):
        for k in range(grid.n_steps):
            x = step_control(system, grid.time(k), x, u, grid.dt, increments[k], euler=True)
            if not np.all(np.isfinite(x)):
                return k, f"non-finite state encountered at step {k}"
    return None, None


class TestForwardStatesDivergence:
    # dx = 1e10 x dt: a lane at 1e250 overflows after 7 steps of 1/8, lanes
    # at 1 and 2 stay finite over the 16-step grid.
    system = scalar_system(
        lambda t, x, u: 1e10 * x,
        lambda t, x, u: 0.0 * x,
        lambda t, x, u: np.full_like(x, 1e10),
        lambda t, x, u: 0.0 * x,
        lambda t, x, u: 0.0 * x,
        lambda t, x, u: 0.0 * x,
    )
    grid = TimeGrid(0.0, 2.0, 16)

    @pytest.mark.parametrize(
        "x0, step",
        [([[1.0], [1e250], [2.0]], 6), ([[1.0], [np.nan], [2.0]], 0), ([np.inf], 0)],
        ids=["lane-1-mid-path", "nan-x0", "inf-x0"],
    )
    def test_post_loop_scan_reports_first_step(self, x0, step):
        x0 = np.array(x0)
        increments = 0.1 * np.ones((16,) + x0.shape[:-1] + (1,))
        want = per_step_divergence(self.system, x0, increments, self.grid)
        assert want[0] == step
        with pytest.raises(DivergenceError) as err:
            forward_states(self.system, None, x0, increments, self.grid, euler=True)
        assert (err.value.step_index, str(err.value)) == want
        states, _ = forward_states(
            self.system, None, x0, increments, self.grid, check="none", euler=True
        )
        assert not np.isfinite(states[step + 1]).all() and np.isfinite(states[1 : step + 1]).all()


class TestIntegrate:
    def test_constant_trajectory(self):
        traj = integrate(zero_system(), None, np.array([3.0]), zero_path(16))
        assert np.all(traj.states == 3.0)

    def test_initial_row_is_x0(self):
        system = gbm_system()
        path = generate_path(1, TimeGrid(0.0, 1.0, 32), 1)
        traj = integrate(system, None, np.array([1.5]), path)
        assert traj.states[0, 0] == 1.5

    def test_linear_ode_decay(self):
        minus_x = lambda t, x, u: -x  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        minus_one = lambda t, x, u: -np.ones_like(x)  # noqa: E731
        system = scalar_system(minus_x, zero, minus_one, zero, zero, zero)
        states = euler_states(system, np.array([1.0]), zero_path(4096))
        assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-3

    def test_gbm_matches_closed_form(self):
        system = gbm_system()
        path = generate_path(3, TimeGrid(0.0, 1.0, 2048), 1)
        traj = integrate(system, None, np.array([1.0]), path)
        b = np.concatenate([[0.0], np.cumsum(path.increments[:, 0])])
        exact = gbm_exact_path(1.0, 0.23, 0.18, path.grid.times(), b)
        assert abs(traj.states[-1, 0] - exact[-1]) < 5e-3

    # Euler-Maruyama is an Ito scheme: the one step that can contradict the
    # system's calculus.  The walk checks it before its first point.
    def test_scheme_calculus_mismatch(self):
        path = zero_path(4)
        strat = convert_calculus(gbm_system())
        walk = _walk(strat, None, np.array([1.0]), path.increments, path.grid, euler=True)
        with pytest.raises(ConfigurationError, match="Ito systems only"):
            next(walk)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            integrate(gbm_system(), None, np.array([1.0, 2.0]), zero_path(4))

    def test_forward_states_checks_scheme_against_calculus(self):
        path = zero_path(4)
        strat = convert_calculus(gbm_system())
        with pytest.raises(ConfigurationError, match="Ito systems only"):
            forward_states(strat, None, np.array([1.0]), path.increments, path.grid, euler=True)

    @pytest.mark.parametrize(
        "x0_shape, increments_shape, match",
        [
            ((1,), (3, 1), "path has 3 increments, grid has 4 steps"),
            ((1,), (6, 1), "path has 6 increments, grid has 4 steps"),
            ((3, 1), (4, 2, 1), r"batch \(3,\) does not broadcast against path batch \(2,\)"),
        ],
        ids=["too-few-rows", "too-many-rows", "batch-mismatch"],
    )
    def test_increments_checked_against_grid_and_batch(self, x0_shape, increments_shape, match):
        # Too few rows died in a raw IndexError, too many were cut to the
        # grid, and unbroadcastable batches died in a raw numpy ValueError.
        x0, increments = np.ones(x0_shape), np.zeros(increments_shape)
        with pytest.raises(ConfigurationError, match=match):
            forward_states(gbm_system(), None, x0, increments, TimeGrid(0.0, 1.0, 4))

    def test_divergence_carries_step_index(self):
        double = lambda t, x, u: x * 1e200  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        system = scalar_system(double, zero, zero, zero, zero, zero)
        with pytest.raises(DivergenceError) as err:
            euler_states(system, np.array([1e200]), zero_path(8))
        assert err.value.step_index is not None


class TestConvertCalculus:
    def test_constant_diffusion_drift_unchanged(self):
        one = lambda t, x, u: np.ones_like(x)  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        system = scalar_system(one, one, zero, zero, zero, zero)
        conv = convert_calculus(system)
        x, u = np.array([1.7]), np.array([0.0])
        assert conv.calculus is Calculus.STRATONOVICH
        assert np.allclose(conv.drift(0.0, x, u), system.drift(0.0, x, u), atol=1e-12)

    def test_gbm_correction_magnitude(self):
        system = gbm_system(mu=0.1, sigma=0.3)
        conv = convert_calculus(system)
        x, u = np.array([2.0]), np.zeros(0)
        # Stratonovich drift = mu x - sigma^2 x / 2
        expected = 0.1 * 2.0 - 0.5 * 0.3**2 * 2.0
        assert np.allclose(conv.drift(0.0, x, u), expected, atol=1e-12)

    def test_round_trip_drift(self):
        system = controlled_gbm_system()
        back = convert_calculus(convert_calculus(system))
        rng = np.random.Generator(np.random.Philox(key=0))
        for _ in range(10):
            x = rng.standard_normal(1)
            u = rng.standard_normal(1)
            assert np.allclose(back.drift(0.3, x, u), system.drift(0.3, x, u), atol=1e-12)
            assert np.allclose(back.drift_dx(0.3, x, u), system.drift_dx(0.3, x, u), atol=1e-12)

    def test_zero_noise_calculi_identical(self):
        minus_x = lambda t, x, u: -x  # noqa: E731
        zero = lambda t, x, u: np.zeros_like(x)  # noqa: E731
        minus_one = lambda t, x, u: -np.ones_like(x)  # noqa: E731
        ito = scalar_system(minus_x, zero, minus_one, zero, zero, zero)
        strat = convert_calculus(ito)
        path = zero_path(64)
        a = integrate(ito, None, np.array([1.0]), path)
        b = integrate(strat, None, np.array([1.0]), path)
        assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize(
    "build, policy",
    [(gbm_system, None), (controlled_gbm_system, init_params([2, 8, 1], seed=3, with_time=True))],
    ids=["gbm", "controlled_gbm"],
)
def test_stratonovich_system_steps_in_its_ito_form(build, policy):
    # Forward and backward, a Stratonovich system takes the Ito-Milstein
    # steps of its Ito form, which for a system converted from an Ito one
    # is that system: the bits of integrating it.
    system = build()
    strat = convert_calculus(system)
    path = generate_path(7, TimeGrid(0.0, 1.0, 64), 1)
    x0 = np.array([1.0])
    results = []
    for s in (strat, system):
        states, controls = forward_states(s, policy, x0, path.increments, path.grid)
        results.append((states, controls, *reversed_walk(s, policy, states[-1], path)))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "build", [controlled_gbm_system, lambda: build_system(MarketParams())], ids=["gbm", "portfolio"]
)
def test_converting_back_returns_the_source_system(build):
    # The Ito form of a system converted from an Ito one is that system: one
    # diffusion and one diffusion_dx call per step, and its bits.
    calls = {"diffusion": 0, "diffusion_dx": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    system = build()
    system = replace(system, **{name: counted(name, getattr(system, name)) for name in calls})
    strat = convert_calculus(system)
    assert _ito_form(strat) is system and convert_calculus(strat) is system
    path = generate_path(7, TimeGrid(0.0, 1.0, 64), 1)
    x0 = np.ones((8, system.state_dim))
    increments = np.repeat(path.increments[:, None], 8, axis=1)
    want, _ = forward_states(system, None, x0, increments, path.grid)
    calls.update(diffusion=0, diffusion_dx=0)
    got, _ = forward_states(strat, None, x0, increments, path.grid)
    assert calls == {"diffusion": 64, "diffusion_dx": 64}
    assert np.array_equal(got, want)
    # A converted system changed in place after its conversion converts afresh.
    strat.drift_dx = system.drift_dx
    assert convert_calculus(strat) is not system


def reversed_walk(system, policy, xT, path):
    """The inverse flow from xT as the reversibility study integrates it:
    (states, controls) of ``forward_states`` over ``_reverse_walk``, in
    reverse time order."""
    walk, increments = _reverse_walk(path.grid, path.increments)
    return forward_states(system, policy, xT, increments, walk)


class TestInverseFlow:
    """``forward_states`` over the reversed walk, one lane at a time."""

    def test_zero_system_constant(self):
        path = zero_path(16)
        states, _ = reversed_walk(zero_system(), None, np.array([2.0]), path)
        assert np.all(states == 2.0)

    def test_gbm_round_trip_small_error(self):
        system = gbm_system()
        path = generate_path(5, TimeGrid(0.0, 1.0, 1024), 1)
        fwd = integrate(system, None, np.array([1.0]), path)
        states, _ = reversed_walk(system, None, fwd.states[-1], path)
        assert abs(states[-1, 0] - 1.0) < 1e-2

    def test_states_in_reverse_time_order(self):
        system = gbm_system()
        path = generate_path(5, TimeGrid(0.0, 1.0, 64), 1)
        fwd = integrate(system, None, np.array([1.0]), path)
        states, _ = reversed_walk(system, None, fwd.states[-1], path)
        assert states.shape == fwd.states.shape
        assert np.array_equal(states[0], fwd.states[-1])

    def test_path_noise_dims_checked(self):
        # gbm_system has one noise channel; a size-1 channel axis would
        # broadcast against two increments without the check.
        path = generate_path(5, TimeGrid(0.0, 1.0, 8), 2)
        with pytest.raises(ConfigurationError, match="noise dims"):
            integrate(gbm_system(), None, np.array([1.0]), path)
        with pytest.raises(ConfigurationError, match="noise dims"):
            reversed_walk(gbm_system(), None, np.array([1.0]), path)

    def test_time_input_policy_matches_reverse_step_loop(self):
        system = controlled_gbm_system()
        policy = init_params([2, 8, 1], seed=3, with_time=True)
        path = generate_path(7, TimeGrid(0.0, 1.0, 64), 1)
        fwd = integrate(system, policy, np.array([1.0]), path)
        states, controls = reversed_walk(system, policy, fwd.states[-1], path)
        want_states, want_controls, step = reverse_step_loop(system, policy, fwd.states[-1], path)
        assert step is None
        assert np.array_equal(states[::-1], want_states)
        assert np.array_equal(controls[::-1], want_controls)

    def test_overflow_reports_step_of_reverse_step_loop(self):
        # dx = -x^2 dt run backwards from x = 1 blows up before t = 0.
        system = scalar_system(
            lambda t, x, u: -(x**2),
            lambda t, x, u: 0.1 * x,
            lambda t, x, u: -2.0 * x,
            lambda t, x, u: 0.0 * x,
            lambda t, x, u: 0.0 * x + 0.1,
            lambda t, x, u: 0.0 * x,
            Calculus.STRATONOVICH,
        )
        path = generate_path(2, TimeGrid(0.0, 5.0, 50), 1)
        *_, step = reverse_step_loop(system, None, np.array([1.0]), path)
        assert 0 < step < 49
        with pytest.raises(DivergenceError) as err:
            reversed_walk(system, None, np.array([1.0]), path)
        # The reversed walk numbers its steps from t_end: forward step k is
        # walk step n - 1 - k.
        assert err.value.step_index == 50 - 1 - step
        assert str(err.value) == f"non-finite state encountered at step {50 - 1 - step}"


def reverse_step_loop(system, policy, xT, path):
    """The inverse flow stepped one Ito-Milstein step of the system's Ito form
    at a time from t_end, checked after every step: (states, controls in
    forward time order, the first non-finite forward step or None)."""
    grid, n = path.grid, path.grid.n_steps
    system = _ito_form(system)
    states = np.zeros((n + 1, system.state_dim))
    controls = np.zeros((n + 1, system.control_dim))

    def control(t, x):
        return np.zeros(system.control_dim) if policy is None else policy.control(t, x)

    x = np.array(xT, dtype=float)
    u = control(grid.time(n), x)
    states[n], controls[n] = x, u
    with np.errstate(all="ignore"):
        for k in range(n, 0, -1):
            dB = -path.increments[k - 1]
            x = step_control(system, grid.time(k), x, u, -grid.dt, dB)
            if not np.all(np.isfinite(x)):
                return states, controls, k - 1
            u = control(grid.time(k - 1), x)
            states[k - 1], controls[k - 1] = x, u
    return states, controls, None


def assert_partials_match_fd(pairs):
    """Each (analytic, central difference) pair agrees within
    1e-5 * max(1, |analytic|), elementwise; a NaN fails the comparison."""
    for analytic, approx in pairs:
        assert np.all(np.abs(analytic - approx) <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


def system_partial_pairs(system, t, x, u):
    """(analytic partial, central difference) of the drift, the diffusion and
    the Milstein terms at the points (t, x, u), batched over their leading
    axis."""
    fd = central_difference
    # The noise channel first, as in diffusion_dx / diffusion_du.
    g_t = lambda t, x, u: np.swapaxes(system.diffusion(t, x, u), -1, -2)  # noqa: E731
    yield system.drift_dx(t, x, u), fd(lambda z: system.drift(t, z, u), x)
    yield system.drift_du(t, x, u), fd(lambda z: system.drift(t, x, z), u)
    yield system.diffusion_dx(t, x, u), fd(lambda z: g_t(t, z, u), x)
    yield system.diffusion_du(t, x, u), fd(lambda z: g_t(t, x, z), u)
    yield system.milstein_dx(t, x, u), fd(lambda z: milstein_terms(system, t, z, u), x)
    yield system.milstein_du(t, x, u), fd(lambda z: milstein_terms(system, t, x, z), u)


class TestSelfCheckPartials:
    """Every analytic partial against central differences at 50 points: t
    uniform on [0, 1], x and u standard normal."""

    @staticmethod
    def points(system):
        rng = np.random.Generator(np.random.Philox(key=0))
        t = rng.uniform(0.0, 1.0, 50)
        x = rng.standard_normal((50, system.state_dim))
        u = rng.standard_normal((50, system.control_dim))
        return t, x, u

    def test_gbm_passes(self):
        system = gbm_system()
        assert_partials_match_fd(system_partial_pairs(system, *self.points(system)))

    def test_controlled_gbm_passes(self):
        system = controlled_gbm_system()
        assert_partials_match_fd(system_partial_pairs(system, *self.points(system)))

    # The converted drift partials add each Milstein partial once.
    @pytest.mark.parametrize(
        "build",
        [gbm_system, controlled_gbm_system, lambda: build_system(MarketParams())],
        ids=["gbm", "controlled_gbm", "portfolio"],
    )
    def test_converted_system_passes(self, build):
        system = convert_calculus(build())
        assert_partials_match_fd(system_partial_pairs(system, *self.points(system)))

    def test_scalar_system_milstein_partials_pass(self):
        # g = 0.4 x + 0.3 u + 0.1: both Milstein partials are nonzero.
        const = lambda value: lambda t, x, u: np.full_like(x, value)  # noqa: E731
        system = scalar_system(
            lambda t, x, u: -x,
            lambda t, x, u: 0.4 * x + 0.3 * u + 0.1,
            const(-1.0),
            const(0.0),
            const(0.4),
            const(0.3),
        )
        assert_partials_match_fd(system_partial_pairs(system, *self.points(system)))

    @pytest.mark.parametrize("name", ["bilinear_system", "frozen_system", "noncommutative_system"])
    def test_sensitivity_test_systems_pass(self, name):
        import test_sensitivity  # imports this module, so not at the top

        system = getattr(test_sensitivity, name)()
        assert_partials_match_fd(system_partial_pairs(system, *self.points(system)))


@pytest.mark.parametrize(
    "build",
    [gbm_system, controlled_gbm_system, lambda: build_system(MarketParams())],
    ids=["gbm", "controlled_gbm", "portfolio"],
)
@pytest.mark.parametrize("batch", [(), (3,)], ids=["one row", "three rows"])
def test_writing_into_a_constant_partial_leaves_the_next_call_unchanged(build, batch):
    system = build()
    x = np.ones(batch + (system.state_dim,))
    u = np.ones(batch + (system.control_dim,))
    for name in ("drift_dx", "drift_du", "diffusion_dx", "diffusion_du", "milstein_dx", "milstein_du"):
        partial = getattr(system, name)
        want = partial(0.5, x, u).copy()
        partial(0.5, x, u)[...] = 7.0
        assert np.array_equal(partial(0.5, x, u), want), name


def test_system_without_milstein_partials_fails_at_construction():
    system = gbm_system()
    kwargs = {f.name: getattr(system, f.name) for f in fields(ControlledSystem)}
    del kwargs["milstein_dx"], kwargs["milstein_du"]
    with pytest.raises(TypeError, match="milstein_dx"):
        ControlledSystem(**kwargs)


def test_central_difference_batch_axes_and_zero_width():
    z = np.array([[1.0, 2.0], [-3.0, 0.5]])
    fun = lambda v: np.stack([v[..., 0] * v[..., 1], v[..., 0] ** 2], axis=-1)  # noqa: E731
    want = [[[2.0, 1.0], [2.0, 0.0]], [[0.5, -3.0], [-6.0, 0.0]]]
    assert np.allclose(central_difference(fun, z), want, atol=1e-8)
    empty = central_difference(lambda v: np.ones(v.shape[:-1] + (3,)), np.zeros((4, 0)))
    assert empty.shape == (4, 3, 0)


# step_partials differentiates the Ito-Milstein step, the one the estimators
# integrate.
@pytest.mark.parametrize(
    "build", [controlled_gbm_system, lambda: build_system(MarketParams())], ids=["gbm", "portfolio"]
)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_step_partials_differentiate_step_control(build, batch):
    system = build()
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.uniform(0.5, 1.5, batch + (system.state_dim,))
    u = rng.standard_normal(batch + (system.control_dim,))
    dB = 0.3 * rng.standard_normal(batch + (system.noise_dim,))
    t, dt = 0.2, 0.01
    jx, ju = step_partials(system, t, x, u, dt, dB)

    def step(z, v):
        return step_control(system, t, z, v, dt, dB)

    assert jx.shape == batch + (system.state_dim, system.state_dim)
    assert ju.shape == batch + (system.state_dim, system.control_dim)
    assert np.allclose(jx, central_difference(lambda z: step(z, u), x), rtol=0, atol=1e-6)
    assert np.allclose(ju, central_difference(lambda v: step(x, v), u), rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "study, kwargs",
    [
        (strong_convergence_study, {"n_paths": 0}),
        (reversibility_study, {"n_paths": 0}),
        (strong_convergence_study, {"min_exp": 9, "max_exp": 8}),
        (strong_convergence_study, {"min_exp": 8, "max_exp": 8}),
        (reversibility_study, {"n_halvings": -1}),
        (reversibility_study, {"n_halvings": 0}),
    ],
    ids=[
        "strong_convergence_study",
        "reversibility_study",
        "strong_convergence_study-no_level",
        "strong_convergence_study-one_level",
        "reversibility_study-no_level",
        "reversibility_study-one_level",
    ],
)
def test_studies_reject_empty_path_count(study, kwargs):
    # Fewer than one path or two levels leaves no median or no trend.
    with pytest.raises(ConfigurationError):
        study(**kwargs)


def test_batched_studies_equal_path_by_path_integration():
    # One integration per path and level, as the studies ran before they
    # were batched over paths: the same bits at every level.
    n_paths, min_exp, max_exp = 5, 2, 5
    system = gbm_system()
    fine = [generate_path(p, TimeGrid(0.0, 1.0, 2**max_exp), 1) for p in range(n_paths)]

    def coarsen(path, factor):
        grid = TimeGrid(0.0, 1.0, path.grid.n_steps // factor)
        increments = path.increments.reshape(grid.n_steps, factor, 1).sum(axis=1)
        return WienerPath(grid=grid, increments=increments, seed=path.seed)

    x0 = np.array([1.0])
    errors = {"euler_maruyama": [], "milstein_ito": []}
    round_trips = []
    for exp in range(min_exp, max_exp + 1):
        paths = [coarsen(f, 2 ** (max_exp - exp)) for f in fine]
        for scheme in errors:
            errs = []
            for f, path in zip(fine, paths):
                states, _ = forward_states(
                    system, None, x0, path.increments, path.grid, euler=scheme == "euler_maruyama"
                )
                end = states[-1, 0]
                exact = gbm_exact_path(1.0, 0.23, 0.18, [0.0, 1.0], [0.0, float(f.increments.sum())])
                errs.append(abs(float(end) - exact[-1]))
            errors[scheme].append(np.median(errs))
        starts = [
            reversed_walk(system, None, integrate(system, None, x0, path).states[-1], path)[0][-1]
            for path in paths
        ]
        round_trips.append(np.median([float(np.linalg.norm(s - x0)) for s in starts]))
    study = strong_convergence_study(min_exp=min_exp, max_exp=max_exp, n_paths=n_paths)
    for scheme, med in errors.items():
        assert np.array_equal(study[scheme]["median_error"], med)
    _, got = reversibility_study(min_exp=min_exp, n_halvings=max_exp - min_exp, n_paths=n_paths)
    assert np.array_equal(got, round_trips)


def test_inverse_flow_round_trip_converges_at_order_one():
    # Run backward over the reversed increments, the Ito-Milstein step is the
    # Stratonovich-Milstein step of the backward flow: strong order 1, held to
    # the band that acceptance 2 uses for Milstein.
    n_steps, errors = reversibility_study(min_exp=4, n_halvings=4, n_paths=100)
    assert abs(fit_order(n_steps, errors) - 1.0) <= 0.15, errors


def test_dump_trajectory_csv():
    traj = integrate(zero_system(), None, np.array([1.0]), zero_path(2))
    buf = io.StringIO()
    dump_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x_1,u_1"
    assert len(lines) == 4
