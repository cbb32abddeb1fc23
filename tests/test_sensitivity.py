"""Tests for cost evaluation and the three gradient estimators."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from sdecontrol import sensitivity
from sdecontrol.benchmarks import (
    build_grad_check_problem,
    controlled_gbm_cost,
    controlled_gbm_system,
)
from sdecontrol.errors import (
    CapacityError,
    ConfigurationError,
    DivergenceError,
    UnsupportedSchemeError,
)
from sdecontrol.policy import MlpPolicy, init_params
from sdecontrol.portfolio import MarketParams
from sdecontrol.sdecore import (
    Calculus,
    ControlledSystem,
    _ito_form,
    convert_calculus,
    forward_states,
    integrate,
    step_partials,
)
from sdecontrol.sensitivity import (
    CostFunctional,
    _eval_cost_perturbed,
    adjoint_core,
    adjoint_gradient,
    eval_cost,
    finite_difference_gradient,
    forward_sensitivity,
    gradient_agreement,
    worst_coordinate,
    write_gradient_check_csv,
)
from sdecontrol.wiener import TimeGrid, WienerPath, generate_path
from numdiff import central_difference
from test_sdecore import assert_partials_match_fd


def scalar_policy(weight=0.0, bias=0.0):
    """1 -> 1 affine policy with identity output: u = w x + b."""
    return MlpPolicy(
        [np.array([[float(weight)]])],
        [np.array([float(bias)])],
        output_activation="identity",
    )


def bilinear_system():
    """dx = u x dt (no noise); with u = b constant, x_T = e^{bT}."""
    zero3 = lambda t, x, u: np.zeros(x.shape[:-1] + (1, 1, 1))  # noqa: E731
    return ControlledSystem(
        state_dim=1,
        control_dim=1,
        noise_dim=1,
        drift=lambda t, x, u: u * x,
        diffusion=lambda t, x, u: np.zeros(x.shape[:-1] + (1, 1)),
        drift_dx=lambda t, x, u: u[..., None],
        drift_du=lambda t, x, u: x[..., None],
        diffusion_dx=zero3,
        diffusion_du=zero3,
        calculus=Calculus.ITO,
        milstein_dx=zero3,
        milstein_du=zero3,
    )


def frozen_system():
    """dx = 0: the state never moves, so costs depend on u(t, x0) only."""
    zero3 = lambda t, x, u: np.zeros(x.shape[:-1] + (1, 1, 1))  # noqa: E731
    zero2 = lambda t, x, u: np.zeros(x.shape[:-1] + (1, 1))  # noqa: E731
    return ControlledSystem(
        state_dim=1,
        control_dim=1,
        noise_dim=1,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.zeros(x.shape[:-1] + (1, 1)),
        drift_dx=zero2,
        drift_du=zero2,
        diffusion_dx=zero3,
        diffusion_du=zero3,
        calculus=Calculus.ITO,
        milstein_dx=zero3,
        milstein_du=zero3,
    )


def noncommutative_system():
    """Two noise channels, g = (x, x^2) u-free, not declared commutative: the
    Ito-Milstein step the evaluators integrate does not support it.  Its
    Milstein terms are m = (x/2, x^3)."""
    return ControlledSystem(
        state_dim=1,
        control_dim=1,
        noise_dim=2,
        drift=lambda t, x, u: u * x,
        diffusion=lambda t, x, u: np.stack([x, x**2], axis=-1),
        drift_dx=lambda t, x, u: u[..., None],
        drift_du=lambda t, x, u: x[..., None],
        diffusion_dx=lambda t, x, u: np.stack([np.ones_like(x), 2 * x], axis=-2)[..., None],
        diffusion_du=lambda t, x, u: np.zeros(x.shape[:-1] + (2, 1, 1)),
        calculus=Calculus.ITO,
        milstein_dx=lambda t, x, u: np.stack([np.full_like(x, 0.5), 3 * x**2], axis=-2)[..., None],
        milstein_du=lambda t, x, u: np.zeros(x.shape[:-1] + (2, 1, 1)),
    )


def terminal_only_cost(terminal, terminal_dx, terminal_du=None):
    zero1 = lambda t, x, u: np.zeros(x.shape[:-1])  # noqa: E731
    zerov = lambda t, x, u: np.zeros_like(x)  # noqa: E731
    zerou = lambda t, x, u: np.zeros_like(u)  # noqa: E731
    return CostFunctional(
        running=zero1,
        terminal=terminal,
        running_dx=zerov,
        running_du=zerou,
        terminal_dx=terminal_dx,
        terminal_du=terminal_du,
    )


@pytest.mark.parametrize("evaluator", ["eval_cost", "finite_difference_gradient"])
def test_noncommutative_noise_rejected_by_every_evaluator(evaluator):
    # The exact estimators reject this system too; the cost and the FD
    # oracle run the same checked walk.
    cost = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
    path = generate_path(0, TimeGrid(0.0, 1.0, 4), 2)
    args = (noncommutative_system(), scalar_policy(0.1, 0.2), cost, np.array([1.0]), path)
    with pytest.raises(UnsupportedSchemeError):
        getattr(sensitivity, evaluator)(*args)
    with pytest.raises(UnsupportedSchemeError):
        adjoint_gradient(*args)


@pytest.mark.parametrize(
    "evaluator",
    [integrate, eval_cost, forward_sensitivity, adjoint_gradient, finite_difference_gradient],
    ids=lambda f: f.__name__,
)
def test_scalar_initial_state_rejected_by_every_evaluator(evaluator):
    # x0 = 1.0 has no state axis; every evaluator checks it in the same walk.
    system, cost, _, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
    args = (system, policy) if evaluator is integrate else (system, policy, cost)
    path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
    with pytest.raises(ConfigurationError, match="got a scalar"):
        evaluator(*args, 1.0, path)


@pytest.mark.parametrize(
    "evaluator",
    [eval_cost, forward_sensitivity, adjoint_gradient, finite_difference_gradient],
    ids=lambda f: f.__name__,
)
def test_batch_initial_state_rejected_by_every_single_path_evaluator(evaluator):
    # A batch of initial states broadcasts against one path in the walk, but
    # the single-path evaluators return one cost and one gradient.
    system, cost, _, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
    path = generate_path(0, TimeGrid(0.0, 1.0, 8), 1)
    with pytest.raises(ConfigurationError, match=r"got a batch of shape \(2, 1\)"):
        evaluator(system, policy, cost, np.array([[1.0], [2.0]]), path)


class TestEvalCost:
    def test_terminal_only_returns_endpoint(self):
        system = controlled_gbm_system()
        cost = terminal_only_cost(
            lambda x, u: x[..., 0], lambda x, u: np.ones_like(x)
        )
        policy = init_params([1, 4, 1], seed=0)
        path = generate_path(0, TimeGrid(0.0, 1.0, 64), 1)
        from sdecontrol.sdecore import integrate

        traj = integrate(system, policy, np.array([1.0]), path)
        value = eval_cost(system, policy, cost, np.array([1.0]), path)
        assert value == pytest.approx(float(traj.states[-1, 0]), abs=1e-14)

    def test_constant_running_cost_integrates_to_horizon(self):
        system = frozen_system()
        cost = CostFunctional(
            running=lambda t, x, u: np.ones(x.shape[:-1]),
            terminal=lambda x, u: np.zeros(x.shape[:-1]),
            running_dx=lambda t, x, u: np.zeros_like(x),
            running_du=lambda t, x, u: np.zeros_like(u),
            terminal_dx=lambda x, u: np.zeros_like(x),
        )
        policy = init_params([1, 4, 1], seed=0)
        path = generate_path(1, TimeGrid(0.0, 1.0, 37), 1)
        assert eval_cost(system, policy, cost, np.array([0.5]), path) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_matches_independent_recomputation(self):
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(8,))
        path = generate_path(2, TimeGrid(0.0, 1.0, 50), 1)
        from sdecontrol.sdecore import integrate

        traj = integrate(system, policy, x0, path)
        dt = path.grid.dt
        expected = sum(
            float(cost.running(path.grid.time(k), traj.states[k], traj.controls[k])) * dt
            for k in range(path.grid.n_steps)
        ) + float(cost.terminal(traj.states[-1], traj.controls[-1]))
        assert eval_cost(system, policy, cost, x0, path) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_cost_raises(self):
        system = frozen_system()
        cost = terminal_only_cost(
            lambda x, u: np.log(x[..., 0] - 10.0), lambda x, u: np.zeros_like(x)
        )
        policy = init_params([1, 4, 1], seed=0)
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(DivergenceError):
            eval_cost(system, policy, cost, np.array([1.0]), path)


def per_point_cost(cost, grid, states, controls):
    """The discretized cost by a per-point loop: ``cost.running`` once per
    grid point of nonzero weight, at a float t, added in step order."""
    weights = sensitivity._quadrature_weights(cost, grid)
    total = 0.0
    for k, (x, u) in enumerate(zip(states, controls)):
        if weights[k]:
            total = total + cost.running(grid.time(k), x, u) * weights[k]
    return total + cost.terminal(states[-1], controls[-1])


def nan_off_the_weights(cost, grid):
    """The cost with a running value that is NaN at every grid point of zero
    quadrature weight (t = T for the integral)."""
    unweighted = grid.times()[sensitivity._quadrature_weights(cost, grid) == 0]

    def running(t, x, u):
        return np.where(np.isin(t, unweighted), np.nan, cost.running(t, x, u))

    return dataclasses.replace(cost, running=running)


QUADRATURE_CASES = [
    pytest.param(nu, lanes, points, nan, id=f"nu={nu}-{lanes}-lane{'s' * (lanes > 1)}-{name}")
    for nu, lanes, points, nan, name in [
        (0.0, 1, None, False, "integral"),
        (0.25, 1, None, False, "integral"),
        (0.0, 50, None, False, "integral"),
        (0.25, 50, None, False, "integral"),
        (0.25, 1, (9, 9, 37), False, "repeat and T"),
        (0.25, 50, (9, 9, 37), False, "repeat and T"),
        (0.25, 1, None, True, "NaN at zero weight"),
        (0.25, 50, (9, 9, 37), True, "NaN at zero weight"),
    ]
]


class TestBlockQuadrature:
    """``_quadrature`` calls ``cost.running`` once per block of stored points
    and adds the weighted rows in step order: the cost has the bits of a
    per-point loop, whatever the blocks, and through every evaluator."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("nu, lanes, points, nan", QUADRATURE_CASES)
    def test_blocks_give_the_per_point_bits(self, monkeypatch, nu, lanes, points, nan):
        # 37 steps: 50 lanes make 20-step blocks and 7 rows ragged ones.  At
        # nu = 0 some of the 50 lanes cross the solvency line, and their
        # cost is NaN.
        market = MarketParams(nu=nu, barrier_weight=50.0, x0=(1.0, -0.85))
        system, cost, x0, policy = build_grad_check_problem(
            "portfolio", hidden_dims=(4,), market=market
        )
        grid = TimeGrid(0.0, 1.0, 37)
        if points:
            cost = dataclasses.replace(cost, pointwise_times=[grid.time(k) for k in points])
        if nan:
            cost = nan_off_the_weights(cost, grid)
        paths = [generate_path(s, grid, 1).increments for s in range(lanes)]
        increments = paths[0] if lanes == 1 else np.stack(paths, axis=1)
        x0 = x0 if lanes == 1 else np.tile(x0, (lanes, 1))
        states, controls = forward_states(system, policy, x0, increments, grid, "none")
        want = per_point_cost(cost, grid, states, controls)
        crossed = np.count_nonzero(~np.isfinite(want))
        assert crossed == 0 if nu or lanes == 1 else 0 < crossed < lanes

        def quadrature(blocks):
            return sensitivity._quadrature(cost, grid, blocks)

        got = [quadrature(sensitivity._stored_blocks(states, controls))]
        got.append(quadrature((x[None], u[None]) for x, u in zip(states, controls)))
        got.append(adjoint_core(system, policy, cost, x0, increments, grid, check="none")[1])
        if lanes == 1:
            got.append(eval_cost(system, policy, cost, x0, WienerPath(grid, 1, increments, 0)))
        with monkeypatch.context() as m:
            m.setattr(sensitivity, "_BLOCK_ROWS", 7)
            got.append(quadrature(sensitivity._stored_blocks(states, controls)))
        for value in got:
            assert np.array_equal(value, want, equal_nan=True)


@pytest.mark.parametrize(
    "name, estimators",
    [
        ("running", (eval_cost, adjoint_gradient, forward_sensitivity)),
        ("running_dx", (adjoint_gradient, forward_sensitivity)),
        ("running_du", (adjoint_gradient, forward_sensitivity)),
    ],
)
def test_cost_callback_that_takes_only_a_float_time_rejected(name, estimators):
    # The evaluators pass the running cost and its partials an array of grid
    # times; a Python switch on t cannot take one.
    system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
    f = getattr(cost, name)
    switched = lambda t, x, u: f(t, x, u) * (1.0 if t < 0.5 else 2.0)  # noqa: E731
    cost = dataclasses.replace(cost, **{name: switched})
    path = generate_path(0, TimeGrid(0.0, 1.0, 8), 1)
    for estimator in estimators:
        with pytest.raises(ConfigurationError, match=f"cost callback {name} must accept an array"):
            estimator(system, policy, cost, x0, path)


def test_divergence_reported_alike_by_every_entry_point():
    # x_{k+1} = (1 + u dt) x_k with u = 1e40 overflows after a few steps
    system = bilinear_system()
    cost = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
    policy = scalar_policy(weight=0.0, bias=1e40)
    x0 = np.array([1.0])
    path = generate_path(0, TimeGrid(0.0, 1.0, 32), 1)
    steps = []
    for run in (
        lambda: integrate(system, policy, x0, path),
        lambda: forward_sensitivity(system, policy, cost, x0, path),
        lambda: adjoint_gradient(system, policy, cost, x0, path),
    ):
        with pytest.raises(DivergenceError) as info:
            run()
        steps.append(info.value.step_index)
    assert steps == [7, 7, 7]


class TestForwardSensitivity:
    def test_ineffective_policy_zero_gradient(self):
        system = frozen_system()
        cost = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
        policy = init_params([1, 8, 1], seed=0)
        path = generate_path(3, TimeGrid(0.0, 1.0, 32), 1)
        report = forward_sensitivity(system, policy, cost, np.array([1.0]), path)
        assert np.all(report.grad == 0.0)

    def test_exponential_growth_sensitivity(self):
        # dx = u x dt with u = b; J = x_T = e^{bT}, dJ/db = T e^{bT} = 1 at b=0
        system = bilinear_system()
        cost = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
        policy = scalar_policy(weight=0.0, bias=0.0)
        path = generate_path(0, TimeGrid(0.0, 1.0, 4096), 1)
        report = forward_sensitivity(system, policy, cost, np.array([1.0]), path)
        # grad layout: (w, b); the b coordinate carries dJ/dtheta for u = theta
        assert report.grad[1] == pytest.approx(1.0, abs=1e-3)

    def test_capacity_error(self):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(16,))
        import sdecontrol.sensitivity as sens

        old = sens._SENS_CAPACITY
        sens._SENS_CAPACITY = 10
        try:
            path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
            with pytest.raises(CapacityError):
                forward_sensitivity(system, cost=cost, policy=policy, x0=x0, path=path)
        finally:
            sens._SENS_CAPACITY = old

    def test_requires_policy(self):
        system, cost, x0, _ = build_grad_check_problem("gbm")
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(ConfigurationError):
            forward_sensitivity(system, None, cost, x0, path)


class TestAdjointGradient:
    def test_constant_cost_zero_gradient(self):
        system, _, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        cost = terminal_only_cost(
            lambda x, u: np.full(x.shape[:-1], 3.0), lambda x, u: np.zeros_like(x)
        )
        path = generate_path(1, TimeGrid(0.0, 1.0, 32), 1)
        report, lambdas = adjoint_gradient(system, policy, cost, x0, path, return_adjoint=True)
        assert np.all(report.grad == 0.0)
        assert np.all(lambdas[-1] == 0.0)

    def test_terminal_costate_is_terminal_gradient_bitwise(self):
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(8,))
        path = generate_path(4, TimeGrid(0.0, 1.0, 64), 1)
        _, lambdas = adjoint_gradient(system, policy, cost, x0, path, return_adjoint=True)
        # terminal reward r V + mu S differentiates to (mu, r) = (0.23, 0.04)
        assert np.array_equal(lambdas[-1], np.array([0.23, 0.04]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "terminal, terminal_dx",
        [
            # the cost is NaN, its partial finite
            (lambda x, u: np.log(x[..., 0] - 10.0), lambda x, u: 1.0 / (x - 10.0)),
            # the cost is finite, its partial NaN
            (lambda x, u: x[..., 0], lambda x, u: np.full_like(x, np.nan)),
        ],
        ids=["nan_cost", "nan_costate"],
    )
    def test_non_finite_cost_or_costate_raises(self, terminal, terminal_dx):
        cost = terminal_only_cost(terminal, terminal_dx)
        policy = init_params([1, 4, 1], seed=0)
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(DivergenceError):
            adjoint_gradient(frozen_system(), policy, cost, np.array([1.0]), path)

    def test_matches_forward_and_fd(self):
        for name in ("gbm", "portfolio"):
            system, cost, x0, policy = build_grad_check_problem(name, hidden_dims=(8,))
            path = generate_path(5, TimeGrid(0.0, 1.0, 256), 1)
            fw = forward_sensitivity(system, policy, cost, x0, path)
            ad = adjoint_gradient(system, policy, cost, x0, path)
            fd = finite_difference_gradient(system, policy, cost, x0, path)
            cos_fa, rel_fa = gradient_agreement(fw.grad, ad.grad)
            cos_fd, rel_fd = gradient_agreement(ad.grad, fd.grad)
            assert cos_fa >= 0.999 and rel_fa <= 1e-3
            assert cos_fd >= 0.999 and rel_fd <= 1e-3
            assert fw.cost_value == pytest.approx(ad.cost_value, abs=1e-12)

    def test_constant_shift_in_running_cost_leaves_gradient(self):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        path = generate_path(6, TimeGrid(0.0, 1.0, 128), 1)
        base = adjoint_gradient(system, policy, cost, x0, path)
        running = cost.running
        shifted = CostFunctional(
            running=lambda t, x, u: running(t, x, u) + 7.5,
            terminal=cost.terminal,
            running_dx=cost.running_dx,
            running_du=cost.running_du,
            terminal_dx=cost.terminal_dx,
        )
        out = adjoint_gradient(system, policy, shifted, x0, path)
        assert np.array_equal(out.grad, base.grad)
        assert out.cost_value == pytest.approx(base.cost_value + 7.5, abs=1e-12)

    def test_estimators_agree_across_resolutions(self):
        # discrete-exact pair: agreement is tight at every resolution
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        for n_steps in (64, 128, 256, 512):
            gaps = []
            for seed in range(5):
                path = generate_path(seed, TimeGrid(0.0, 1.0, n_steps), 1)
                fw = forward_sensitivity(system, policy, cost, x0, path)
                ad = adjoint_gradient(system, policy, cost, x0, path)
                gaps.append(gradient_agreement(fw.grad, ad.grad)[1])
            assert np.median(gaps) < 1e-10

    def test_deterministic_reduction_to_ode_adjoint(self):
        # zero diffusion: adjoint equals the classical ODE sensitivity
        system = bilinear_system()
        cost = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
        policy = scalar_policy(weight=0.0, bias=0.2)
        path = generate_path(0, TimeGrid(0.0, 1.0, 4096), 1)
        report = adjoint_gradient(system, policy, cost, np.array([1.0]), path)
        assert report.grad[1] == pytest.approx(np.exp(0.2), rel=1e-3)


@pytest.mark.parametrize("estimator", [adjoint_gradient, forward_sensitivity])
@pytest.mark.parametrize("times, terminal_pass", [(None, 0), ((0.5, 1.0), 1)])
def test_one_derivative_pass_per_step(monkeypatch, estimator, times, terminal_pass):
    # K + 1 network passes for the controls, then one fused derivative pass
    # per step, plus one at T when the cost differentiates the final control.
    system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
    cost = dataclasses.replace(cost, pointwise_times=times)
    K = 16
    path = generate_path(3, TimeGrid(0.0, 1.0, K), 1)
    passes = []
    # eval runs the control's pass; linearize, which keeps every layer, the
    # derivative passes.
    for name in ("linearize", "eval"):
        real = getattr(MlpPolicy, name)

        def counted(self, x, real=real):
            passes.append(x)
            return real(self, x)

        monkeypatch.setattr(MlpPolicy, name, counted)
    estimator(system, policy, cost, x0, path)
    assert len(passes) <= (K + 1) + K + terminal_pass


class TestAdjointPointwise:
    def _setup(self, n_steps=64):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        grid = TimeGrid(0.0, 1.0, n_steps)
        path = generate_path(7, grid, 1)
        return system, cost, x0, policy, grid, path

    def test_single_jump_at_end_equals_augmented_terminal(self):
        system, cost, x0, policy, grid, path = self._setup()
        running = cost.running
        running_dx = cost.running_dx
        running_du = cost.running_du
        jump_cost = CostFunctional(
            running=running,
            terminal=cost.terminal,
            running_dx=running_dx,
            running_du=running_du,
            terminal_dx=cost.terminal_dx,
            pointwise_times=[grid.t_end],
        )
        merged = CostFunctional(
            running=lambda t, x, u: np.zeros(x.shape[:-1]),
            terminal=lambda x, u: cost.terminal(x, u) + running(grid.t_end, x, u),
            running_dx=lambda t, x, u: np.zeros_like(x),
            running_du=lambda t, x, u: np.zeros_like(u),
            terminal_dx=lambda x, u: cost.terminal_dx(x, u) + running_dx(grid.t_end, x, u),
            terminal_du=lambda x, u: running_du(grid.t_end, x, u),
        )
        a = adjoint_gradient(system, policy, jump_cost, x0, path)
        b = adjoint_gradient(system, policy, merged, x0, path)
        assert np.allclose(a.grad, b.grad, atol=1e-13)
        assert a.cost_value == pytest.approx(b.cost_value, abs=1e-12)

    def test_null_jumps_equal_terminal_only(self):
        system, cost, x0, policy, grid, path = self._setup()
        null_jumps = CostFunctional(
            running=lambda t, x, u: np.zeros(x.shape[:-1]),
            terminal=cost.terminal,
            running_dx=lambda t, x, u: np.zeros_like(x),
            running_du=lambda t, x, u: np.zeros_like(u),
            terminal_dx=cost.terminal_dx,
            pointwise_times=[grid.time(k) for k in (10, 20, 30)],
        )
        terminal_only = CostFunctional(
            running=lambda t, x, u: np.zeros(x.shape[:-1]),
            terminal=cost.terminal,
            running_dx=lambda t, x, u: np.zeros_like(x),
            running_du=lambda t, x, u: np.zeros_like(u),
            terminal_dx=cost.terminal_dx,
        )
        a = adjoint_gradient(system, policy, null_jumps, x0, path)
        b = adjoint_gradient(system, policy, terminal_only, x0, path)
        assert np.allclose(a.grad, b.grad, atol=1e-14)

    def test_dense_jumps_match_integral_adjoint(self):
        system, cost, x0, policy, grid, path = self._setup()
        dt = grid.dt
        running = cost.running
        running_dx = cost.running_dx
        running_du = cost.running_du
        dense = CostFunctional(
            running=lambda t, x, u: running(t, x, u) * dt,
            terminal=cost.terminal,
            running_dx=lambda t, x, u: running_dx(t, x, u) * dt,
            running_du=lambda t, x, u: running_du(t, x, u) * dt,
            terminal_dx=cost.terminal_dx,
            pointwise_times=[grid.time(k) for k in range(grid.n_steps)],
        )
        a = adjoint_gradient(system, policy, dense, x0, path)
        b = adjoint_gradient(system, policy, cost, x0, path)
        _, rel = gradient_agreement(a.grad, b.grad)
        assert rel <= 1e-3
        assert a.cost_value == pytest.approx(b.cost_value, abs=1e-12)

    def test_off_grid_jump_rejected(self):
        system, cost, x0, policy, grid, path = self._setup()
        bad = CostFunctional(
            running=cost.running,
            terminal=cost.terminal,
            running_dx=cost.running_dx,
            running_du=cost.running_du,
            terminal_dx=cost.terminal_dx,
            pointwise_times=[0.123456],
        )
        with pytest.raises(ConfigurationError):
            adjoint_gradient(system, policy, bad, x0, path)

    def test_all_estimators_agree_on_pointwise_cost(self):
        system, cost, x0, policy, grid, path = self._setup()
        jumps = dataclasses.replace(cost, pointwise_times=[grid.time(k) for k in (10, 20, 30)])
        ad = adjoint_gradient(system, policy, jumps, x0, path)
        fw = forward_sensitivity(system, policy, jumps, x0, path)
        fd = finite_difference_gradient(system, policy, jumps, x0, path)
        assert gradient_agreement(ad.grad, fw.grad)[1] <= 1e-10
        assert gradient_agreement(ad.grad, fd.grad)[1] <= 1e-6
        assert ad.cost_value == pytest.approx(eval_cost(system, policy, jumps, x0, path), abs=1e-12)

    def test_repeated_time_counts_twice(self):
        system, cost, x0, policy, grid, path = self._setup()
        t = grid.time(10)
        twice = dataclasses.replace(cost, pointwise_times=[t, t])
        doubled = dataclasses.replace(
            cost,
            running=lambda tt, x, u: 2.0 * cost.running(tt, x, u),
            running_dx=lambda tt, x, u: 2.0 * cost.running_dx(tt, x, u),
            running_du=lambda tt, x, u: 2.0 * cost.running_du(tt, x, u),
            pointwise_times=[t],
        )
        value = eval_cost(system, policy, doubled, x0, path)
        want = adjoint_gradient(system, policy, doubled, x0, path).grad
        assert eval_cost(system, policy, twice, x0, path) == pytest.approx(value, abs=1e-12)
        for estimator in (adjoint_gradient, forward_sensitivity, finite_difference_gradient):
            report = estimator(system, policy, twice, x0, path)
            assert report.cost_value == pytest.approx(value, abs=1e-12), estimator.__name__
            tol = 1e-6 if estimator is finite_difference_gradient else 1e-10
            assert gradient_agreement(report.grad, want)[1] <= tol, estimator.__name__


@pytest.mark.parametrize("name", ["gbm", "portfolio"])
def test_stratonovich_system_is_converted_to_the_ito_results(name):
    # The estimators integrate Ito-Milstein; a Stratonovich-specified system
    # is converted back to Ito form first and so gives the Ito results.
    system, cost, x0, policy = build_grad_check_problem(name)
    path = generate_path(4, TimeGrid(0.0, 1.0, 32), system.noise_dim)
    strat = convert_calculus(system)
    for estimator in (forward_sensitivity, adjoint_gradient, finite_difference_gradient):
        want = estimator(system, policy, cost, x0, path)
        got = estimator(strat, policy, cost, x0, path)
        assert np.allclose(got.grad, want.grad, rtol=1e-12, atol=0), estimator.__name__
        assert got.cost_value == pytest.approx(want.cost_value, rel=1e-12), estimator.__name__


class TestBlockPartials:
    """The exact estimators compute the step and running-cost partials a
    span of whole policy blocks at a time, at least ``sensitivity._BLOCK_ROWS``
    steps x lanes per span.  The policy blocks are held small here
    (``sensitivity._POLICY_BLOCK_DOUBLES``), so a span holds several of them;
    a budget of 1 row is one block per span, and 7 rows gives ragged spans
    on one path.  No result may depend on the span length."""

    @staticmethod
    def _at_each_budget(monkeypatch, policy_doubles, run):
        monkeypatch.setattr(sensitivity, "_POLICY_BLOCK_DOUBLES", policy_doubles)
        outs = [run()]
        for rows in (1, 7):
            with monkeypatch.context() as m:
                m.setattr(sensitivity, "_BLOCK_ROWS", rows)
                outs.append(run())
        for out in outs[1:]:
            for got, want in zip(out, outs[0]):
                assert np.array_equal(got, want, equal_nan=True)
        return outs[0]

    @pytest.mark.parametrize("points", [None, (9, 9, 37)], ids=["integral", "repeat and T"])
    def test_single_path(self, monkeypatch, points):
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(4,))
        grid = TimeGrid(0.0, 1.0, 37)
        if points:
            cost = dataclasses.replace(cost, pointwise_times=[grid.time(k) for k in points])
        path = generate_path(4, grid, 1)

        def run():
            fw = forward_sensitivity(system, policy, cost, x0, path)
            ad, lambdas = adjoint_gradient(system, policy, cost, x0, path, return_adjoint=True)
            return fw.grad, fw.cost_value, ad.grad, ad.cost_value, lambdas

        # 2-step forward blocks (44 doubles a step), 6-step adjoint blocks (16).
        self._at_each_budget(monkeypatch, 100, run)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batch_with_lanes_dropped_before_the_sweep(self, monkeypatch):
        # nu = 0 near the solvency line: the log barrier drops crossing lanes.
        # 50 lanes make 20-step spans of 1024 rows, rounded up to 21 steps of
        # 3-step blocks, so 47 steps end in a ragged span and a ragged block.
        market = MarketParams(nu=0.0, barrier_weight=50.0, x0=(1.0, -0.85))
        system, cost, x0, policy = build_grad_check_problem(
            "portfolio", hidden_dims=(4,), market=market
        )
        grid = TimeGrid(0.0, 1.0, 47)
        increments = np.stack([generate_path(s, grid, 1).increments for s in range(50)], axis=1)
        x0b = np.tile(x0, (50, 1))

        def run():
            return adjoint_core(system, policy, cost, x0b, increments, grid, True, "none")

        per_step = 2 * sum(policy.layer_dims) * 50
        _, _, valid, _ = self._at_each_budget(monkeypatch, 3 * per_step, run)
        assert 0 < np.count_nonzero(~valid) < 50

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lane_that_turns_nan_in_the_sweep(self, monkeypatch):
        # Every cost is finite, but the terminal partial is NaN on the lowest
        # lane, so the sweep is rerun without it.  4 lanes make 256-step
        # spans, rounded up to 259 steps of 7-step blocks, so 300 steps end
        # in a ragged span and a ragged block.
        system, _, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        grid = TimeGrid(0.0, 1.0, 300)
        increments = np.stack([generate_path(s, grid, 1).increments for s in range(4)], axis=1)
        x0b = np.tile(x0, (4, 1))
        states, _ = forward_states(system, policy, x0b, increments, grid)
        finals = np.sort(states[-1, :, 0])
        low = 0.5 * (finals[0] + finals[1])
        cost = terminal_only_cost(
            lambda x, u: x[..., 0], lambda x, u: np.where(x < low, np.nan, 1.0)
        )

        def run():
            return adjoint_core(system, policy, cost, x0b, increments, grid, True, "none")

        per_step = 2 * sum(policy.layer_dims) * 4
        grad, costs, valid, _ = self._at_each_budget(monkeypatch, 7 * per_step, run)
        assert np.all(np.isfinite(costs)) and np.count_nonzero(~valid) == 1
        assert np.all(np.isfinite(grad))


class TestAdjointPolicyBlocks:
    """The adjoint sweep runs the policy a block of steps at a time, at most
    ``sensitivity._POLICY_BLOCK_DOUBLES`` doubles of stored layer inputs and
    slopes per block.  Budgets of one step, of 7 steps (which divides no K
    below) and of the whole path may change only the rounding: gradients and
    costates agree with the default within 1e-14 of their largest entry, and
    costs and valid masks are equal."""

    @staticmethod
    def _at_each_block(monkeypatch, policy, lanes, n_steps, run):
        want = run()
        per_step = 2 * sum(policy.layer_dims) * lanes
        for steps in (1, 7, n_steps):
            with monkeypatch.context() as m:
                m.setattr(sensitivity, "_POLICY_BLOCK_DOUBLES", steps * per_step)
                grad, costs, valid, lambdas = run()
            assert np.array_equal(costs, want[1], equal_nan=True)
            assert np.array_equal(valid, want[2])
            for got, ref in ((grad, want[0]), (lambdas, want[3])):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), steps
        return want

    @pytest.mark.parametrize(
        "points, terminal_du",
        [(None, False), ((9, 9, 37), False), (None, True)],
        ids=["integral", "repeat and T", "terminal_du"],
    )
    def test_single_path(self, monkeypatch, points, terminal_du):
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(4,))
        grid = TimeGrid(0.0, 1.0, 37)
        if points:
            cost = dataclasses.replace(cost, pointwise_times=[grid.time(k) for k in points])
        if terminal_du:
            cost = dataclasses.replace(
                cost,
                terminal=lambda x, u, f=cost.terminal: f(x, u) - 0.5 * np.sum(u**2, axis=-1),
                terminal_du=lambda x, u: -u,
            )
        increments = generate_path(4, grid, 1).increments

        def run():
            return adjoint_core(system, policy, cost, x0, increments, grid, True)

        self._at_each_block(monkeypatch, policy, 1, grid.n_steps, run)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batch_with_a_lane_dropped_before_the_sweep(self, monkeypatch):
        market = MarketParams(nu=0.0, barrier_weight=50.0, x0=(1.0, -0.85))
        system, cost, x0, policy = build_grad_check_problem(
            "portfolio", hidden_dims=(4,), market=market
        )
        grid = TimeGrid(0.0, 1.0, 47)
        increments = np.stack([generate_path(s, grid, 1).increments for s in range(50)], axis=1)
        x0b = np.tile(x0, (50, 1))

        def run():
            return adjoint_core(system, policy, cost, x0b, increments, grid, True, "none")

        _, _, valid, _ = self._at_each_block(monkeypatch, policy, 50, grid.n_steps, run)
        assert 0 < np.count_nonzero(~valid) < 50

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_costate_that_turns_nan_mid_sweep(self, monkeypatch):
        # Every cost is finite, but after t = 0.5 the running-cost gradient
        # is NaN below the lowest lane's minimum there, so one costate turns
        # NaN in the middle of the sweep and the sweep is rerun without it.
        system, _, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        grid = TimeGrid(0.0, 1.0, 300)
        increments = np.stack([generate_path(s, grid, 1).increments for s in range(4)], axis=1)
        x0b = np.tile(x0, (4, 1))
        states, _ = forward_states(system, policy, x0b, increments, grid)
        lows = np.sort(states[grid.n_steps // 2 + 1 :, :, 0].min(axis=0))
        low = 0.5 * (lows[0] + lows[1])
        cost = CostFunctional(
            running=lambda t, x, u: x[..., 0],
            terminal=lambda x, u: x[..., 0],
            running_dx=lambda t, x, u: np.where((t > 0.5) & (x[..., 0] < low), np.nan, 1.0)[..., None],
            running_du=lambda t, x, u: np.zeros_like(u),
            terminal_dx=lambda x, u: np.ones_like(x),
        )

        def run():
            return adjoint_core(system, policy, cost, x0b, increments, grid, True, "none")

        grad, costs, valid, _ = self._at_each_block(monkeypatch, policy, 4, grid.n_steps, run)
        assert np.all(np.isfinite(costs)) and np.count_nonzero(~valid) == 1
        assert np.all(np.isfinite(grad))

    def test_one_forward_and_one_parameter_vjp_per_block(self, monkeypatch):
        # The grad-check shape: 1024 steps of the [2, 32, 32, 32, 2] policy
        # make 163-step blocks, so 7 blocks.
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(32, 32, 32))
        path = generate_path(3, TimeGrid(0.0, 1.0, 1024), 1)
        rows = []
        vjp_params_layers = policy.vjp_params_layers

        def counted(x, cotangent, forward=None):
            rows.append((len(x), forward is not None))
            return vjp_params_layers(x, cotangent, forward)

        monkeypatch.setattr(policy, "vjp_params_layers", counted)
        adjoint_gradient(system, policy, cost, x0, path)
        assert rows == [(1024 - 6 * 163, True)] + [(163, True)] * 6


class TestPolicyJacobianBlocks:
    """Forward sensitivity computes the policy Jacobians a block of stored
    states at a time, at most ``sensitivity._POLICY_BLOCK_DOUBLES`` doubles
    (steps x n_u x n_theta) per block.  No result may depend on the block."""

    def test_result_does_not_depend_on_the_block(self, monkeypatch):
        # A time-input policy, point-wise times at 0, a repeat and T (so the
        # control at T enters the terminal partials), and 10 steps: the
        # default budget is one block, and 3-step blocks end in a partial one.
        system, cost, x0, _ = build_grad_check_problem("portfolio")
        policy = init_params([3, 8, 2], seed=5, with_time=True)
        grid = TimeGrid(0.0, 1.0, 10)
        cost = dataclasses.replace(cost, pointwise_times=[0.0, grid.time(4), grid.time(4), 1.0])
        path = generate_path(6, grid, 1)
        per_step = policy.n_out * policy.n_params
        calls = []
        jacobian_params = policy.jacobian_params

        def counted(x, out=None):
            calls.append(x.shape[:-1])
            return jacobian_params(x, out)

        monkeypatch.setattr(policy, "jacobian_params", counted)
        want = forward_sensitivity(system, policy, cost, x0, path)
        assert calls == [(10,), ()]  # one block, then the control at T
        for steps, blocks in ((1, [(1,)] * 10), (3, [(3,), (3,), (3,), (1,)])):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(sensitivity, "_POLICY_BLOCK_DOUBLES", steps * per_step)
                got = forward_sensitivity(system, policy, cost, x0, path)
            assert calls == blocks + [()]
            assert got.cost_value == want.cost_value
            scale = np.max(np.abs(want.grad))
            assert np.max(np.abs(got.grad - want.grad)) <= 1e-13 * scale

    def test_memory_on_the_gradient_check(self):
        # The benchmark's grad-check problem: 1024 steps, 2274 parameters.
        # One step's parameter Jacobian is 2 x 2274 doubles, so the whole path
        # at once would hold 37 MB; the block budget keeps the peak under 1 MB.
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(32, 32, 32))
        path = generate_path(3, TimeGrid(0.0, 1.0, 1024), 1)
        tracemalloc.start()
        try:
            forward_sensitivity(system, policy, cost, x0, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStepBlockCalls:
    """Both exact sweeps walk ``sensitivity._step_blocks``: one
    ``step_partials`` call per span of whole policy blocks, and one policy
    pass per block."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_gradient_check_shape(self, monkeypatch):
        # 1024 steps of the [2, 32, 32, 32, 2] policy: one span per sweep,
        # 7-step forward blocks (2 x 2274 doubles a step), so 147 of them.
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(32, 32, 32))
        path = generate_path(3, TimeGrid(0.0, 1.0, 1024), 1)
        partials = self._count(monkeypatch, sensitivity, "step_partials")
        jacobians = self._count(monkeypatch, policy, "jacobian_params")
        forward_sensitivity(system, policy, cost, x0, path)
        assert (len(partials), len(jacobians)) == (1, 147)
        partials.clear()
        adjoint_gradient(system, policy, cost, x0, path)
        assert len(partials) == 1

    def test_training_shape(self, monkeypatch):
        # 50 lanes x 200 steps: 20-step spans of 1024 rows, rounded up to 21
        # steps of 3-step adjoint blocks, so 10 spans.
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(32, 32, 32))
        grid = TimeGrid(0.0, 1.0, 200)
        increments = np.stack([generate_path(s, grid, 1).increments for s in range(50)], axis=1)
        partials = self._count(monkeypatch, sensitivity, "step_partials")
        adjoint_core(system, policy, cost, np.tile(x0, (50, 1)), increments, grid)
        assert len(partials) == 10


def per_step_sweeps(system, policy, cost, x0, increments, grid):
    """(forward gradient, adjoint gradient, costates) of one path, one step
    at a time in the per-step product form that the block sweeps hoist:
    S <- (Jx + Ju du/dx) S + Ju du/dtheta, and a <- Jx^T a + du/dx^T cu +
    w cdx with the control cotangent cu = Ju^T a + w cdu."""
    sys_i = _ito_form(system)
    states, controls = forward_states(sys_i, policy, x0, increments, grid)
    weights = sensitivity._quadrature_weights(cost, grid)
    K, n_x = grid.n_steps, system.state_dim

    def at(k):
        t, x, u = grid.time(k), states[k], controls[k]
        ux, ut = policy.jacobian_params(policy.net_input(t, x))
        if k == K:
            return ux[:, :n_x], ut
        jx, ju = step_partials(sys_i, t, x, u, grid.dt, increments[k])
        return ux[:, :n_x], ut, jx, ju, cost.running_dx(t, x, u), cost.running_du(t, x, u)

    cx, cu = sensitivity._terminal_partials(cost, grid, weights, states, controls)
    S, fw = np.zeros((n_x, policy.n_params)), np.zeros(policy.n_params)
    for k in range(K):
        ux, ut, jx, ju, cdx, cdu = at(k)
        if weights[k]:
            fw += weights[k] * ((cdx + cdu @ ux) @ S + cdu @ ut)
        S = (jx + ju @ ux) @ S + ju @ ut
    fw += cx @ S
    lambdas, ad = np.zeros_like(states), np.zeros(policy.n_params)
    lambdas[K] = a = cx
    if cu is not None:
        ux, ut = at(K)
        fw += cu @ (ux @ S + ut)
        ad += cu @ ut
        a = a + cu @ ux
    for k in range(K - 1, -1, -1):
        ux, ut, jx, ju, cdx, cdu = at(k)
        cu = ju.T @ a + (weights[k] * cdu if weights[k] else 0.0)
        ad += cu @ ut
        a = jx.T @ a + ux.T @ cu + (weights[k] * cdx if weights[k] else 0.0)
        lambdas[k] = a
    return fw, ad, lambdas


class TestHoistedSweeps:
    """Both exact sweeps step through the closed-loop matrices and cost rows
    of a block, computed before its per-step loop.  They match the per-step
    product form (``per_step_sweeps``) to 1e-13 of the largest entry, at the
    default block budget and at one of 100 doubles (several blocks)."""

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def check_one_path(self, monkeypatch, system, policy, cost, x0, path):
        fw, ad, lambdas = per_step_sweeps(system, policy, cost, x0, path.increments, path.grid)
        for budget in (sensitivity._POLICY_BLOCK_DOUBLES, 100):
            monkeypatch.setattr(sensitivity, "_POLICY_BLOCK_DOUBLES", budget)
            self.assert_close(forward_sensitivity(system, policy, cost, x0, path).grad, fw)
            got, got_lambdas = adjoint_gradient(system, policy, cost, x0, path, True)
            self.assert_close(got.grad, ad)
            self.assert_close(got_lambdas, lambdas)

    def test_controlled_gbm(self, monkeypatch):
        # The control enters the running cost, so cdu is nonzero.
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        path = generate_path(5, TimeGrid(0.0, 1.0, 40), 1)
        self.check_one_path(monkeypatch, system, policy, cost, x0, path)

    def test_pointwise_times_terminal_du_and_time_input(self, monkeypatch):
        system, cost, x0, _ = build_grad_check_problem("portfolio")
        policy = init_params([3, 8, 2], seed=5, with_time=True)
        grid = TimeGrid(0.0, 1.0, 37)
        cost = dataclasses.replace(
            cost,
            pointwise_times=[grid.time(k) for k in (9, 9, 37)],
            terminal=lambda x, u, f=cost.terminal: f(x, u) - 0.5 * np.sum(u**2, axis=-1),
            terminal_du=lambda x, u: -u,
        )
        self.check_one_path(monkeypatch, system, policy, cost, x0, generate_path(4, grid, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lanes_with_a_nan_lane_dropped(self, monkeypatch):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        grid = TimeGrid(0.0, 1.0, 40)
        increments = np.stack([generate_path(s, grid, 1).increments for s in range(4)], axis=1)
        x0b = np.tile(x0, (4, 1))
        x0b[2] = np.nan
        refs = [
            per_step_sweeps(system, policy, cost, x0, increments[:, n], grid) for n in (0, 1, 3)
        ]
        for budget in (sensitivity._POLICY_BLOCK_DOUBLES, 100):
            monkeypatch.setattr(sensitivity, "_POLICY_BLOCK_DOUBLES", budget)
            grad, _, valid, lambdas = adjoint_core(
                system, policy, cost, x0b, increments, grid, True, "none"
            )
            assert valid.tolist() == [True, True, False, True]
            self.assert_close(grad, sum(ref[1] for ref in refs))
            self.assert_close(lambdas, np.stack([ref[2] for ref in refs], axis=1))


class TestFiniteDifference:
    def test_linear_cost_exact(self):
        # frozen state at x0 = 0: u = w*0 + b = b, J = 2.5 u_T, dJ/db = 2.5
        system = frozen_system()
        cost = terminal_only_cost(
            lambda x, u: 2.5 * u[..., 0],
            lambda x, u: np.zeros_like(x),
            terminal_du=lambda x, u: np.full_like(u, 2.5),
        )
        policy = scalar_policy(weight=0.4, bias=0.1)
        path = generate_path(0, TimeGrid(0.0, 1.0, 8), 1)
        report = finite_difference_gradient(system, policy, cost, np.array([0.0]), path)
        assert report.grad[1] == pytest.approx(2.5, abs=1e-9)
        assert report.grad[0] == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_cost_exact(self):
        # J = u_T^2 with u = b; central differences are exact for quadratics
        system = frozen_system()
        cost = terminal_only_cost(
            lambda x, u: u[..., 0] ** 2,
            lambda x, u: np.zeros_like(x),
            terminal_du=lambda x, u: 2.0 * u,
        )
        policy = scalar_policy(weight=0.0, bias=3.0)
        path = generate_path(0, TimeGrid(0.0, 1.0, 8), 1)
        report = finite_difference_gradient(system, policy, cost, np.array([0.0]), path)
        assert report.grad[1] == pytest.approx(6.0, abs=1e-8)

    def test_invalid_step(self):
        system, cost, x0, policy = build_grad_check_problem("gbm")
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(ConfigurationError):
            finite_difference_gradient(system, policy, cost, x0, path, h_rel=0.0)

    @pytest.mark.parametrize("h_rel", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, h_rel):
        system, cost, x0, policy = build_grad_check_problem("gbm")
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(ConfigurationError, match="finite"):
            finite_difference_gradient(system, policy, cost, x0, path, h_rel=h_rel)

    @pytest.mark.parametrize("h_rel", [1e-300, 1e-17])
    def test_step_below_roundoff_rejected(self, h_rel):
        # Below the float epsilon theta +- h == theta for |theta| >= 1.
        system, cost, x0, policy = build_grad_check_problem("gbm")
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(ConfigurationError, match="epsilon"):
            finite_difference_gradient(system, policy, cost, x0, path, h_rel=h_rel)

    def test_initial_state_dimension_checked(self):
        system, cost, _, policy = build_grad_check_problem("portfolio", hidden_dims=(4,))
        path = generate_path(0, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(ConfigurationError, match="initial state dimension 3"):
            finite_difference_gradient(system, policy, cost, np.array([1.0, 0.0, 0.0]), path)

    def test_oracle_steps_through_the_shared_walk(self, monkeypatch):
        # On a K-step path the perturbed batch and the base eval_cost each
        # take K steps, all through sdecore.step_control.
        import sdecontrol.sdecore as sdecore

        real, rows = sdecore.step_control, []

        def counting(system, t, x, *args):
            rows.append(np.shape(x)[0] if np.ndim(x) > 1 else None)
            return real(system, t, x, *args)

        monkeypatch.setattr(sdecore, "step_control", counting)
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        K = 16
        path = generate_path(0, TimeGrid(0.0, 1.0, K), 1)
        finite_difference_gradient(system, policy, cost, x0, path)
        assert len(rows) == 2 * K
        assert rows.count(2 * policy.n_params) == K

    def test_perturbed_batch_rows_match_explicit_perturbations(self):
        # Each row of the batch must be the cost at theta +- h e_j, so a
        # stale or aliased layer buffer or a wrong scatter plan shows here.
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(4, 3))
        path = generate_path(5, TimeGrid(0.0, 1.0, 12), 1)
        theta = policy.get_params()
        idx, off = [], 0
        for w, b in zip(policy.weights, policy.biases):
            idx += [off, off + w.size // 2, off + w.size - 1, off + w.size, off + w.size + b.size - 1]
            off += w.size + b.size
        idx = np.repeat(idx, 2)
        h = np.tile([0.05, -0.03], idx.size // 2)
        rows = _eval_cost_perturbed(system, policy, cost, x0, path.increments, path.grid, idx, h)
        want = []
        for j, hj in zip(idx, h):
            policy.set_params(theta + hj * np.eye(theta.size)[j])
            want.append(eval_cost(system, policy, cost, x0, path))
        policy.set_params(theta)
        want = np.array(want)
        assert np.unique(want).size == want.size
        np.testing.assert_allclose(rows, want, rtol=1e-12, atol=0.0)

    def test_time_input_identity_output_three_way_agreement(self):
        system, cost, x0, _ = build_grad_check_problem("gbm")
        policy = init_params([2, 8, 1], seed=0, with_time=True, output_activation="identity")
        path = generate_path(3, TimeGrid(0.0, 1.0, 32), 1)
        fw = forward_sensitivity(system, policy, cost, x0, path).grad
        ad = adjoint_gradient(system, policy, cost, x0, path).grad
        fd = finite_difference_gradient(system, policy, cost, x0, path).grad
        # weights on the time column (every second entry of the first layer)
        assert np.all(fd[1:16:2] != 0.0)
        assert gradient_agreement(fw, ad)[1] <= 1e-10
        assert gradient_agreement(ad, fd)[1] <= 1e-5
        assert gradient_agreement(fw, fd)[1] <= 1e-5

    def test_spot_check_brackets_adjoint_on_portfolio(self):
        system, cost, x0, policy = build_grad_check_problem("portfolio", hidden_dims=(8, 8))
        path = generate_path(11, TimeGrid(0.0, 1.0, 128), 1)
        ad = adjoint_gradient(system, policy, cost, x0, path)
        fd = finite_difference_gradient(system, policy, cost, x0, path)
        idx = np.argsort(np.abs(ad.grad))[-10:]
        rel = np.abs(ad.grad[idx] - fd.grad[idx]) / np.abs(ad.grad[idx])
        assert np.max(rel) <= 1e-3


class TestAgreementHelpers:
    def test_identical_gradients(self):
        g = np.array([1.0, -2.0, 3.0])
        cosine, rel = gradient_agreement(g, g)
        assert cosine == pytest.approx(1.0)
        assert rel == 0.0

    def test_floor_masks_tiny_coordinates(self):
        a = np.array([1.0, 1e-12])
        b = np.array([1.0, -1e-12])
        _, rel = gradient_agreement(a, b)
        assert rel == 0.0

    def test_worst_coordinate_is_one_the_gate_counts(self):
        # Coordinate 1 is below the floor: its ratio 5e-9 / 1e-8 is not counted.
        assert worst_coordinate([1.0, 5e-9], [1.01, 0.0]) == 0
        assert worst_coordinate([1.0, np.nan, 2.0], [1.0, 1.0, 2.0]) == 1
        assert worst_coordinate([1e-9, 0.0], [-1e-9, 0.0]) is None

    def test_cosine_with_a_zero_vector(self):
        zero, ones = np.zeros(3), np.ones(3)
        assert gradient_agreement(zero, zero)[0] == 1.0
        assert gradient_agreement(zero, ones)[0] == 0.0
        assert gradient_agreement(ones, zero)[0] == 0.0
        assert np.isnan(gradient_agreement(zero, np.array([np.nan, 0.0, 0.0]))[0])

    def test_nan_coordinate_gives_nan_agreement(self):
        a = np.array([np.nan, 1.0, 2.0])
        b = np.array([1.0, 1.0, 2.0])
        for x, y in ((a, b), (b, a)):
            cosine, rel = gradient_agreement(x, y)
            assert np.isnan(cosine) and np.isnan(rel)

    def test_csv_report(self):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        path = generate_path(0, TimeGrid(0.0, 1.0, 32), 1)
        fw = forward_sensitivity(system, policy, cost, x0, path)
        ad = adjoint_gradient(system, policy, cost, x0, path)
        fd = finite_difference_gradient(system, policy, cost, x0, path)
        buf = io.StringIO()
        write_gradient_check_csv(fd, fw, ad, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "coord_index,fd,forward,adjoint,rel_err_fa,rel_err_fd"
        assert len(lines) == policy.n_params + 1


def cost_partial_pairs(cost, t, x, u):
    """(analytic partial, central difference) of the running and terminal
    cost at the points (t, x, u), batched over their leading axis."""
    fd = central_difference
    yield cost.running_dx(t, x, u), fd(lambda z: cost.running(t, z, u), x)
    yield cost.running_du(t, x, u), fd(lambda z: cost.running(t, x, z), u)
    yield cost.terminal_dx(x, u), fd(lambda z: cost.terminal(z, u), x)
    if cost.terminal_du is not None:
        yield cost.terminal_du(x, u), fd(lambda z: cost.terminal(x, z), u)


def test_check_cost_partials_on_benchmark_cost():
    # 20 points: t uniform on [0, 1], x and u standard normal.
    rng = np.random.Generator(np.random.Philox(key=0))
    t = rng.uniform(0.0, 1.0, 20)
    x, u = rng.standard_normal((2, 20, 1))
    assert_partials_match_fd(cost_partial_pairs(controlled_gbm_cost(), t, x, u))
