"""Tests for the transaction-cost portfolio system, cost, and experiment."""

import numpy as np
import pytest

from sdecontrol.benchmarks import build_grad_check_problem, gbm_system
from sdecontrol.errors import ConfigurationError, DivergenceError
from sdecontrol.optim import TrainConfig, evaluation_seed
from sdecontrol.policy import MlpPolicy, init_params
from sdecontrol.portfolio import (
    MarketParams,
    build_cost,
    build_system,
    evaluate_policy,
    policy_grid,
    run_experiment,
    solvency_gap,
)
from sdecontrol.sdecore import forward_states, integrate
from sdecontrol.sensitivity import (
    adjoint_gradient,
    eval_cost,
    finite_difference_gradient,
    forward_sensitivity,
    gradient_agreement,
)
from sdecontrol.wiener import TimeGrid, WienerPath, generate_path
from test_sdecore import assert_partials_match_fd, system_partial_pairs
from test_sensitivity import cost_partial_pairs


def zero_path(n_steps, t_end=1.0):
    grid = TimeGrid(0.0, t_end, n_steps)
    return WienerPath(grid=grid, dims=1, increments=np.zeros((n_steps, 1)), seed=0)


def euler_states(system, policy, x0, path):
    """States of an Euler-Maruyama integration along ``path``."""
    return forward_states(system, policy, x0, path.increments, path.grid, euler=True)[0]


class ConstantControl:
    """Open-loop constant (u_i, u_d) control for hand-integrated oracles."""

    n_out = 2

    def __init__(self, ui, ud):
        self.u = np.array([float(ui), float(ud)])

    def control(self, t, x):
        return np.broadcast_to(self.u, x.shape[:-1] + (2,))


def market_sampler(rng):
    """Sample states comfortably above the solvency line."""
    t = float(rng.uniform(0.0, 1.0))
    x = np.array([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)])
    u = rng.uniform(0.0, 1.0, 2)
    return t, x, u


def straddle_sampler(rng):
    """Sample states whose solvency gap V + (1-alpha) S lies in [-0.5, 0.5],
    across the band where the nu > 0 solvency penalty is active."""
    t = float(rng.uniform(0.0, 1.0))
    s = rng.uniform(0.5, 2.0)
    x = np.array([s, rng.uniform(-0.5, 0.5) - 0.95 * s])
    u = rng.uniform(0.0, 1.0, 2)
    return t, x, u


def sample(sampler, n_points):
    """n_points points of ``sampler`` from one stream, stacked as t (n,),
    x (n, 2) and u (n, 2)."""
    rng = np.random.Generator(np.random.Philox(key=0))
    return tuple(map(np.array, zip(*(sampler(rng) for _ in range(n_points)))))


class TestMarketParams:
    def test_defaults_match_experiment_constants(self):
        p = MarketParams()
        assert (p.alpha, p.r, p.mu, p.sigma) == (0.05, 0.04, 0.23, 0.18)
        assert p.x0 == (1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MarketParams(alpha=-0.1)
        with pytest.raises(ConfigurationError):
            MarketParams(sigma=0.0)
        with pytest.raises(ConfigurationError, match="sigma must have a finite sigma"):
            MarketParams(sigma=1e300)
        with pytest.raises(ConfigurationError):
            MarketParams(nu=-1.0)
        with pytest.raises(ConfigurationError):
            MarketParams(horizon=0.0)

    @pytest.mark.parametrize(
        "name, rate, reason",
        [
            pytest.param(name, rate, reason, id=f"{name}-{case}")
            for name in ("r", "mu", "sigma")
            for case, rate, reason in (
                ("scalar-only switch", lambda t: 0.2 if t < 0.5 else 0.3, "must accept an array"),
                ("fixed-shape result", lambda t: np.array([0.1, 0.2, 0.3]), "must accept an array"),
                ("nan values", lambda t: np.full_like(t, np.nan), "must be finite"),
            )
        ]
        # r and mu may be negative; a volatility may not, nor overflow sigma^2 / 2.
        + [
            pytest.param("sigma", lambda t: -0.2 + 0 * t, "must be >= 0", id="sigma-negative values"),
            pytest.param(
                "sigma",
                lambda t: 1e300 + 0 * t,
                r"must have a finite sigma\^2 / 2",
                id="sigma-overflowing coefficient",
            ),
        ],
    )
    def test_rate_that_does_not_broadcast_over_times_rejected(self, name, rate, reason):
        with pytest.raises(ConfigurationError, match=f"rate {name} {reason}"):
            MarketParams(**{name: rate})

    def test_time_varying_rates_differentiate_exactly(self):
        # The estimators evaluate the rates at arrays of times, a block of
        # steps at a time; both exact estimators and FD must agree on them.
        market = MarketParams(
            nu=0.25,
            barrier_weight=1.0,
            r=lambda t: 0.04 + 0.02 * t,
            mu=lambda t: np.where(t < 0.5, 0.15, 0.3),
            sigma=lambda t: np.where(t < 0.25, 0.3, 0.18),
        )
        system, cost, x0, policy = build_grad_check_problem(
            "portfolio", hidden_dims=(4,), market=market
        )
        path = generate_path(5, TimeGrid(0.0, 1.0, 64), 1)
        fw = forward_sensitivity(system, policy, cost, x0, path)
        ad = adjoint_gradient(system, policy, cost, x0, path)
        fd = finite_difference_gradient(system, policy, cost, x0, path, h_rel=1e-5)
        assert fw.cost_value == ad.cost_value
        assert gradient_agreement(fw.grad, ad.grad)[1] <= 1e-10
        cosine, max_rel = gradient_agreement(ad.grad, fd.grad)
        assert max_rel <= 1e-4 and cosine >= 1 - 1e-8


class TestBuildSystem:
    def test_partials_self_check(self):
        system = build_system(MarketParams())
        assert_partials_match_fd(system_partial_pairs(system, *sample(market_sampler, 50)))

    def test_uncontrolled_deterministic_growth(self):
        # sigma -> 0 via a time callback: S, V grow as independent exponentials
        p = MarketParams(sigma=lambda t: 0.0)
        system = build_system(p)
        states = euler_states(system, None, np.array([1.0, 2.0]), zero_path(4096))
        assert states[-1, 0] == pytest.approx(np.exp(0.23), rel=1e-3)
        assert states[-1, 1] == pytest.approx(2.0 * np.exp(0.04), rel=1e-3)

    def test_zero_cost_churn_cancels(self):
        # alpha = 0 and u_i = u_d: trading contributes nothing to either asset
        system0 = build_system(MarketParams(alpha=0.0))
        x = np.array([1.0, 1.0])
        churn = np.array([0.7, 0.7])
        calm = np.zeros(2)
        assert np.allclose(system0.drift(0.0, x, churn), system0.drift(0.0, x, calm), atol=1e-15)

    def test_hand_integrated_constant_sale(self):
        # r=0, sigma->0, u_d=1: V(1) = (1-alpha) * 1 = 0.95,
        # S solves dS = mu S - 1, S(1) = e^mu - (e^mu - 1)/mu
        p = MarketParams(alpha=0.05, r=0.0, sigma=lambda t: 0.0)
        system = build_system(p)
        policy = ConstantControl(0.0, 1.0)
        states = euler_states(system, policy, np.array([1.0, 0.0]), zero_path(8192))
        mu = 0.23
        s_exact = np.exp(mu) - (np.exp(mu) - 1.0) / mu
        assert states[-1, 1] == pytest.approx(0.95, abs=1e-3)
        assert states[-1, 0] == pytest.approx(s_exact, abs=1e-3)

    @pytest.mark.parametrize("x_shape, u_shape", [((4, 2), (2,)), ((2,), (4, 2)), ((2,), (2,))])
    def test_drift_equals_stacked_columns(self, x_shape, u_shape):
        params = MarketParams(r=lambda t: 0.04 + t, mu=0.23)
        rng = np.random.Generator(np.random.Philox(key=31))
        x = rng.standard_normal(x_shape)
        u = rng.standard_normal(u_shape)
        t = 0.3
        s, v, ui, ud = x[..., 0], x[..., 1], u[..., 0], u[..., 1]
        want = np.stack(
            [0.23 * s + ui - ud, (0.04 + t) * v - ui + (1.0 - params.alpha) * ud], axis=-1
        )
        got = build_system(params).drift(t, x, u)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("x_shape, u_shape", [((2,), (3, 2)), ((3, 2), (2,)), ((2,), (2,))])
    @pytest.mark.parametrize(
        "rates",
        [{}, {"mu": lambda t: np.where(t < 0.5, 0.15, 0.3), "r": lambda t: 0.04 + 0.02 * t}],
        ids=["constant rates", "callable rates"],
    )
    def test_drift_has_the_bits_of_the_output_sized_by_broadcast_shapes(
        self, x_shape, u_shape, rates
    ):
        # The drift sizes its output from its first column; the formula it
        # replaced sized it from np.broadcast_shapes of the batch axes.
        params = MarketParams(**rates)
        rng = np.random.Generator(np.random.Philox(key=32))
        x = rng.standard_normal(x_shape)
        u = rng.standard_normal(u_shape)
        for t in (0.25, 0.75):
            mu = params.mu(t) if callable(params.mu) else params.mu
            r = params.r(t) if callable(params.r) else params.r
            want = np.empty(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2,))
            want[..., 0] = mu * x[..., 0] + u[..., 0] - u[..., 1]
            want[..., 1] = r * x[..., 1] - u[..., 0] + (1.0 - params.alpha) * u[..., 1]
            got = build_system(params).drift(t, x, u)
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "rates", [{}, {"mu": lambda t: 0.2 + 0.1 * t}], ids=["constant", "callable"]
    )
    def test_one_row_callbacks_give_the_rows_of_a_batch(self, rates):
        # At one row the callbacks work on scalars, not 0-d arrays.
        system = build_system(MarketParams(**rates))
        rng = np.random.Generator(np.random.Philox(key=33))
        x, u = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        for name in ("drift", "diffusion"):
            batch = getattr(system, name)(0.3, x, u)
            rows = [getattr(system, name)(0.3, xi, ui) for xi, ui in zip(x, u)]
            assert all(type(r) is np.ndarray for r in rows)
            assert np.array_equal(np.stack(rows), batch), name

    def test_zero_control_stock_matches_gbm(self):
        # with u = 0 the stock decouples and follows plain GBM
        system = build_system(MarketParams())
        gbm = gbm_system(mu=0.23, sigma=0.18)
        path = generate_path(3, TimeGrid(0.0, 1.0, 256), 1)
        port = integrate(system, None, np.array([1.0, 0.5]), path)
        ref = integrate(gbm, None, np.array([1.0]), path)
        assert np.allclose(port.states[:, 0], ref.states[:, 0], atol=1e-12)


class TestBuildCost:
    def test_constant_state_objective(self):
        # frozen (S, V) = (1, 0), nu = 0, no barrier: J = 0.23 + 0.23 = 0.46
        p = MarketParams(nu=0.0, barrier_weight=0.0)
        cost = build_cost(p)
        system = build_system(MarketParams(sigma=lambda t: 0.0, mu=lambda t: 0.0, r=lambda t: 0.0))
        # drift is zero only for u = 0 and mu = r = 0, so the state stays (1, 0)
        value = eval_cost(system, None, cost, np.array([1.0, 0.0]), zero_path(100))
        assert value == pytest.approx(0.46, abs=1e-12)

    def test_running_gradient_example(self):
        # d(running)/dS = mu - 2 nu sigma S = 0.23 - 2*0.25*0.18 = 0.14;
        # no solvency penalty, so the risk-term gradient is checked exactly
        cost = build_cost(MarketParams(nu=0.25, barrier_weight=0.0))
        grad = cost.running_dx(0.0, np.array([1.0, 0.0]), np.zeros(2))
        assert grad[0] == pytest.approx(0.14, abs=1e-15)
        assert grad[1] == pytest.approx(0.04, abs=1e-15)

    def test_terminal_partials_constant(self):
        cost = build_cost(MarketParams())
        for s, v in [(1.0, 0.0), (3.0, -2.0)]:
            grad = cost.terminal_dx(np.array([s, v]), np.zeros(2))
            assert np.allclose(grad, [0.23, 0.04], atol=1e-15)

    def test_partials_match_finite_differences(self):
        for nu in (0.0, 0.5):
            cost = build_cost(MarketParams(nu=nu))
            assert_partials_match_fd(cost_partial_pairs(cost, *sample(market_sampler, 30)))

    def test_solvency_penalty_partials_across_the_line(self):
        points = sample(straddle_sampler, 50)
        for nu in (0.25, 1.0):
            for beta in (1e-2, 50.0):
                cost = build_cost(MarketParams(nu=nu, barrier_weight=beta))
                assert_partials_match_fd(cost_partial_pairs(cost, *points))

    def test_barrier_active_only_at_nu_zero(self):
        # the log barrier is NaN below the line; the nu > 0 penalty is finite
        below = np.array([1.0, -2.0])  # solvency gap < 0
        with np.errstate(all="ignore"):
            val0 = build_cost(MarketParams(nu=0.0)).running(0.0, below, np.zeros(2))
            val1 = build_cost(MarketParams(nu=1.0)).running(0.0, below, np.zeros(2))
        free = build_cost(MarketParams(nu=1.0, barrier_weight=0.0)).running(0.0, below, np.zeros(2))
        assert np.isnan(val0)
        assert np.isfinite(val1)
        assert val1 < free

    def test_solvency_penalty_needs_positive_width(self):
        # width sigma(0) * (V0 + (1-alpha) S0) is zero or negative here
        for p in (
            MarketParams(nu=0.5, x0=(1.0, -2.0)),
            MarketParams(nu=0.5, x0=(0.0, 0.0)),
            MarketParams(nu=0.5, sigma=lambda t: 0.0),
        ):
            with pytest.raises(ConfigurationError):
                build_cost(p)
        # no penalty, no width needed
        build_cost(MarketParams(nu=0.5, x0=(1.0, -2.0), barrier_weight=0.0))
        build_cost(MarketParams(nu=0.0, sigma=lambda t: 0.0))

    def test_barrier_crossing_raises_divergence(self):
        system = build_system(MarketParams(sigma=lambda t: 0.0, mu=lambda t: 0.0, r=lambda t: 0.0))
        cost = build_cost(MarketParams(nu=0.0))
        with pytest.raises(DivergenceError):
            eval_cost(system, None, cost, np.array([1.0, -2.0]), zero_path(8))

    def test_solvency_gap(self):
        states = np.array([[1.0, 0.0], [2.0, -1.9]])
        gap = solvency_gap(states, 0.05)
        assert np.allclose(gap, [0.95, 0.0], atol=1e-12)


class TestPolicyGrid:
    def test_zero_policy_constant_ln2(self):
        weights = [np.zeros((2, 2))]
        biases = [np.zeros(2)]
        policy = MlpPolicy(weights, biases, output_activation="softplus")
        rows = policy_grid(policy, (0.0, 2.0), (-1.0, 1.0), 3)
        assert np.allclose(rows[:, 2:], np.log(2.0))

    def test_row_count(self):
        policy = init_params([2, 4, 2], seed=0)
        rows = policy_grid(policy, (0.0, 1.0), (0.0, 1.0), 2)
        assert rows.shape == (4, 4)

    def test_matches_direct_eval_bitwise(self):
        policy = init_params([2, 8, 2], seed=3)
        rows = policy_grid(policy, (0.5, 1.5), (-0.5, 0.5), 4)
        for row in rows:
            direct = policy.control(0.0, np.array([row[0], row[1]]))
            assert np.array_equal(row[2:], direct)

    def test_invalid_resolution(self):
        policy = init_params([2, 4, 2], seed=0)
        with pytest.raises(ConfigurationError):
            policy_grid(policy, (0.0, 1.0), (0.0, 1.0), 1)


class TestEvaluatePolicy:
    def test_nondecreasing_cumulative_trades(self):
        params = MarketParams(nu=0.25)
        system = build_system(params)
        policy = init_params([2, 8, 2], seed=1)
        path = generate_path(4, TimeGrid(0.0, 1.0, 100), 1)
        traj = integrate(system, policy, np.array([1.0, 0.0]), path)
        dt = path.grid.dt
        pi = np.cumsum(traj.controls[:-1] * dt, axis=0)
        assert np.all(np.diff(pi, axis=0) >= 0)

    def test_stats_shapes_and_determinism(self):
        params = MarketParams(nu=0.25)
        grid = TimeGrid(0.0, 1.0, 50)
        policy = init_params([2, 8, 2], seed=0)
        a, kept = evaluate_policy(params, policy, grid, 5, seed_base=0, keep_trajectories=2)
        b, _ = evaluate_policy(params, policy, grid, 5, seed_base=0)
        assert a.n_paths == 5
        assert len(kept) == 2
        assert a.mean_terminal_stock == b.mean_terminal_stock
        assert a.mean_stock_penalty == b.mean_stock_penalty
        assert 0.0 <= a.solvency_crossing_fraction <= 1.0

    def test_objective_at_nu_0_is_the_mean_over_the_solvent_paths(self):
        # One of 20 paths started near the line crosses it, so its log
        # barrier, and its objective, is NaN; the mean skips it.
        params = MarketParams(nu=0.0, barrier_weight=50.0, x0=(1.0, -0.8))
        system, cost = build_system(params), build_cost(params)
        policy = init_params([2, 8, 2], seed=0)
        grid = TimeGrid(0.0, 1.0, 50)
        stats, _ = evaluate_policy(params, policy, grid, 20)
        solvent = []
        for i in range(20):
            path = generate_path(evaluation_seed(0, i), grid, 1)
            try:
                solvent.append(eval_cost(system, policy, cost, np.array(params.x0), path))
            except DivergenceError:
                pass
        assert len(solvent) == 19 and stats.solvency_crossing_fraction == 1 / 20
        assert stats.mean_objective == np.mean(solvent)

    def test_diverged_path_names_seed_and_step(self):
        policy = init_params([2, 4, 2], seed=0)
        theta = policy.get_params()
        theta[-1] = np.nan  # u_d is NaN everywhere, so the first step diverges
        policy.set_params(theta)
        seed = evaluation_seed(7, 0)
        match = rf"seed {seed}\) diverged at step 0"
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match=match):
            evaluate_policy(MarketParams(nu=0.25), policy, TimeGrid(0.0, 1.0, 10), 3, seed_base=7)


class TestRunExperiment:
    def test_smoke_run_writes_all_artifacts(self, tmp_path):
        params = MarketParams()
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 20),
            batch_size=1,
            iterations=1,
            direction="maximize",
        )
        results = run_experiment(
            params,
            cfg,
            nu_values=(0.5,),
            out_dir=str(tmp_path),
            hidden_dims=(4,),
            eval_paths=2,
            trajectory_dumps=1,
            grid_resolution=2,
        )
        assert set(results) == {0.5}
        for name in (
            "trainlog_nu0.5.csv",
            "policy_nu0.5.txt",
            "traj_nu0.5_seed0.csv",
            "policygrid_nu0.5.csv",
        ):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "traj_nu0.5_seed0.csv").read_text().splitlines()[0]
        assert header == "t,S,V,u_i,u_d"
        header = (tmp_path / "policygrid_nu0.5.csv").read_text().splitlines()[0]
        assert header == "S,V,u_i,u_d"
