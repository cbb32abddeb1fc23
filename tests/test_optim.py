"""Tests for optimizer updates, batch gradients, and the training loop."""

import dataclasses
import io

import numpy as np
import pytest

from sdecontrol import optim
from sdecontrol.benchmarks import build_grad_check_problem
from sdecontrol.errors import BatchFailureError, ConfigurationError
from sdecontrol.optim import (
    OptimizerState,
    TrainConfig,
    TrainLog,
    adam_update,
    batch_gradient,
    evaluation_seed,
    path_seed,
    sgd_update,
    train,
)
from sdecontrol.policy import MlpPolicy, init_params
from sdecontrol.sensitivity import (
    CostFunctional,
    adjoint_gradient,
    eval_cost,
    forward_sensitivity,
)
from sdecontrol.wiener import TimeGrid, generate_path

from test_sensitivity import frozen_system, scalar_policy, terminal_only_cost


def _mean_forward_sensitivity(system, policy, cost, x0, grid, n_paths):
    """Mean gradient and cost of per-path forward sensitivities over the
    paths of batch 0 of seed 0."""
    reports = [
        forward_sensitivity(system, policy, cost, x0, generate_path(path_seed(0, 0, i), grid, 1))
        for i in range(n_paths)
    ]
    return np.mean([r.grad for r in reports], axis=0), np.mean([r.cost_value for r in reports])


class TestSeedStreams:
    def test_no_collisions_across_iterations_and_paths(self):
        seeds = set()
        for it in range(50):
            for i in range(100):
                seeds.add(path_seed(0, it, i))
        assert len(seeds) == 50 * 100

    def test_evaluation_stream_disjoint_from_training(self):
        train_seeds = {path_seed(0, it, i) for it in range(200) for i in range(200)}
        eval_seeds = {evaluation_seed(0, i) for i in range(10_000)}
        assert not (train_seeds & eval_seeds)


class TestSgdUpdate:
    def test_zero_gradient_fixed_point(self):
        state = OptimizerState(kind="sgd", learning_rate=0.1)
        theta = np.array([1.0, -2.0])
        assert np.array_equal(sgd_update(state, theta, np.zeros(2)), theta)

    def test_minimize_arithmetic(self):
        state = OptimizerState(kind="sgd", learning_rate=0.1, direction="minimize")
        out = sgd_update(state, np.array([1.0]), np.array([2.0]))
        assert np.allclose(out, [0.8])

    def test_maximize_flips_sign(self):
        state = OptimizerState(kind="sgd", learning_rate=0.1, direction="maximize")
        out = sgd_update(state, np.array([1.0]), np.array([2.0]))
        assert np.allclose(out, [1.2])

    def test_rejects_non_finite_gradient(self):
        state = OptimizerState(kind="sgd")
        with pytest.raises(ConfigurationError):
            sgd_update(state, np.array([1.0]), np.array([np.nan]))

    def test_rejects_shape_mismatch(self):
        state = OptimizerState(kind="sgd")
        with pytest.raises(ConfigurationError):
            sgd_update(state, np.array([1.0]), np.array([1.0, 2.0]))


class TestAdamUpdate:
    def test_zero_gradient_unchanged(self):
        state = OptimizerState(kind="adam", learning_rate=0.03)
        theta = np.array([0.5])
        assert np.array_equal(adam_update(state, theta, np.zeros(1)), theta)

    def test_first_step_hand_computed(self):
        # bias-corrected m_hat = g, v_hat = g^2: step = lr * g / (|g| + eps)
        state = OptimizerState(kind="adam", learning_rate=0.03, direction="minimize")
        out = adam_update(state, np.array([0.0]), np.array([1.0]))
        assert out[0] == pytest.approx(-0.03, abs=1e-6)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        state = OptimizerState(kind="adam", learning_rate=0.03, direction="minimize")
        theta = np.array([0.0])
        for _ in range(1000):
            new = adam_update(state, theta, np.array([2.7]))
            step = new - theta
            theta = new
        assert abs(step[0]) == pytest.approx(0.03, rel=1e-3)
        assert step[0] < 0

    def test_step_count_increments(self):
        state = OptimizerState(kind="adam")
        adam_update(state, np.zeros(1), np.ones(1))
        adam_update(state, np.zeros(1), np.ones(1))
        assert state.step_count == 2

    def test_overflowing_moment_rejects_the_update(self):
        # grad^2 overflows the second moment, and an inf moment would zero
        # the step on that coordinate: the update is rejected, the state kept.
        state = OptimizerState(kind="adam")
        adam_update(state, np.zeros(2), np.ones(2))
        before = (state.step_count, state.adam_m.copy(), state.adam_v.copy())
        with pytest.raises(ConfigurationError, match="update rejected"):
            adam_update(state, np.zeros(2), np.array([1e200, 0.0]))
        assert state.step_count == before[0]
        assert np.array_equal(state.adam_m, before[1])
        assert np.array_equal(state.adam_v, before[2])

    def test_invalid_kind_and_direction(self):
        with pytest.raises(ConfigurationError):
            OptimizerState(kind="lbfgs")
        with pytest.raises(ConfigurationError):
            OptimizerState(direction="sideways")


class TestBatchGradient:
    def test_single_path_equals_adjoint(self):
        # One lane of the batched core gives the per-path adjoint bit for bit.
        grid = TimeGrid(0.0, 1.0, 64)
        for name, hidden in (("gbm", (8,)), ("portfolio", (8, 8))):
            system, cost, x0, policy = build_grad_check_problem(name, hidden_dims=hidden)
            grad, mean_cost, n_div = batch_gradient(
                system, policy, cost, x0, base_seed=0, iteration=0, n_paths=1, grid=grid
            )
            path = generate_path(path_seed(0, 0, 0), grid, system.noise_dim)
            single = adjoint_gradient(system, policy, cost, x0, path)
            assert np.array_equal(grad, single.grad), name
            assert mean_cost == single.cost_value, name
            assert n_div == 0

    def test_agrees_with_mean_forward_sensitivity(self):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        grid = TimeGrid(0.0, 1.0, 64)
        g_adj, c_adj, _ = batch_gradient(system, policy, cost, x0, 0, 0, 4, grid)
        g_fwd, c_fwd = _mean_forward_sensitivity(system, policy, cost, x0, grid, 4)
        assert np.allclose(g_adj, g_fwd, atol=1e-10)
        assert c_adj == pytest.approx(c_fwd, abs=1e-10)

    def test_agrees_with_mean_forward_sensitivity_on_pointwise_cost(self):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        grid = TimeGrid(0.0, 1.0, 64)
        jumps = dataclasses.replace(cost, pointwise_times=[grid.time(k) for k in (10, 20, 30)])
        g_adj, c_adj, _ = batch_gradient(system, policy, jumps, x0, 0, 0, 4, grid)
        g_fwd, c_fwd = _mean_forward_sensitivity(system, policy, jumps, x0, grid, 4)
        assert np.allclose(g_adj, g_fwd, atol=1e-10)
        assert c_adj == pytest.approx(c_fwd, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lane_with_non_finite_costate_is_dropped(self):
        # Every cost is finite, but the lowest lane's terminal partial is NaN:
        # the lane turns non-finite only in the backward sweep.
        system, x0, policy, grid, low, kept = self._spread_lanes()
        cost = terminal_only_cost(
            lambda x, u: x[..., 0], lambda x, u: np.where(x < low, np.nan, 1.0)
        )
        self._check_dropped_lane(system, cost, x0, policy, grid, kept)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lane_with_non_finite_cost_is_dropped(self):
        # log(x_T - c) is NaN on the lowest lane only; its partial stays finite.
        system, x0, policy, grid, low, kept = self._spread_lanes()
        cost = terminal_only_cost(
            lambda x, u: np.log(x[..., 0] - low), lambda x, u: 1.0 / (x - low)
        )
        self._check_dropped_lane(system, cost, x0, policy, grid, kept)

    @staticmethod
    def _spread_lanes():
        """Controlled GBM over the 4 paths of batch 0, a level between the two
        lowest terminal states, and the 3 paths that end above it."""
        system, _, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
        grid = TimeGrid(0.0, 1.0, 32)
        ident = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
        paths = [generate_path(path_seed(0, 0, i), grid, 1) for i in range(4)]
        finals = [eval_cost(system, policy, ident, x0, path) for path in paths]
        low = 0.5 * sum(sorted(finals)[:2])
        kept = [path for path, final in zip(paths, finals) if final > low]
        return system, x0, policy, grid, low, kept

    @staticmethod
    def _check_dropped_lane(system, cost, x0, policy, grid, kept):
        grad, mean_cost, n_div = batch_gradient(system, policy, cost, x0, 0, 0, 4, grid)
        reports = [adjoint_gradient(system, policy, cost, x0, path) for path in kept]
        assert len(reports) == 3 and n_div == 1
        assert np.allclose(grad, np.mean([r.grad for r in reports], axis=0), rtol=1e-12, atol=0)
        assert mean_cost == pytest.approx(np.mean([r.cost_value for r in reports]), rel=1e-12)

    def test_monte_carlo_consistency(self):
        # disjoint 1000-path batches agree within 3 standard errors
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        grid = TimeGrid(0.0, 1.0, 32)
        _, cost_a, _ = batch_gradient(system, policy, cost, x0, 0, 0, 1000, grid)
        _, cost_b, _ = batch_gradient(system, policy, cost, x0, 0, 1, 1000, grid)
        # per-path costs for the standard error
        costs = []
        for i in range(1000):
            path = generate_path(path_seed(0, 0, i), grid, 1)
            costs.append(adjoint_gradient(system, policy, cost, x0, path).cost_value)
        se = np.std(costs) / np.sqrt(1000)
        assert abs(cost_a - cost_b) < 3 * np.sqrt(2) * se

    def test_all_paths_diverging_raises(self):
        system = frozen_system()
        cost = terminal_only_cost(
            lambda x, u: np.log(x[..., 0] - 10.0),
            lambda x, u: np.zeros_like(x),
        )
        policy = init_params([1, 4, 1], seed=0)
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(BatchFailureError) as info:
            batch_gradient(system, policy, cost, np.array([1.0]), 0, 0, 4, grid)
        message = str(info.value)
        assert "4/4 paths diverged in iteration 0" in message
        assert all(str(path_seed(0, 0, i)) in message for i in range(4))
        # The first five dropped seeds are named, the rest counted.
        with pytest.raises(BatchFailureError) as info:
            batch_gradient(system, policy, cost, np.array([1.0]), 7, 3, 8, grid)
        message = str(info.value)
        assert all(str(path_seed(7, 3, i)) in message for i in range(5))
        assert str(path_seed(7, 3, 5)) not in message and "and 3 more" in message

    def test_invalid_path_count(self):
        system, cost, x0, policy = build_grad_check_problem("gbm")
        with pytest.raises(ConfigurationError):
            batch_gradient(system, policy, cost, x0, 0, 0, 0, TimeGrid(0.0, 1.0, 4))


class TestTrain:
    def test_zero_gradient_policy_stationary(self):
        system = frozen_system()
        cost = terminal_only_cost(lambda x, u: x[..., 0], lambda x, u: np.ones_like(x))
        policy = init_params([1, 4, 1], seed=0)
        theta0 = policy.get_params().copy()
        cfg = TrainConfig(grid=TimeGrid(0.0, 1.0, 8), batch_size=2, iterations=5)
        policy, log = train(system, policy, cost, np.array([1.0]), cfg)
        assert np.array_equal(policy.get_params(), theta0)
        assert len(log.records) == 5

    def test_quadratic_surrogate_converges(self):
        # frozen state at x0 = 0: u = b, J = (u - 2)^2; SGD drives b -> 2
        system = frozen_system()
        cost = terminal_only_cost(
            lambda x, u: (u[..., 0] - 2.0) ** 2,
            lambda x, u: np.zeros_like(x),
            terminal_du=lambda x, u: 2.0 * (u - 2.0),
        )
        policy = scalar_policy(weight=0.0, bias=0.0)
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 4),
            batch_size=1,
            iterations=100,
            learning_rate=0.1,
            optimizer="sgd",
        )
        policy, _ = train(system, policy, cost, np.array([0.0]), cfg)
        assert policy.get_params()[1] == pytest.approx(2.0, abs=1e-3)

    def test_maximize_direction_increases_objective(self):
        system = frozen_system()
        cost = terminal_only_cost(
            lambda x, u: -((u[..., 0] - 2.0) ** 2),
            lambda x, u: np.zeros_like(x),
            terminal_du=lambda x, u: -2.0 * (u - 2.0),
        )
        policy = scalar_policy(weight=0.0, bias=0.0)
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 4),
            batch_size=1,
            iterations=100,
            learning_rate=0.1,
            optimizer="sgd",
            direction="maximize",
        )
        policy, log = train(system, policy, cost, np.array([0.0]), cfg)
        assert policy.get_params()[1] == pytest.approx(2.0, abs=1e-3)
        costs = log.column("mean_cost")
        assert costs[-1] > costs[0]

    def test_bit_identical_reruns(self):
        system, cost, x0, _ = build_grad_check_problem("gbm", hidden_dims=(6,))
        cfg = TrainConfig(grid=TimeGrid(0.0, 1.0, 32), batch_size=3, iterations=4)
        outs = []
        for _ in range(2):
            policy = init_params([1, 6, 1], seed=1)
            policy, log = train(system, policy, cost, x0, cfg)
            buf = io.StringIO()
            log.to_csv(buf)
            outs.append((policy.get_params().copy(), buf.getvalue()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]

    def test_checkpoints_written(self, tmp_path):
        system, cost, x0, _ = build_grad_check_problem("gbm", hidden_dims=(4,))
        policy = init_params([1, 4, 1], seed=0)
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 16),
            batch_size=2,
            iterations=4,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        train(system, policy, cost, x0, cfg)
        assert (tmp_path / "checkpoint_00002.txt").exists()
        assert (tmp_path / "checkpoint_00004.txt").exists()

    def test_checkpoints_without_directory_rejected(self):
        system, cost, x0, _ = build_grad_check_problem("gbm", hidden_dims=(4,))
        policy = init_params([1, 4, 1], seed=0)
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 16), batch_size=2, iterations=2, checkpoint_every=1
        )
        theta = policy.get_params().copy()
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            train(system, policy, cost, x0, cfg)
        assert np.array_equal(policy.get_params(), theta)

    def test_missing_nested_checkpoint_directory_made(self, tmp_path):
        # It ran two iterations and then raised a raw FileNotFoundError.
        system, cost, x0, _ = build_grad_check_problem("gbm", hidden_dims=(4,))
        target = tmp_path / "a" / "b"
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 16),
            batch_size=2,
            iterations=2,
            checkpoint_every=2,
            checkpoint_dir=str(target),
        )
        train(system, init_params([1, 4, 1], seed=0), cost, x0, cfg)
        assert [p.name for p in target.iterdir()] == ["checkpoint_00002.txt"]

    def test_checkpoint_directory_under_a_file_rejected_before_training(self, tmp_path, monkeypatch):
        system, cost, x0, _ = build_grad_check_problem("gbm", hidden_dims=(4,))
        (tmp_path / "file").write_text("")
        cfg = TrainConfig(
            grid=TimeGrid(0.0, 1.0, 16),
            batch_size=2,
            iterations=2,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path / "file" / "ckpt"),
        )

        def no_iteration(*args):
            raise AssertionError("an iteration ran before the directory was checked")

        monkeypatch.setattr(optim, "batch_gradient", no_iteration)
        with pytest.raises(ConfigurationError, match="cannot make checkpoint directory"):
            train(system, init_params([1, 4, 1], seed=0), cost, x0, cfg)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(grid=TimeGrid(0.0, 1.0, 4), batch_size=0)

    def test_batch_size_beyond_seed_stride_rejected(self):
        TrainConfig(grid=TimeGrid(0.0, 1.0, 4), batch_size=2**20)
        with pytest.raises(ConfigurationError):
            TrainConfig(grid=TimeGrid(0.0, 1.0, 4), batch_size=2**20 + 1)

    def test_iterations_reaching_the_evaluation_stream_rejected(self):
        # The last path seed of iteration 2**20 - 2 is the last below 2**40.
        grid = TimeGrid(0.0, 1.0, 4)
        cfg = TrainConfig(grid=grid, iterations=2**20 - 1, batch_size=2**20)
        assert path_seed(0, cfg.iterations - 1, cfg.batch_size - 1) < evaluation_seed(0, 0)
        with pytest.raises(ConfigurationError, match="evaluation stream"):
            TrainConfig(grid=grid, iterations=2**20)

    @pytest.mark.parametrize("rate", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError):
            TrainConfig(grid=TimeGrid(0.0, 1.0, 4), learning_rate=rate)

    def test_unknown_optimizer_rejected_before_training(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(grid=TimeGrid(0.0, 1.0, 4), optimizer="lbfgs")


class TestTrainLog:
    def test_csv_excludes_wall_time_by_default(self):
        log = TrainLog()
        log.append(iteration=0, mean_cost=1.0, grad_norm=2.0, n_diverged=0, wall_ms=3.3)
        buf = io.StringIO()
        log.to_csv(buf)
        assert "wall_ms" not in buf.getvalue()

    def test_one_record_per_iteration(self):
        system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(4,))
        cfg = TrainConfig(grid=TimeGrid(0.0, 1.0, 8), batch_size=1, iterations=7)
        _, log = train(system, policy, cost, x0, cfg)
        assert log.column("iteration").tolist() == list(range(7))
