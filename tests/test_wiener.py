"""Tests for time grids and reproducible Wiener paths."""

import numpy as np
import pytest

from sdecontrol.benchmarks import build_grad_check_problem
from sdecontrol.errors import ConfigurationError
from sdecontrol.optim import TrainConfig, batch_gradient
from sdecontrol.policy import init_params
from sdecontrol.portfolio import MarketParams, evaluate_policy, policy_grid
from sdecontrol.studies import _level_increments, reversibility_study, strong_convergence_study
from sdecontrol.wiener import TimeGrid, WienerPath, generate_path

GRID = TimeGrid(0.0, 1.0, 4)


def _batch_gradient(base_seed=0, n_paths=2):
    system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(2,))
    return batch_gradient(system, policy, cost, x0, base_seed, 0, n_paths, GRID)


def _evaluate(**kw):
    return evaluate_policy(MarketParams(), init_params([2, 2, 2], seed=0), GRID, **kw)


# Each seed or count, given as a float or a bool: a float seed drew the
# stream of its integer part, a bool that of 0 or 1, and a float count ended
# in a raw TypeError or ran as its integer part.
INTEGER_ARGUMENTS = {
    "generate_path seed": lambda v: generate_path(v, GRID, 1),
    "generate_path dims": lambda v: generate_path(0, GRID, v),
    "init_params seed": lambda v: init_params([2, 2, 2], seed=v),
    "TrainConfig batch_size": lambda v: TrainConfig(grid=GRID, batch_size=v),
    "TrainConfig iterations": lambda v: TrainConfig(grid=GRID, iterations=v),
    "TrainConfig checkpoint_every": lambda v: TrainConfig(grid=GRID, checkpoint_every=v),
    "TrainConfig base_seed": lambda v: TrainConfig(grid=GRID, base_seed=v),
    "batch_gradient base_seed": lambda v: _batch_gradient(base_seed=v),
    "batch_gradient n_paths": lambda v: _batch_gradient(n_paths=v),
    "evaluate_policy n_paths": lambda v: _evaluate(n_paths=v),
    "evaluate_policy keep_trajectories": lambda v: _evaluate(n_paths=2, keep_trajectories=v),
    "evaluate_policy seed_base": lambda v: _evaluate(n_paths=2, seed_base=v),
    "policy_grid resolution": lambda v: policy_grid(init_params([2, 2], seed=0), (0, 1), (0, 1), v),
    "strong_convergence_study n_paths": lambda v: strong_convergence_study(
        min_exp=1, max_exp=2, n_paths=v
    ),
    "strong_convergence_study max_exp": lambda v: strong_convergence_study(
        min_exp=0, max_exp=v, n_paths=1
    ),
    "reversibility_study seed": lambda v: reversibility_study(
        min_exp=1, n_halvings=1, n_paths=1, seed=v
    ),
    "reversibility_study n_halvings": lambda v: reversibility_study(
        min_exp=1, n_halvings=v, n_paths=1
    ),
}


@pytest.mark.parametrize("value", [2.5, True], ids=repr)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_seeds_and_counts_must_be_integers(call, value):
    with pytest.raises(ConfigurationError, match="must be an integer, got"):
        call(value)


class TestTimeGrid:
    def test_dt_uniform(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.dt == 0.25

    def test_points_by_index_multiplication(self):
        grid = TimeGrid(0.0, 1.0, 7)
        for k in range(8):
            assert grid.time(k) == 0.0 + k * grid.dt

    def test_times_endpoints(self):
        grid = TimeGrid(0.5, 2.5, 10)
        ts = grid.times()
        assert ts[0] == 0.5
        assert ts[-1] == pytest.approx(2.5)
        assert len(ts) == 11

    def test_index_of_roundtrip(self):
        grid = TimeGrid(0.0, 1.0, 8)
        for k in range(9):
            assert grid.index_of(grid.time(k)) == k

    def test_index_of_off_grid_raises(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ConfigurationError):
            grid.index_of(0.3)

    # 1e308 / dt overflows: a numpy scalar warned before it was rejected.
    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, np.float64(1e308)])
    def test_index_of_non_finite_or_overflowing_time_raises(self, t):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ConfigurationError, match="is not a grid point"):
            grid.index_of(t)

    def test_invalid_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 1.0, 4)
        with pytest.raises(ConfigurationError):
            TimeGrid(2.0, 1.0, 4)

    @pytest.mark.parametrize("n", [True, 2.5, np.float64(4.0), "4"], ids=repr)
    def test_step_count_that_is_not_an_integer_rejected(self, n):
        # 2.5 steps gave times past t_end; a bool is not a step count.
        with pytest.raises(ConfigurationError, match="n_steps must be an integer, got"):
            TimeGrid(0.0, 1.0, n)

    def test_numpy_integer_step_count_accepted(self):
        grid = TimeGrid(0.0, 1.0, np.int64(4))
        assert np.array_equal(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_step_budget_edge(self):
        # One path's increments fit in 2^24 doubles (128 MB); a larger grid is
        # rejected before anything is allocated.
        assert TimeGrid(0.0, 1.0, 2**24).n_steps == 2**24
        for n in (2**24 + 1, 10**20):
            with pytest.raises(ConfigurationError, match=r"n_steps must lie in \[1, 16777216\]"):
                TimeGrid(0.0, 1.0, n)

    @pytest.mark.parametrize(
        "start, end, shown",
        [
            (0.0, np.inf, "t_end must be finite, got inf"),
            (0.0, np.nan, "t_end must be finite, got nan"),
            (-np.inf, 1.0, "t_start must be finite, got -inf"),
        ],
    )
    def test_non_finite_ends_rejected(self, start, end, shown):
        with pytest.raises(ConfigurationError, match=shown):
            TimeGrid(start, end, 4)


class TestGeneratePath:
    def test_deterministic_in_seed(self):
        grid = TimeGrid(0.0, 1.0, 4)
        a = generate_path(42, grid, 1)
        b = generate_path(42, grid, 1)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        grid = TimeGrid(0.0, 1.0, 4)
        a = generate_path(1, grid, 1)
        b = generate_path(2, grid, 1)
        assert not np.array_equal(a.increments, b.increments)

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            generate_path(0, TimeGrid(0.0, 1.0, 4), 0)

    def test_numpy_integer_seed_and_dims_accepted(self):
        path = generate_path(np.int64(42), GRID, np.int64(2))
        assert np.array_equal(path.increments, generate_path(42, GRID, 2).increments)

    @pytest.mark.parametrize("shape", [(4, 0), (4,), (3, 1), (4, 1, 1)])
    def test_path_rejects_increments_not_of_shape_steps_by_width(self, shape):
        with pytest.raises(ConfigurationError, match=r"is not \(4, d\) with d >= 1"):
            WienerPath(GRID, np.zeros(shape), 0)

    def test_path_width_is_the_increments_width(self):
        path = WienerPath(GRID, np.zeros((4, 3)), 0)
        assert path.increments.shape == (4, 3) and not hasattr(path, "dims")

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_path(seed, TimeGrid(0.0, 1.0, 4), 1)

    def test_largest_seed_accepted(self):
        assert generate_path(2**128 - 1, TimeGrid(0.0, 1.0, 4), 1).seed == 2**128 - 1

    def test_terminal_variance_matches_horizon(self):
        # Var(B_1) = 1; 1e5 samples give standard error sqrt(2/N) ~ 0.0045
        grid = TimeGrid(0.0, 1.0, 1)
        draws = np.array([generate_path(s, grid, 1).increments[0, 0] for s in range(100_000)])
        se = np.sqrt(2.0 / draws.size)
        assert abs(draws.var() - 1.0) < 3 * se

    def test_increment_statistics(self):
        # mean within 4 sigma / sqrt(N), variance within 5% of dt
        grid = TimeGrid(0.0, 1.0, 8)
        incs = np.concatenate(
            [generate_path(s, grid, 2).increments.ravel() for s in range(2_000)]
        )
        dt = grid.dt
        assert abs(incs.mean()) < 4 * np.sqrt(dt) / np.sqrt(incs.size)
        assert abs(incs.var() - dt) < 0.05 * dt

    def test_increments_read_only(self):
        path = generate_path(3, TimeGrid(0.0, 1.0, 4), 1)
        with pytest.raises(ValueError):
            path.increments[0, 0] = 1.0


class TestCoarsenPath:
    # The studies coarsen paths-first stacks of fine increments.
    def test_sums_adjacent_increments(self):
        fine = TimeGrid(0.0, 1.0, 4)
        grid, coarse = _level_increments(fine, np.array([[[0.1], [0.2], [0.3], [0.4]]]), 2)
        assert grid.n_steps == 2
        assert np.allclose(coarse.ravel(), [0.3, 0.7])

    def test_same_terminal_value(self):
        fine = TimeGrid(0.0, 1.0, 64)
        paths = np.stack([generate_path(seed, fine, 1).increments for seed in (4, 5)])
        _, coarse = _level_increments(fine, paths, 8)
        assert coarse.shape == (8, 2, 1)
        assert np.allclose(coarse.sum(axis=0), paths.sum(axis=1), atol=1e-14)
