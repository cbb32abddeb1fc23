"""Tests for time grids and reproducible Wiener paths."""

import numpy as np
import pytest

from sdecontrol.errors import ConfigurationError
from sdecontrol.studies import _level_increments
from sdecontrol.wiener import TimeGrid, generate_path


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

    def test_invalid_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 1.0, 4)
        with pytest.raises(ConfigurationError):
            TimeGrid(2.0, 1.0, 4)

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
