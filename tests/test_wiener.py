"""Tests for time grids and reproducible Wiener paths."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdecontrol.errors import ConfigurationError
from sdecontrol.wiener import (
    BackwardWienerPath,
    TimeGrid,
    WienerPath,
    coarsen_path,
    cumulative_values,
    dump_path_csv,
    generate_path,
    reverse_path,
)


def make_path(increments, t_end=1.0, dims=1):
    inc = np.asarray(increments, dtype=float).reshape(-1, dims)
    grid = TimeGrid(0.0, t_end, inc.shape[0])
    return WienerPath(grid=grid, dims=dims, increments=inc, seed=0)


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

    def test_starts_at_zero(self):
        path = generate_path(7, TimeGrid(0.0, 1.0, 16), 3)
        assert np.all(path.values()[0] == 0.0)

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


class TestCumulativeValues:
    def test_prefix_sum(self):
        path = make_path([0.5, -0.2])
        assert np.allclose(cumulative_values(path).ravel(), [0.0, 0.5, 0.3])

    def test_single_zero_increment(self):
        path = make_path([0.0])
        assert np.array_equal(cumulative_values(path).ravel(), [0.0, 0.0])

    def test_last_value_is_total_sum(self):
        path = generate_path(11, TimeGrid(0.0, 1.0, 64), 2)
        vals = cumulative_values(path)
        assert np.allclose(vals[-1], path.increments.sum(axis=0), rtol=0, atol=1e-14)


class TestReversePath:
    def test_values_shifted_by_terminal(self):
        path = make_path([0.5, -0.2])
        back = reverse_path(path)
        assert np.allclose(back.values().ravel(), [-0.3, 0.2, 0.0])

    def test_zero_path(self):
        path = make_path([0.0, 0.0])
        assert np.all(reverse_path(path).values() == 0.0)

    def test_terminal_and_initial_values(self):
        path = generate_path(5, TimeGrid(0.0, 1.0, 32), 1)
        back = reverse_path(path)
        vals = back.values()
        assert np.allclose(vals[-1], 0.0)
        assert np.allclose(vals[0], -path.values()[-1])

    def test_increments_shared_with_forward(self):
        path = generate_path(9, TimeGrid(0.0, 1.0, 16), 2)
        back = reverse_path(path)
        assert np.array_equal(back.increments, path.increments)
        assert isinstance(back, BackwardWienerPath)
        assert back.forward is path

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_reversal_differences_match(self, seed):
        path = generate_path(seed, TimeGrid(0.0, 1.0, 8), 1)
        fwd = path.values()
        back = reverse_path(path).values()
        assert np.allclose(np.diff(fwd, axis=0), np.diff(back, axis=0), atol=1e-14)


class TestCoarsenPath:
    def test_sums_adjacent_increments(self):
        path = make_path([0.1, 0.2, 0.3, 0.4])
        coarse = coarsen_path(path, 2)
        assert coarse.grid.n_steps == 2
        assert np.allclose(coarse.increments.ravel(), [0.3, 0.7])

    def test_same_terminal_value(self):
        path = generate_path(4, TimeGrid(0.0, 1.0, 64), 1)
        coarse = coarsen_path(path, 8)
        assert np.allclose(coarse.values()[-1], path.values()[-1], atol=1e-14)

    def test_bad_factor(self):
        path = generate_path(0, TimeGrid(0.0, 1.0, 6), 1)
        with pytest.raises(ConfigurationError):
            coarsen_path(path, 4)


def test_dump_path_csv():
    path = make_path([0.5, -0.2])
    buf = io.StringIO()
    dump_path_csv(path, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,B_1"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == 0.5
