"""Reproducible discretized Wiener process paths on fixed uniform time grids.

Sampling uses numpy's Philox counter-based bit generator keyed directly by the
integer seed, with Gaussian variates drawn through ``standard_normal``.  The
same seed therefore yields the same path on every platform running the same
numpy release.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "WienerPath",
    "BackwardWienerPath",
    "philox_rng",
    "generate_path",
    "cumulative_values",
    "reverse_path",
    "coarsen_path",
    "dump_path_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into n_steps intervals.

    Grid points are always derived by index multiplication
    (``t_start + k * dt``), never by accumulation, so forward and backward
    sweeps see bit-identical times.
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.t_start:
            raise ConfigurationError(
                f"grid span must be positive, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def time(self, k: int) -> float:
        """Grid point k = t_start + k * dt."""
        return self.t_start + k * self.dt

    def times(self) -> np.ndarray:
        """All n_steps + 1 grid points."""
        return self.t_start + np.arange(self.n_steps + 1) * self.dt

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid point equal to t; raises if t is off-grid."""
        k = int(round((t - self.t_start) / self.dt))
        if k < 0 or k > self.n_steps or abs(self.time(k) - t) > tol * max(1.0, abs(t)):
            raise ConfigurationError(f"time {t} is not a grid point of {self}")
        return k


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WienerPath:
    """Increments of an n_xi-dimensional Wiener path sampled on a grid.

    ``increments[k, i]`` is B_i(t_{k+1}) - B_i(t_k); the path itself starts
    at B(t_start) = 0 by convention.
    """

    grid: TimeGrid
    dims: int
    increments: np.ndarray  # (n_steps, dims)
    seed: int

    def __post_init__(self):
        if self.dims < 1:
            raise ConfigurationError(f"dims must be >= 1, got {self.dims}")
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.n_steps, self.dims):
            raise ConfigurationError(
                f"increments shape {inc.shape} does not match "
                f"({self.grid.n_steps}, {self.dims})"
            )
        object.__setattr__(self, "increments", _freeze(inc))

    def values(self) -> np.ndarray:
        return cumulative_values(self)


@dataclass(frozen=True)
class BackwardWienerPath:
    """Backward Wiener path, value-shifted so that it vanishes at t_end.

    Values satisfy ``B_rev(t) = B(t) - B(t_end)``; increments over every grid
    interval coincide with the forward ones because the constant shift cancels
    in differences.
    """

    grid: TimeGrid
    dims: int
    increments: np.ndarray
    seed: int
    forward: WienerPath = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "increments", _freeze(self.increments))

    def values(self) -> np.ndarray:
        fwd = cumulative_values(self.forward)
        return fwd - fwd[-1]


def philox_rng(seed: int) -> np.random.Generator:
    """Philox stream keyed by ``seed``, which must lie in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ConfigurationError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def generate_path(seed: int, grid: TimeGrid, dims: int) -> WienerPath:
    """Sample a Wiener path; a pure function of (seed, grid, dims)."""
    if dims < 1:
        raise ConfigurationError(f"dims must be >= 1, got {dims}")
    rng = philox_rng(seed)
    increments = rng.standard_normal((grid.n_steps, dims)) * np.sqrt(grid.dt)
    return WienerPath(grid=grid, dims=dims, increments=increments, seed=seed)


def cumulative_values(path) -> np.ndarray:
    """Path values at all grid points: row k is the sum of increments j < k."""
    inc = np.asarray(path.increments)
    out = np.zeros((inc.shape[0] + 1, inc.shape[1]))
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def reverse_path(path: WienerPath) -> BackwardWienerPath:
    """Backward path B(t) - B(t_end) sharing the forward increments."""
    return BackwardWienerPath(
        grid=path.grid,
        dims=path.dims,
        increments=path.increments,
        seed=path.seed,
        forward=path,
    )


def coarsen_path(path: WienerPath, factor: int) -> WienerPath:
    """Sum groups of `factor` increments onto a coarser grid.

    The coarse path is the restriction of the same Brownian realization to
    every factor-th grid point; used by convergence studies so that all
    resolutions share one noise sample.
    """
    if factor < 1 or path.grid.n_steps % factor != 0:
        raise ConfigurationError(
            f"factor {factor} does not divide n_steps={path.grid.n_steps}"
        )
    coarse_grid = TimeGrid(path.grid.t_start, path.grid.t_end, path.grid.n_steps // factor)
    inc = path.increments.reshape(coarse_grid.n_steps, factor, path.dims).sum(axis=1)
    return WienerPath(grid=coarse_grid, dims=path.dims, increments=inc, seed=path.seed)


def dump_path_csv(path, fileobj) -> None:
    """Write `t, B_1..B_n` rows, one per grid point, at 17 significant digits."""
    values = path.values() if hasattr(path, "values") else cumulative_values(path)
    times = path.grid.times()
    header = "t," + ",".join(f"B_{i + 1}" for i in range(path.dims))
    fileobj.write(header + "\n")
    for t, row in zip(times, values):
        fileobj.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")
