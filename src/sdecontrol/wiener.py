"""Reproducible discretized Wiener process paths on fixed uniform time grids.

Sampling uses numpy's Philox counter-based bit generator keyed directly by the
integer seed, with Gaussian variates drawn through ``standard_normal``.  The
same seed therefore yields the same path on every platform running the same
numpy release.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "WienerPath",
    "philox_rng",
    "generate_path",
]

# Increments one grid may have, and that a study may allocate over all its
# paths: 2^24 doubles, 128 MB.
_MAX_FINE_INCREMENTS = 2**24


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into n_steps intervals.

    Grid points are always derived by index multiplication
    (``t_start + k * dt``), never by accumulation, so forward and backward
    sweeps see bit-identical times.  ``n_steps`` lies in [1,
    ``_MAX_FINE_INCREMENTS``], so one path's increments fit in 128 MB.
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not 1 <= self.n_steps <= _MAX_FINE_INCREMENTS:
            raise ConfigurationError(
                f"n_steps must lie in [1, {_MAX_FINE_INCREMENTS}], got {self.n_steps}"
            )
        for name in ("t_start", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
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

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to t within 1e-9 * max(1, |t|);
        raises if t is off-grid."""
        k = int(round((t - self.t_start) / self.dt))
        if k < 0 or k > self.n_steps or abs(self.time(k) - t) > 1e-9 * max(1.0, abs(t)):
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
