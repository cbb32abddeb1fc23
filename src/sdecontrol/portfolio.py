"""Finite-horizon portfolio optimization with proportional transaction costs.

Two-asset market: a stock S driven by geometric Brownian motion and a
riskless account V.  The control u = (u_i, u_d) gives the instantaneous
purchase and sale rates of stock; sales are charged a proportional cost
alpha.  The objective (maximized) rewards growth and penalizes large stock
positions through a running term nu * sigma * S^2.  Solvency, a non-negative
gap V + (1 - alpha) S, is a soft constraint: with nu = 0 through a
logarithmic barrier on the gap, with nu > 0 through a finite softplus penalty
on its negative part.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .config import DEFAULTS
from .errors import ConfigurationError, DivergenceError
from .optim import TrainConfig, evaluation_seed, path_seed, train
from .policy import MlpPolicy, init_params, save_policy
from .sdecore import (
    Calculus,
    ControlledSystem,
    _constant,
    _write_csv,
    dump_trajectory_csv,
    integrate,
)
from .sensitivity import CostFunctional, _quadrature, _stored_blocks
from .wiener import TimeGrid, _check_integer, generate_path, philox_rng

__all__ = [
    "MarketParams",
    "build_system",
    "build_cost",
    "policy_grid",
    "write_policy_grid_csv",
    "solvency_gap",
    "evaluate_policy",
    "run_experiment",
]

# Lattice points a policy grid may hold: resolution 2048, 128 MB of rows.
_MAX_GRID_POINTS = 2**22


def _check_real(name: str, value) -> None:
    """``value`` must be a finite real number and not a bool
    (ConfigurationError naming ``name``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def _check_sigma(sigma) -> None:
    """sigma must be a finite real number > 0 whose Milstein coefficient
    sigma^2 / 2 is finite (ConfigurationError).  The coefficient is formed
    with overflow warnings off, so a sigma near the float limit is reported
    here and not as a warning."""
    _check_real("sigma", sigma)
    if sigma <= 0:
        raise ConfigurationError("sigma must be > 0")
    with np.errstate(over="ignore"):
        half_square = 0.5 * np.square(float(sigma))
    if not np.isfinite(half_square):
        raise ConfigurationError(f"sigma must have a finite sigma^2 / 2, got {sigma}")


@dataclass
class MarketParams:
    """Market and objective constants of the constant-coefficient market.

    Every field but ``x0`` is a finite real number, and ``x0`` is the pair
    (S0, V0) of finite real numbers; anything else raises ConfigurationError
    naming the field.
    """

    alpha: float = DEFAULTS["alpha"]
    r: float = DEFAULTS["r"]
    mu: float = DEFAULTS["mu"]
    sigma: float = DEFAULTS["sigma"]
    nu: float = 0.0
    barrier_weight: float = DEFAULTS["barrier_weight"]
    horizon: float = DEFAULTS["horizon"]
    x0: Tuple[float, float] = (DEFAULTS["s0"], DEFAULTS["v0"])

    def __post_init__(self):
        for name in ("alpha", "r", "mu", "nu", "barrier_weight", "horizon"):
            _check_real(name, getattr(self, name))
        _check_sigma(self.sigma)
        try:
            s0, v0 = self.x0
        except (TypeError, ValueError):
            raise ConfigurationError(f"x0 must be two numbers (S0, V0), got {self.x0!r}") from None
        for value in (s0, v0):
            _check_real("x0", value)
        if self.alpha < 0:
            raise ConfigurationError("alpha must be >= 0")
        if self.nu < 0:
            raise ConfigurationError("nu must be >= 0")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be > 0")
        if self.barrier_weight < 0:
            raise ConfigurationError("barrier_weight must be >= 0")


def solvency_gap(states: np.ndarray, alpha: float) -> np.ndarray:
    """V + (1 - alpha) S for states of shape (..., 2) with columns (S, V)."""
    return states[..., 1] + (1.0 - alpha) * states[..., 0]


def build_system(params: MarketParams) -> ControlledSystem:
    """Ito system for (S, V) with purchase/sale rates u = (u_i, u_d):

        dS = (mu S + u_i - u_d) dt + sigma S dB
        dV = (r V - u_i + (1 - alpha) u_d) dt
    """
    alpha, r, mu, sigma = params.alpha, params.r, params.mu, params.sigma

    # [()] makes a column of one row a scalar, not a 0-d array, on which
    # every ufunc costs about 0.5 us more; on more rows it is the column.
    def drift(t, x, u):
        s, v = x[..., 0][()], x[..., 1][()]
        ui, ud = u[..., 0][()], u[..., 1][()]
        ds = mu * s + ui - ud
        out = np.empty(np.shape(ds) + (2,))
        out[..., 0] = ds
        out[..., 1] = r * v - ui + (1.0 - alpha) * ud
        return out

    def diffusion(t, x, u):
        g = np.zeros(x.shape[:-1] + (2, 1))
        g[..., 0, 0] = sigma * x[..., 0][()]
        return g

    return ControlledSystem(
        state_dim=2,
        control_dim=2,
        noise_dim=1,
        drift=drift,
        diffusion=diffusion,
        drift_dx=_constant([[mu, 0.0], [0.0, r]]),
        drift_du=_constant([[1.0, -1.0], [-1.0, 1.0 - alpha]]),
        diffusion_dx=_constant([[[sigma, 0.0], [0.0, 0.0]]]),
        diffusion_du=_constant(np.zeros((1, 2, 2))),
        calculus=Calculus.ITO,
        # m = (sigma^2 S / 2, 0); only dm_S/dS is nonzero
        milstein_dx=_constant([[[0.5 * sigma**2, 0.0], [0.0, 0.0]]]),
        milstein_du=_constant(np.zeros((1, 2, 2))),
    )


def build_cost(params: MarketParams) -> CostFunctional:
    """Objective (to be maximized): running reward r V + mu S - nu sigma S^2
    plus terminal reward r V_T + mu S_T, with a solvency term keyed on
    beta = barrier_weight and the gap G = V + (1-alpha) S added to the
    running reward.

    With nu = 0 the term is the log barrier beta * log(G); a non-positive
    barrier argument yields NaN, which the integrators surface as path
    divergence.

    With nu > 0 it is the penalty -beta * eps * softplus(-G / eps), smooth and
    finite on both sides of the line.  Its width eps = sigma * G_0 is the
    one-year standard deviation of the gap if all of the solvent starting
    wealth G_0 were held in stock.  Well above the line the term vanishes
    exponentially; well below it the term approaches beta * G.  A non-positive or
    non-finite eps (an insolvent start) raises ConfigurationError unless
    beta = 0.
    """
    alpha, r, mu, sigma = params.alpha, params.r, params.mu, params.sigma
    beta, nu = params.barrier_weight, params.nu
    barrier = nu == 0.0 and beta != 0.0
    penalty = nu > 0.0 and beta != 0.0
    if penalty:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            eps = float(sigma * solvency_gap(np.asarray(params.x0, dtype=float), alpha))
        if not (np.isfinite(eps) and eps > 0.0):
            raise ConfigurationError(
                f"solvency penalty width sigma * (V0 + (1-alpha) S0) = {eps:g} must be "
                "positive and finite for nu > 0; use a solvent start, or barrier_weight = 0"
            )

    def _log_gap(x):
        gap = solvency_gap(x, alpha)
        with np.errstate(all="ignore"):
            return np.where(gap > 0, np.log(np.where(gap > 0, gap, 1.0)), np.nan)

    def running(t, x, u):
        s, v = x[..., 0], x[..., 1]
        out = r * v + mu * s - nu * sigma * s**2
        if barrier:
            out = out + beta * _log_gap(x)
        if penalty:
            out = out - beta * eps * np.logaddexp(0.0, -solvency_gap(x, alpha) / eps)
        return out

    def running_dx(t, x, u):
        s = x[..., 0]
        grad = np.zeros(x.shape[:-1] + (2,))
        grad[..., 0] = mu - 2.0 * nu * sigma * s
        grad[..., 1] = r
        if barrier:
            gap = solvency_gap(x, alpha)
            with np.errstate(all="ignore"):
                inv = np.where(gap > 0, beta / np.where(gap > 0, gap, 1.0), np.nan)
            grad[..., 0] += (1.0 - alpha) * inv
            grad[..., 1] += inv
        if penalty:
            # beta * sigmoid(-G / eps), written to stay finite for any G
            slope = beta * np.exp(-np.logaddexp(0.0, solvency_gap(x, alpha) / eps))
            grad[..., 0] += (1.0 - alpha) * slope
            grad[..., 1] += slope
        return grad

    def running_du(t, x, u):
        return np.zeros(u.shape[:-1] + (2,))

    def terminal(x, u):
        return r * x[..., 1] + mu * x[..., 0]

    def terminal_dx(x, u):
        grad = np.zeros(x.shape[:-1] + (2,))
        grad[..., 0] = mu
        grad[..., 1] = r
        return grad

    return CostFunctional(
        running=running,
        terminal=terminal,
        running_dx=running_dx,
        running_du=running_du,
        terminal_dx=terminal_dx,
    )


def policy_grid(policy: MlpPolicy, s_range, v_range, resolution: int) -> np.ndarray:
    """Evaluate the policy on a lattice; rows are (S, V, u_i, u_d).

    The lattice is row-major over (S, V) with `resolution` points per axis.
    Points are evaluated one at a time so rows match direct eval calls
    bit-for-bit.
    """
    _check_policy_grid(s_range, v_range, resolution)
    s_lo, s_hi = map(float, s_range)
    v_lo, v_hi = map(float, v_range)
    s_vals = np.linspace(s_lo, s_hi, resolution)
    v_vals = np.linspace(v_lo, v_hi, resolution)
    rows = np.zeros((resolution * resolution, 2 + policy.n_out))
    idx = 0
    for s in s_vals:
        for v in v_vals:
            u = policy.control(0.0, np.array([s, v]))
            rows[idx, 0] = s
            rows[idx, 1] = v
            rows[idx, 2:] = u
            idx += 1
    return rows


def write_policy_grid_csv(rows: np.ndarray, fileobj) -> None:
    _write_csv(fileobj, ["S", "V", "u_i", "u_d"], rows)


@dataclass
class PolicyStats:
    """Monte Carlo summary of a policy over evaluation paths."""

    mean_terminal_stock: float
    mean_terminal_bank: float
    mean_objective: float  # over the paths whose objective is finite
    mean_stock_penalty: float
    solvency_crossing_fraction: float
    n_paths: int


def _check_evaluation_sizes(n_paths, keep_trajectories):
    _check_integer("the number of evaluation paths", n_paths)
    _check_integer("the number of kept trajectories", keep_trajectories)
    if n_paths < 1:
        raise ConfigurationError(f"evaluation needs at least one path, got {n_paths}")
    if keep_trajectories < 0:
        raise ConfigurationError(
            f"number of kept trajectories must be >= 0, got {keep_trajectories}"
        )
    if keep_trajectories > n_paths:
        raise ConfigurationError(
            f"cannot keep {keep_trajectories} trajectories of {n_paths} evaluation paths"
        )


def _check_policy_grid(s_range, v_range, resolution):
    _check_integer("resolution", resolution)
    if resolution < 2:
        raise ConfigurationError("resolution must be >= 2")
    if resolution * resolution > _MAX_GRID_POINTS:
        raise ConfigurationError(f"resolution {resolution} makes over {_MAX_GRID_POINTS} lattice points")
    if not np.isfinite([*map(float, s_range), *map(float, v_range)]).all():
        raise ConfigurationError("grid ranges must be finite")


def evaluate_policy(
    params: MarketParams,
    policy: Optional[MlpPolicy],
    grid: TimeGrid,
    n_paths: int,
    seed_base: int = DEFAULTS["base_seed"],
    keep_trajectories: int = 0,
) -> Tuple[PolicyStats, List]:
    """Simulate fresh evaluation paths and report portfolio statistics.

    Seeds come from the evaluation stream, disjoint from all training seeds.
    The objective is the training quadrature of the cost, and its mean is
    taken over the paths where it is finite: at nu = 0 a path whose gap
    crosses the solvency line before T has a NaN log barrier, and
    ``solvency_crossing_fraction`` counts it.  The mean is NaN only when no
    path's objective is finite.  The stock penalty
    is the left-endpoint quadrature of sigma S^2 (without the nu weight, so
    policies trained at different nu are comparable).  The summaries are
    computed with floating-point warnings off, so one that overflows on
    finite states is reported as computed (inf or NaN).  A diverged path
    raises DivergenceError naming its evaluation seed and step.
    """
    _check_evaluation_sizes(n_paths, keep_trajectories)
    _check_integer("seed_base", seed_base)
    system = build_system(params)
    cost = build_cost(params)
    x0 = np.asarray(params.x0, dtype=float)
    trajs = []
    for i in range(n_paths):
        seed = evaluation_seed(seed_base, i)
        try:
            trajs.append(integrate(system, policy, x0, generate_path(seed, grid, 1)))
        except DivergenceError as exc:
            raise DivergenceError(
                f"evaluation path {i} (seed {seed}) diverged at step {exc.step_index}",
                step_index=exc.step_index,
            ) from exc
    states = np.stack([traj.states for traj in trajs])  # (n_paths, n_steps + 1, 2)
    controls = np.stack([traj.controls for traj in trajs])
    blocks = _stored_blocks(states.swapaxes(0, 1), controls.swapaxes(0, 1))
    with np.errstate(all="ignore"):
        objective = _quadrature(cost, grid, blocks)
        penalty = np.sum(params.sigma * states[:, :-1, 0] ** 2, axis=-1) * grid.dt
        crossed = np.any(solvency_gap(states, params.alpha) < 0, axis=-1)
        finite = objective[np.isfinite(objective)]
        stats = PolicyStats(
            mean_terminal_stock=float(np.mean(states[:, -1, 0])),
            mean_terminal_bank=float(np.mean(states[:, -1, 1])),
            mean_objective=float(np.mean(finite)) if finite.size else float("nan"),
            mean_stock_penalty=float(np.mean(penalty)),
            solvency_crossing_fraction=float(np.mean(crossed)),
            n_paths=n_paths,
        )
    return stats, trajs[:keep_trajectories]


@dataclass
class ExperimentResult:
    """Per-nu artifacts of one experiment run."""

    nu: float
    policy: MlpPolicy
    log: object
    stats: PolicyStats
    files: List[str] = field(default_factory=list)


def run_experiment(
    params: MarketParams,
    train_config: TrainConfig,
    *,
    nu_values,
    hidden_dims,
    eval_paths: int,
    trajectory_dumps: int,
    grid_resolution: int,
    out_dir: str = ".",
    policy_seed: int = DEFAULTS["policy_seed"],
    grid_s_range=(DEFAULTS["grid_s_min"], DEFAULTS["grid_s_max"]),
    grid_v_range=(DEFAULTS["grid_v_min"], DEFAULTS["grid_v_max"]),
):
    """Train one policy per nu, evaluate it on fresh paths, export artifacts.

    Per nu the output directory receives trainlog_nu<nu>.csv, checkpoint
    policy_nu<nu>.txt, traj_nu<nu>_seed<k>.csv and policygrid_nu<nu>.csv,
    and, when ``train_config.checkpoint_every`` > 0, the training checkpoints
    in checkpoints_nu<nu>/ (in place of any ``checkpoint_dir`` the config
    names), which ``train`` makes.  <nu> is the tag ``f"{nu:g}"``.  Returns
    {nu: ExperimentResult}.  The nu list, evaluation sizes, the policy grid
    and the largest derived path seeds are checked before anything is
    trained or written, and so is that no two nu share a tag, as the second
    would overwrite the first's files.
    """
    if len(nu_values) == 0:
        raise ConfigurationError("nu needs at least one risk weight")
    markets = [replace(params, nu=float(nu)) for nu in nu_values]  # MarketParams checks each nu
    tagged = {}
    for nu in nu_values:
        tag = f"{nu:g}"
        if tag in tagged:
            raise ConfigurationError(
                f"nu values {tagged[tag]} and {nu} share the file tag {tag}; "
                "their artifacts would overwrite each other"
            )
        tagged[tag] = nu
    _check_evaluation_sizes(eval_paths, trajectory_dumps)
    _check_policy_grid(grid_s_range, grid_v_range, grid_resolution)
    # philox_rng raises ConfigurationError for a seed outside the Philox key range.
    base, last = train_config.base_seed, train_config.iterations - 1
    philox_rng(path_seed(base, last, train_config.batch_size - 1))
    philox_rng(evaluation_seed(base, eval_paths - 1))
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    for tag, nu, p in zip(tagged, nu_values, markets):
        system = build_system(p)
        cost = build_cost(p)
        policy = init_params([2, *hidden_dims, 2], seed=policy_seed)
        config = train_config
        if config.checkpoint_every:
            # One directory per nu, so one nu's checkpoints do not overwrite another's.
            config = replace(config, checkpoint_dir=os.path.join(out_dir, f"checkpoints_nu{tag}"))
        policy, log = train(system, policy, cost, np.asarray(p.x0, dtype=float), config)
        files = []

        path = os.path.join(out_dir, f"trainlog_nu{tag}.csv")
        with open(path, "w") as fh:
            log.to_csv(fh)
        files.append(path)

        path = os.path.join(out_dir, f"policy_nu{tag}.txt")
        save_policy(policy, path)
        files.append(path)

        stats, kept = evaluate_policy(
            p,
            policy,
            train_config.grid,
            eval_paths,
            seed_base=train_config.base_seed,
            keep_trajectories=trajectory_dumps,
        )
        for k, traj in enumerate(kept):
            path = os.path.join(out_dir, f"traj_nu{tag}_seed{k}.csv")
            with open(path, "w") as fh:
                dump_trajectory_csv(traj, fh, ["S", "V"], ["u_i", "u_d"])
            files.append(path)

        rows = policy_grid(policy, grid_s_range, grid_v_range, grid_resolution)
        path = os.path.join(out_dir, f"policygrid_nu{tag}.csv")
        with open(path, "w") as fh:
            write_policy_grid_csv(rows, fh)
        files.append(path)

        results[nu] = ExperimentResult(
            nu=float(nu), policy=policy, log=log, stats=stats, files=files
        )
    return results
