"""Reference systems used by gradient checks and convergence studies."""

from __future__ import annotations

import numpy as np

from .config import DEFAULTS
from .errors import ConfigurationError
from .policy import init_params
from .portfolio import _check_sigma
from .sdecore import Calculus, ControlledSystem
from .sensitivity import CostFunctional

__all__ = [
    "gbm_system",
    "gbm_exact_path",
    "controlled_gbm_system",
    "controlled_gbm_cost",
    "build_grad_check_problem",
    "GRAD_CHECK_SYSTEMS",
]


def _gbm(mu, sigma, n_u) -> ControlledSystem:
    """dx = (mu x + u) dt + (sigma x + c u) dB (Ito) with c = 0.1, and a
    scalar control u for n_u = 1 or none for n_u = 0.  The control enters as
    the sum over its axis, so a zero-width one adds 0.0.  mu must be finite,
    and sigma finite and > 0 with a finite sigma^2 / 2, as a constant
    ``MarketParams`` sigma (ConfigurationError)."""
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not np.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if sigma <= 0:
        raise ConfigurationError("sigma must be > 0")
    _check_sigma("sigma", sigma, f"got {sigma}")
    c = 0.1

    def const(value, shape):
        """A partial that is ``value`` everywhere: shape (..., *shape) over
        the batch axes of x."""
        return lambda t, x, u: np.broadcast_to(np.full(shape, value), x.shape[:-1] + shape)

    return ControlledSystem(
        state_dim=1,
        control_dim=n_u,
        noise_dim=1,
        drift=lambda t, x, u: mu * x + u.sum(axis=-1, keepdims=True),
        diffusion=lambda t, x, u: (sigma * x + c * u.sum(axis=-1, keepdims=True))[..., None],
        drift_dx=const(mu, (1, 1)),
        drift_du=const(1.0, (1, n_u)),
        diffusion_dx=const(sigma, (1, 1, 1)),
        diffusion_du=const(c, (1, 1, n_u)),
        calculus=Calculus.ITO,
        # m = sigma (sigma x + c u) / 2
        milstein_dx=const(0.5 * sigma**2, (1, 1, 1)),
        milstein_du=const(0.5 * sigma * c, (1, 1, n_u)),
    )


def gbm_system(mu=DEFAULTS["mu"], sigma=DEFAULTS["sigma"]) -> ControlledSystem:
    """Uncontrolled geometric Brownian motion dx = mu x dt + sigma x dB (Ito)."""
    return _gbm(mu, sigma, 0)


def controlled_gbm_system(mu=DEFAULTS["mu"], sigma=DEFAULTS["sigma"]) -> ControlledSystem:
    """GBM with a scalar control entering drift and diffusion:
    dx = (mu x + u) dt + (sigma x + c u) dB with c = 0.1."""
    return _gbm(mu, sigma, 1)


def gbm_exact_path(x0, mu, sigma, times, b_values):
    """Closed-form GBM driven by the given Brownian values at `times`."""
    times = np.asarray(times, dtype=float)
    b = np.asarray(b_values, dtype=float)
    return x0 * np.exp((mu - 0.5 * sigma**2) * (times - times[0]) + sigma * b)


def controlled_gbm_cost() -> CostFunctional:
    """Quadratic running cost x^2 + 0.1 u^2 plus linear terminal cost x_T for
    the controlled GBM."""

    def running(t, x, u):
        return x[..., 0] ** 2 + 0.1 * u[..., 0] ** 2

    def running_dx(t, x, u):
        return (2.0 * x[..., 0])[..., None]

    def running_du(t, x, u):
        return (0.2 * u[..., 0])[..., None]

    def terminal(x, u):
        return x[..., 0]

    def terminal_dx(x, u):
        return np.broadcast_to(np.array([1.0]), x.shape)

    return CostFunctional(
        running=running,
        terminal=terminal,
        running_dx=running_dx,
        running_du=running_du,
        terminal_dx=terminal_dx,
    )


def build_grad_check_problem(
    name,
    hidden_dims=DEFAULTS["grad_check_hidden"],
    policy_seed=DEFAULTS["policy_seed"],
    mu=DEFAULTS["mu"],
    sigma=DEFAULTS["sigma"],
    market=None,
):
    """(system, cost, x0, policy) for a registered gradient-check system.

    The GBM starts at x0 = 1.  The portfolio problem uses ``market`` (a
    ``MarketParams``), by default ``MarketParams(nu=0.25)``, and its x0.
    That nu is not a config default: the benchmark's grad-check and
    fd-check workloads build their market here, so it stays fixed.
    """
    if name == "gbm":
        system = controlled_gbm_system(mu=mu, sigma=sigma)
        cost = controlled_gbm_cost()
        x0 = np.array([1.0])
        policy = init_params([1, *hidden_dims, 1], seed=policy_seed)
        return system, cost, x0, policy
    if name == "portfolio":
        from .portfolio import MarketParams, build_cost, build_system

        params = MarketParams(nu=0.25) if market is None else market
        system = build_system(params)
        cost = build_cost(params)
        x0 = np.asarray(params.x0, dtype=float)
        policy = init_params([2, *hidden_dims, 2], seed=policy_seed)
        return system, cost, x0, policy
    raise ConfigurationError(
        f"unknown gradient-check system {name!r}; choose from {sorted(GRAD_CHECK_SYSTEMS)}"
    )


GRAD_CHECK_SYSTEMS = ("gbm", "portfolio")
