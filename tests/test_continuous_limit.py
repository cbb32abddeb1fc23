"""The exact gradient of the discretized cost tends to the pathwise derivative
of the continuous SDE as the step shrinks.

All three estimators differentiate the same discrete step, so their agreement
says nothing about this limit.  Here the system is geometric Brownian motion
with a feedback growth rate,

    dX = u X dt + sigma X dB,    u = w X + b,

at w = 0 with cost X_T.  With Phi_t = exp((b - sigma^2 / 2) t + sigma B_t)
the pathwise derivatives are closed-form:

    dX_T / db = T X_T,    dX_T / dw = x0^2 Phi_T int_0^T Phi_s ds.

The discrete adjoint runs on K = 2^3..2^8 steps, every level summed from the
same 2^14-step Brownian path per seed (``studies._level_increments``), whose
fine points also give the integral.  Milstein's strong order 1 carries over to
the gradient, so the fitted order of the error is held to the band that
acceptance 2 uses for Milstein's state error: 1.0 +- 0.15.

The MLP-controlled gradient-check problems have no closed form, so there the
reference is the adjoint gradient on the 2^10-step path itself.  That checks
the rate, not the limit: a scheme that converges to the wrong SDE converges to
its own reference.  At their sigma = 0.18 the gradient's O(dt) error is far
above its strong-order terms up to 2^7 steps, so a step without the Milstein
term still reads order 1 there; the closed-form case above sees that.
"""

import numpy as np
import pytest

from sdecontrol.benchmarks import build_grad_check_problem
from sdecontrol.policy import MlpPolicy
from sdecontrol.sdecore import Calculus, ControlledSystem
from sdecontrol.sensitivity import CostFunctional, adjoint_gradient
from sdecontrol.studies import _level_increments, fit_order
from sdecontrol.wiener import TimeGrid, WienerPath, generate_path

SIGMA, B, X0, T = 0.5, 0.3, 1.0, 1.0
FINE_EXP, LEVEL_EXPS, N_PATHS = 14, range(3, 9), 16
REF_EXP, MLP_LEVEL_EXPS = 10, range(3, 8)


def feedback_gbm():
    """dX = u X dt + SIGMA X dB, Ito, with its analytic partials."""

    def full(t, x, u, value):
        return np.broadcast_to(value, np.broadcast_shapes(np.shape(x), np.shape(u))[:-1] + (1, 1))

    return ControlledSystem(
        state_dim=1,
        control_dim=1,
        noise_dim=1,
        drift=lambda t, x, u: u * x,
        diffusion=lambda t, x, u: SIGMA * x[..., None],
        drift_dx=lambda t, x, u: (u * np.ones_like(x))[..., None],
        drift_du=lambda t, x, u: (x * np.ones_like(u))[..., None],
        diffusion_dx=lambda t, x, u: full(t, x, u, SIGMA)[..., None, :, :],
        diffusion_du=lambda t, x, u: full(t, x, u, 0.0)[..., None, :, :],
        calculus=Calculus.ITO,
        milstein_dx=lambda t, x, u: full(t, x, u, 0.5 * SIGMA**2)[..., None, :, :],
        milstein_du=lambda t, x, u: full(t, x, u, 0.0)[..., None, :, :],
    )


def terminal_state_cost():
    zero = lambda t, x, u: np.zeros(np.shape(x)[:-1])  # noqa: E731
    return CostFunctional(
        running=zero,
        terminal=lambda x, u: x[..., 0],
        running_dx=lambda t, x, u: np.zeros(np.shape(x)),
        running_du=lambda t, x, u: np.zeros(np.shape(u)),
        terminal_dx=lambda x, u: np.ones(np.shape(x)),
    )


def closed_form_gradient(fine, increments):
    """(dX_T/dw, dX_T/db) at w = 0 on one fine path; the integral of Phi is
    the trapezoid rule over the fine grid points."""
    b_t = np.concatenate([[0.0], np.cumsum(increments)])
    phi = np.exp((B - 0.5 * SIGMA**2) * fine.times() + SIGMA * b_t)
    integral = fine.dt * (phi.sum() - 0.5 * (phi[0] + phi[-1]))
    return np.array([X0**2 * phi[-1] * integral, T * X0 * phi[-1]])


def test_adjoint_gradient_converges_to_the_pathwise_derivative_at_order_one():
    system, cost = feedback_gbm(), terminal_state_cost()
    policy = MlpPolicy([np.array([[0.0]])], [np.array([B])], output_activation="identity")
    fine = TimeGrid(0.0, T, 2**FINE_EXP)
    fine_paths = np.stack([generate_path(seed, fine, 1).increments for seed in range(N_PATHS)])
    exact = [closed_form_gradient(fine, inc[:, 0]) for inc in fine_paths]
    medians = []
    for exp in LEVEL_EXPS:
        grid, increments = _level_increments(fine, fine_paths, 2 ** (FINE_EXP - exp))
        errors = []
        for p in range(N_PATHS):
            path = WienerPath(grid=grid, dims=1, increments=increments[:, p], seed=p)
            grad = adjoint_gradient(system, policy, cost, np.array([X0]), path).grad
            errors.append(np.max(np.abs(grad - exact[p]) / np.abs(exact[p])))
        medians.append(np.median(errors))
    order = fit_order([2**e for e in LEVEL_EXPS], medians)
    assert abs(order - 1.0) <= 0.15, (order, medians)


@pytest.mark.parametrize("name", ["gbm", "portfolio"])
def test_mlp_adjoint_gradient_converges_to_its_fine_path_value_at_order_one(name):
    system, cost, x0, policy = build_grad_check_problem(name)
    fine = TimeGrid(0.0, T, 2**REF_EXP)
    fine_paths = np.stack([generate_path(seed, fine, 1).increments for seed in range(N_PATHS)])

    def gradient(grid, increments, p):
        path = WienerPath(grid=grid, dims=1, increments=increments, seed=p)
        return adjoint_gradient(system, policy, cost, x0, path).grad

    refs = [gradient(fine, inc, p) for p, inc in enumerate(fine_paths)]
    medians = []
    for exp in MLP_LEVEL_EXPS:
        grid, increments = _level_increments(fine, fine_paths, 2 ** (REF_EXP - exp))
        errors = [
            np.max(np.abs(gradient(grid, increments[:, p], p) - ref)) / np.max(np.abs(ref))
            for p, ref in enumerate(refs)
        ]
        medians.append(np.median(errors))
    order = fit_order([2**e for e in MLP_LEVEL_EXPS], medians)
    assert abs(order - 1.0) <= 0.15, (order, medians)
