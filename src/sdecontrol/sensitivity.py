"""Cost evaluation and path-wise gradients d J / d theta.

Every evaluator steps through ``sdecore._walk``, the one loop over grid steps,
which checks the system, x0 and the path before the first step, and sums the
cost with ``_quadrature`` over the (x_k, u_k) it yields, stored by
``forward_states`` or streamed (the FD oracle).  ``step_control`` is the one
copy of the Euler/Milstein update.  Three estimators differentiate the cost:

* ``forward_sensitivity`` pushes the state-vs-parameter sensitivity matrix
  forward along the stored trajectory through the exact Jacobians of the
  discrete step map (``step_partials``), driven by the same increments.
* ``adjoint_gradient`` runs the transposed recursion backward: the costate
  is pulled through the transposed Jacobians of the same steps and through
  the policy's input Jacobian, and parameter cotangents accumulate through
  the policy's parameter VJPs.  This is the exact discrete adjoint, so the
  gradient of the discretized cost and the discretized gradient coincide.
* ``finite_difference_gradient`` central-differences the discretized cost on
  the same Brownian path, all +-h coordinate perturbations in one batch.

Both exact estimators step one augmented matrix A_k = [M_k | Ju_k], with
the closed-loop step Jacobian M_k = Jx + Ju du/dx, and one augmented cost row
C_k = [c_k | w_k cdu_k], where c_k = w_k (cdx + du/dx^T cdu) is the running
cost's x partial through the control as well (``_closed_loop``).  Nothing
else happens in their per-step loops: forward sensitivity keeps z_k =
[S_k; du/dtheta_k] and runs grad += C_k z_k; S_{k+1} = A_k z_k, and the
adjoint runs [a_k | cu_k] = a_{k+1} A_k + C_k, which gives the costate
a_k = M_k^T a_{k+1} + c_k and the control cotangent cu_k = Ju^T a_{k+1} +
w_k cdu in one product.

Both exact estimators walk the stored trajectory one way, a block of
steps at a time (``_step_blocks``), forward or backward.  The step Jacobians
and the running-cost partials depend only on the stored (t_k, x_k, u_k, dB_k),
not on the sensitivity or the costate, so they are computed for a span of
whole blocks in one call each, with t an array that broadcasts over the lanes;
a span holds at least ``_BLOCK_ROWS`` steps x lanes.  Each block first computes
its policy data at the stored states, at most ``_POLICY_BLOCK_DOUBLES``
doubles of it (at least one step), and from it, batched over the block's
steps x lanes, A_k and C_k; then it runs its steps.  Forward sensitivity
counts n_u x n_theta doubles per step: one ``jacobian_params`` call per block
gives du/dx, and writes du/dtheta straight into the last n_u rows of the
block's z_k, which live in one slab allocated once per call.  The adjoint
counts the stored layer inputs and slopes: one forward pass per block and
one pull of the n_u basis cotangents over its slopes give du/dx at every
step of the block; its steps write [a_k | cu_k] into one block buffer, whose
last n_u columns are the control cotangents of the block's one parameter
VJP (``adjoint_core``).

The walk steps a Stratonovich system in its Ito form (``sdecore._ito_form``),
so every evaluator integrates the Ito-Milstein steps that ``step_partials``
differentiates; ``_forward_pass`` also hands the Ito form to the exact
estimators, whose ``step_partials`` calls need it.

Quadrature convention: all estimators and the evaluators weight the running
cost at grid point k by the same ``_quadrature_weights(cost, grid)[k]``: dt on
steps 0..K-1 (a left-endpoint Riemann sum), or, with point-wise cost times, 1
for each listed time (counted as often as it is listed).  The terminal cost is
evaluated at the last grid point.  ``_quadrature`` calls the running cost
once per block of at most ``_BLOCK_ROWS`` stored steps x lanes (one point
at a time when the FD oracle streams them), with t an array, and adds the
weighted rows in step order, so the cost has the bits of a per-point loop.
The running cost is not evaluated at points of zero weight; its partials
are computed there with the rest of a block, and not used.  A cost callback
that cannot take an array t raises ConfigurationError (``_cost_rows``).
In the backward sweep a point-wise time is a jump of the costate by the
running-cost gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULTS
from .errors import CapacityError, ConfigurationError, DivergenceError
from .sdecore import _ito_form, _walk, forward_states, step_partials
from .wiener import WienerPath

__all__ = [
    "CostFunctional",
    "GradientReport",
    "eval_cost",
    "forward_sensitivity",
    "adjoint_gradient",
    "finite_difference_gradient",
    "gradient_agreement",
    "worst_coordinate",
    "write_gradient_check_csv",
]

_SENS_CAPACITY = 5 * 10**7  # entries allowed in the n_x * n_theta sensitivity matrix
# Steps x lanes of stored points in one quadrature block, and at least in one
# span whose step and running-cost partials share one call.
_BLOCK_ROWS = 1024
# Doubles of policy data in one block of an exact sweep: du/dtheta for
# forward sensitivity (n_u x n_theta a step), the stored layer inputs and
# slopes for the adjoint (2 x sum(layer_dims) a row).  Forward sensitivity's
# slab of the z_k = [S_k; du/dtheta_k], allocated once per call, adds n_x
# rows of n_theta a step and one step.  Not counted: the block's A_k, C_k
# and the adjoint's [a_k | cu_k] ((n_x + 2)(n_x + n_u) doubles a row,
# outweighed by the layer data).
_POLICY_BLOCK_DOUBLES = 2**15
# Gradient magnitude below which a coordinate's relative error is not counted.
_AGREEMENT_FLOOR = 1e-8


@dataclass
class CostFunctional:
    """Running + terminal cost with analytic partials.

    Callbacks broadcast over leading batch axes:
        running(t, x, u) -> (...)            running_dx -> (..., n_x)
        terminal(x_T, u_T) -> (...)          running_du -> (..., n_u)
    ``running``, ``running_dx`` and ``running_du`` receive ``t`` as an array
    of grid times that broadcasts over the batch axes of x (shape (steps,) +
    (1,) * lane axes), a block of steps at a time, and may also be given a
    float, so a time-dependent callback must broadcast over t (e.g.
    ``np.where``, not ``if``); one that cannot take an array t raises
    ConfigurationError.
    ``terminal_du`` may be None when the terminal cost ignores the control.
    ``pointwise_times`` switches the running integral to a finite sum over
    those (on-grid) times; a time listed twice counts twice.
    """

    running: Callable
    terminal: Callable
    running_dx: Callable
    running_du: Callable
    terminal_dx: Callable
    terminal_du: Optional[Callable] = None
    pointwise_times: Optional[Sequence[float]] = None


@dataclass
class GradientReport:
    grad: np.ndarray
    cost_value: float


# -- plumbing ---------------------------------------------------------------


def _one_path_x0(system, x0):
    """x0 of the single-path evaluators as floats, rejected unless it is 1-d;
    a batch of initial states goes through ``adjoint_core`` or
    ``batch_gradient``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        got = "a scalar" if x0.ndim == 0 else f"a batch of shape {x0.shape}"
        raise ConfigurationError(
            f"one path needs an initial state of shape ({system.state_dim},), got {got}"
        )
    return x0


def _require_policy(policy):
    if policy is None:
        raise ConfigurationError("gradient computation requires a parametric policy")


def _quadrature_weights(cost, grid) -> np.ndarray:
    """Weight of the running cost at each of the n_steps + 1 grid points.

    dt on steps 0..n_steps-1 for the running integral; with
    ``cost.pointwise_times``, 1 per listed time (an off-grid time raises
    ConfigurationError).
    """
    weights = np.zeros(grid.n_steps + 1)
    if cost.pointwise_times:
        np.add.at(weights, [grid.index_of(t) for t in cost.pointwise_times], 1.0)
    else:
        weights[:-1] = grid.dt
    return weights


def _block_steps(xs):
    """Steps per block of ``_BLOCK_ROWS`` steps x lanes (at least one step)
    of an array (steps, lanes..., n) of stored points."""
    return max(1, _BLOCK_ROWS // max(1, int(np.prod(xs.shape[1:-1]))))


def _over_lanes(values, xs):
    """Per-step values (grid times, weights) of a block of points xs (steps,
    lanes..., n), shaped (steps,) + (1,) * lane axes so that they broadcast
    over the lanes."""
    return values.reshape(values.shape + (1,) * (xs.ndim - 2))


def _cost_rows(cost, name, t, x, u, shape):
    """``cost.<name>(t, x, u)`` at a block of grid times ``t``, as floats
    broadcast to ``shape``.  A callback that does not take an array t, or
    whose value does not broadcast, raises ConfigurationError."""
    try:
        return np.broadcast_to(np.asarray(getattr(cost, name)(t, x, u), dtype=float), shape)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"cost callback {name} must accept an array of grid times t that broadcasts "
            f"over the batch axes of x, and return values that broadcast to {shape} "
            f"(use np.where, not if/else, for a switch): {exc}"
        ) from exc


def _ranges(n, size, backward=False):
    """The (k0, k1) blocks of ``size`` consecutive indices that cover
    range(n), the last one ragged; last block first when ``backward``."""
    starts = range(0, n, size)
    for k0 in reversed(starts) if backward else starts:
        yield k0, min(k0 + size, n)


def _stored_blocks(states, controls):
    """(xs, us) blocks of ``_block_steps`` consecutive stored grid points."""
    for k0, k1 in _ranges(len(states), _block_steps(states)):
        yield states[k0:k1], controls[k0:k1]


def _quadrature(cost, grid, blocks):
    """Discretized cost over (xs, us) blocks of consecutive grid points, which
    cover k = 0..n_steps with a leading step axis: stored
    (``_stored_blocks``) or streamed one point at a time (``_walk``).

    ``cost.running`` is called once per block, on its points of nonzero
    weight only, with t an array of their grid times (``_over_lanes``).  The
    weighted rows are added to the total one at a time in step order, so the
    sum has the bits of a per-point loop whatever the blocks.  Batch axes
    preserved."""
    weights, times = _quadrature_weights(cost, grid), grid.times()
    total, k0 = 0.0, 0
    for xs, us in blocks:
        k1 = k0 + len(xs)
        keep = np.flatnonzero(weights[k0:k1])
        if keep.size:
            # No copy when every point counts: on the FD oracle's 4548-row
            # one-point blocks the copies raised the peak RSS by 0.4 MB.
            x, u = (xs, us) if keep.size == k1 - k0 else (xs[keep], us[keep])
            t = _over_lanes(times[k0 + keep], x)
            rows = _cost_rows(cost, "running", t, x, u, x.shape[:-1])
            for row in rows * _over_lanes(weights[k0 + keep], x):
                total = total + row
        k0 = k1
    return total + cost.terminal(xs[-1], us[-1])


def _forward_pass(system, policy, cost, x0, increments, grid, check="raise"):
    """(Ito system, quadrature weights, states, controls, cost) of the stored
    trajectory; batch axes are kept, NaN lanes too with check="none"."""
    sys_i = _ito_form(system)
    weights = _quadrature_weights(cost, grid)
    states, controls = forward_states(sys_i, policy, x0, increments, grid, check)
    with np.errstate(all="ignore"):
        value = _quadrature(cost, grid, _stored_blocks(states, controls))
    return sys_i, weights, states, controls, value


def _terminal_partials(cost, grid, weights, states, controls):
    """Partials of the cost at T in (x_T, u_T): the terminal cost plus w_K
    times the running cost at T.  The u_T partial is None when the cost does
    not depend on u_T, so no policy pass is needed at T."""
    xT, uT, tT = states[-1], controls[-1], grid.time(grid.n_steps)
    w = weights[grid.n_steps]
    cx = np.asarray(cost.terminal_dx(xT, uT), dtype=float)
    cu = None if cost.terminal_du is None else np.asarray(cost.terminal_du(xT, uT), dtype=float)
    if w:
        cx = cx + w * np.asarray(cost.running_dx(tT, xT, uT), dtype=float)
        cu = (0.0 if cu is None else cu) + w * np.asarray(cost.running_du(tT, xT, uT), dtype=float)
    return cx, cu


def _step_blocks(sys_i, cost, grid, weights, xs, us, dbs, size, backward=False):
    """Yield (k0, k1, Jx, Ju, cx, cu) for each block of at most ``size`` steps
    k0..k1-1 of the stored trajectory, k = 0..K-1, last block first when
    ``backward``; index j of each array is step k0 + j.  cx and cu are the
    running cost's x and u partials times the quadrature weight w_k, and 0
    at points of zero weight, where the partials are computed but not used.

    These partials depend only on the stored (t_k, x_k, u_k, dB_k), so they
    are computed for a span of whole blocks in one call each, with t an array
    of shape (steps,) + (1,) * lane axes that broadcasts over the lanes, and
    each block gets views of them.  A span holds at least ``_BLOCK_ROWS``
    steps x lanes, rounded up to whole blocks, which bounds its arrays on
    large batches.
    """
    span = size * -(-_block_steps(xs) // size)
    for s0, s1 in _ranges(grid.n_steps, span, backward):
        x, u = xs[s0:s1], us[s0:s1]
        t = _over_lanes(grid.times()[s0:s1], x)
        jx, ju = step_partials(sys_i, t, x, u, grid.dt, dbs[s0:s1])
        w = _over_lanes(weights[s0:s1], x)[..., None]
        cx = np.multiply(
            w, _cost_rows(cost, "running_dx", t, x, u, x.shape), out=np.zeros(x.shape), where=w != 0
        )
        cu = np.multiply(
            w, _cost_rows(cost, "running_du", t, x, u, u.shape), out=np.zeros(u.shape), where=w != 0
        )
        for k0, k1 in _ranges(s1 - s0, size, backward):
            yield s0 + k0, s0 + k1, jx[k0:k1], ju[k0:k1], cx[k0:k1], cu[k0:k1]


def _closed_loop(jx, ju, ux, cx, cu):
    """(A, C) of a block of steps, the one augmented step of both exact
    sweeps: A_k = [M_k | Ju_k], shape (..., n_x, n_x + n_u), with the
    closed-loop step Jacobian M_k = Jx + Ju du/dx, and C_k = [c_k | cu_k],
    shape (..., n_x + n_u), with the cost row c_k = cx + du/dx^T cu, the
    running cost's x partial at step k through the control as well, from the
    weighted running-cost partials cx, cu of ``_step_blocks``.  Forward
    sensitivity steps z = [S; du/dtheta] as S <- A_k z and adds C_k z to the
    gradient; the adjoint steps [a_k | control cotangent] = a_{k+1} A_k + C_k."""
    m = jx + ju @ ux
    c = cx + (cu[..., None, :] @ ux)[..., 0, :]
    return np.concatenate((m, ju), axis=-1), np.concatenate((c, cu), axis=-1)


# -- public cost evaluation -------------------------------------------------


def eval_cost(system, policy, cost, x0, path: WienerPath) -> float:
    """Discretized cost along the trajectory driven by `path`."""
    x0 = _one_path_x0(system, x0)
    *_, value = _forward_pass(system, policy, cost, x0, path.increments, path.grid)
    value = float(value)
    if not np.isfinite(value):
        raise DivergenceError("cost evaluation produced a non-finite value")
    return value


# -- forward sensitivity ----------------------------------------------------


def forward_sensitivity(system, policy, cost, x0, path) -> GradientReport:
    """Gradient via the parameter sensitivity S_k = dx_k/dtheta, pushed
    forward through the closed-loop step Jacobians M_k of the stored
    trajectory.

    The sweep keeps z_j = [S_{k0+j}; du/dtheta_{k0+j}], shape (n_x + n_u,
    n_theta), for the steps of a block, and the S after its last step, in
    one slab allocated once per call.  Each block of ``_step_blocks`` writes
    its du/dtheta straight into the slab's last n_u rows (one
    ``jacobian_params`` call with ``out=``) and computes the augmented
    A_k = [M_k | Ju_k] and C_k = [c_k | w_k cdu_k] (``_closed_loop``).  Each
    step is then grad += C_k z_j (on steps of nonzero weight), which holds
    the control cost's direct term, and S_{k+1} = A_k z_j, written into the
    slab's next first n_x rows: M_k S_k + Ju du/dtheta_k in one product.
    """
    x0 = _one_path_x0(system, x0)
    _require_policy(policy)
    n_x, n_theta = system.state_dim, policy.n_params
    if n_x * n_theta > _SENS_CAPACITY:
        raise CapacityError(
            f"sensitivity matrix would hold {n_x * n_theta} entries "
            f"(limit {_SENS_CAPACITY}); use the adjoint estimator"
        )
    grid = path.grid
    sys_i, weights, states, controls, value = _forward_pass(
        system, policy, cost, x0, path.increments, grid
    )
    K, times = grid.n_steps, grid.times()
    size = max(1, _POLICY_BLOCK_DOUBLES // (policy.n_out * n_theta))
    # The slab of the z_j and the gradient's row live in buffers allocated
    # once per call: with fresh arrays per step or per block, some processes,
    # depending on the state of their heap, faulted in 2900-8600 pages per
    # call on the 1024-step, 2274-parameter check.  z[0, :n_x] = S_0 = 0.
    z = np.zeros((min(size, K) + 1, n_x + policy.n_out, n_theta))
    grad, row = np.zeros(n_theta), np.empty(n_theta)
    blocks = _step_blocks(sys_i, cost, grid, weights, states, controls, path.increments, size)
    for k0, k1, jx, ju, cx, cu in blocks:
        n = k1 - k0
        x = policy.net_input(times[k0:k1], states[k0:k1])
        ux = policy.jacobian_params(x, out=z[:n, n_x:])[0]
        A, C = _closed_loop(jx, ju, ux[..., :n_x], cx, cu)
        for j in range(n):
            if weights[k0 + j]:
                grad += np.dot(C[j], z[j], out=row)
            np.matmul(A[j], z[j], out=z[j + 1, :n_x])
        z[0, :n_x] = z[n, :n_x]  # S at the next block's first step
    S = z[0, :n_x]
    cx, cu = _terminal_partials(cost, grid, weights, states, controls)
    grad += cx @ S
    if cu is not None:
        ux, ut = policy.jacobian_params(policy.net_input(times[K], states[K]))
        grad += cu @ (ux[:, :n_x] @ S + ut)
    return GradientReport(grad=grad, cost_value=float(value))


# -- adjoint ----------------------------------------------------------------


def _add_layers(acc, layers):
    for slot, (gw, gb) in zip(acc, layers):
        slot[0] += gw
        slot[1] += gb


def _linearized_block(policy, times, xs, k0, k1):
    """(x, forward, ux) of the policy at the stored states of steps k0..k1-1:
    their network inputs as rows (steps x lanes, n_in), one
    ``policy.linearize`` of them, and du/dx from one ``pull_basis`` over its
    slopes, shaped (steps,) + lane axes + (n_u, n_x) (the time column
    dropped), so ``ux[j]`` is step k0 + j."""
    x = policy.net_input(_over_lanes(times[k0:k1], xs), xs[k0:k1])
    forward = policy.linearize(x.reshape(-1, policy.n_in))
    ux = policy.pull_basis(forward[1]).reshape(x.shape[:-1] + (policy.n_out, policy.n_in))
    return forward[0][0], forward, ux[..., : xs.shape[-1]]


def adjoint_core(system, policy, cost, x0, increments, grid, keep_lambda=False, check="raise"):
    """Backward-adjoint gradient over stored forward states, summed over the
    valid lanes: ``x0`` is (N, n_x) and ``increments`` (n_steps, N, n_xi), or
    (n_x,) and (n_steps, n_xi) for one path without a lane axis.

    Lanes with a non-finite state or cost are dropped before the backward
    sweep.  A NaN that enters a costate only in the sweep reaches k = 0; the
    sweep is then rerun without those lanes, which would poison the sums.

    The sweep walks ``_step_blocks`` backward, blocks of at most
    ``_POLICY_BLOCK_DOUBLES`` doubles of stored layer inputs and slopes (at
    least one step).  Each block first runs the policy: one
    ``MlpPolicy.linearize`` of its steps x lanes rows and one
    ``MlpPolicy.pull_basis`` over its slopes, which gives du/dx at every
    (step, lane) of the block, shaped (steps, lanes..., n_u, n_x), and from
    it the augmented A_k = [M_k | Ju_k] and C_k = [c_k | w_k cdu_k]
    (``_closed_loop``).  Each step then writes [a_k | cu_k] = a_{k+1} A_k +
    C_k into one block buffer: the costate a_k = M_k^T a_{k+1} + c_k, which
    is Jx^T a + du/dx^T cu_k + w cdx, and the control cotangent cu_k =
    Ju^T a_{k+1} + w cdu, in one product.  After the steps, the buffer's
    last n_u columns go to one ``vjp_params_layers`` on the kept forward,
    which sums each layer's parameter products over the block's rows in one
    gemm, added into one (out, in) accumulator per layer; with
    ``keep_lambda`` the costates are copied from its first n_x columns.  The
    block's forward and sums round differently from a one-step VJP, so
    gradients and costates depend on the block size in the last bits; costs
    and valid masks do not.

    Returns (gradient summed over the valid lanes (n_theta,), costs (N,),
    valid-lane mask (N,), costates of the valid lanes or None); without a
    lane axis the costs and the mask are 0-d.
    """
    _require_policy(policy)
    sys_i, weights, states, controls, value = _forward_pass(
        system, policy, cost, x0, increments, grid, check
    )
    costs = np.asarray(value, dtype=float)
    valid = np.asarray(np.isfinite(costs) & np.all(np.isfinite(states), axis=(0, -1)))
    K, times, n_x = grid.n_steps, grid.times(), states.shape[-1]
    lanes = max(1, int(np.prod(states.shape[1:-1])))
    size = max(1, _POLICY_BLOCK_DOUBLES // (2 * sum(policy.layer_dims) * lanes))

    def sweep(keep):
        # With every lane kept the stored arrays are swept as they are.
        sel = (slice(None),) if keep.all() else (slice(None), keep)
        xs, us, dbs = states[sel], controls[sel], increments[sel]
        acc = [[np.zeros_like(w), np.zeros_like(b)] for w, b in zip(policy.weights, policy.biases)]
        lambdas = np.zeros_like(xs) if keep_lambda else None
        with np.errstate(all="ignore"):
            cx, cu = _terminal_partials(cost, grid, weights, xs, us)
            a = a_T = np.broadcast_to(cx, xs[K].shape)
            if cu is not None:  # the control at T: one VJP through every layer
                pulled, layers = policy.vjp_params_layers(policy.net_input(grid.time(K), xs[K]), cu)
                _add_layers(acc, layers)
                a = a + pulled[..., :n_x]
            a = a[..., None, :]  # a row, so that a @ A_k is [M_k^T a | Ju_k^T a]
            blocks = _step_blocks(sys_i, cost, grid, weights, xs, us, dbs, size, backward=True)
            for k0, k1, jx, ju, cx, cu in blocks:
                x, forward, ux = _linearized_block(policy, times, xs, k0, k1)
                A, C = _closed_loop(jx, ju, ux, cx, cu)
                C = C[..., None, :]
                # [a_k | cu_k] of each step: the costate before the step and
                # the control cotangent Ju^T a_{k+1} + w_k cdu.
                steps = np.empty(C.shape)
                for j in range(k1 - k0 - 1, -1, -1):
                    np.matmul(a, A[j], out=steps[j])
                    steps[j] += C[j]
                    a = steps[j, ..., :n_x]
                if keep_lambda:
                    lambdas[k0:k1] = steps[..., 0, :n_x]
                cot = steps[..., 0, n_x:].reshape(-1, policy.n_out)
                _add_layers(acc, policy.vjp_params_layers(x, cot, forward=forward)[1])
                del x, forward, ux  # freed before the next block is allocated
        a = a[..., 0, :]
        if keep_lambda:  # lambdas[K] is the partial in x_T at fixed u_T
            lambdas[K] = a_T
        return acc, a, lambdas

    acc, a, lambdas = sweep(valid)
    late = ~np.all(np.isfinite(a), axis=-1)
    if late.any():
        valid[valid] = ~late
        acc, _, lambdas = sweep(valid)
    return policy.flatten_layer_grads(acc), costs, valid, lambdas


def adjoint_gradient(system, policy, cost, x0, path, return_adjoint=False):
    """Gradient via the backward costate sweep on the stored trajectory; with
    ``cost.pointwise_times`` the costate evolves cost-free between those times
    and jumps by the running-cost gradient at each of them.  The path is one
    lane of ``adjoint_core``, passed without a lane axis; a non-finite cost
    or costate raises DivergenceError.

    With ``return_adjoint`` it returns (report, lambdas): the costate at every
    grid point, shape (n_steps + 1, n_x), pulled back through the transposed
    Ito step Jacobians of the stored trajectory from lambdas[K] = d(cost at
    T)/dx_T."""
    x0 = _one_path_x0(system, x0)
    grad, value, valid, lambdas = adjoint_core(
        system, policy, cost, x0, path.increments, path.grid, return_adjoint
    )
    if not valid:
        raise DivergenceError("adjoint sweep produced a non-finite cost or costate")
    report = GradientReport(grad=grad, cost_value=float(value))
    return (report, lambdas) if return_adjoint else report


# -- finite differences -----------------------------------------------------


def _perturbation_plan(policy, idx, h_signed):
    """Per-layer scatter plan for single-coordinate parameter perturbations.

    Row r of the batch evaluates the network at theta + h_signed[r] * e_idx[r].
    Because only one coordinate differs per row, each layer is a shared affine
    map plus a rank-zero correction on the perturbed rows.
    """
    idx = np.asarray(idx)
    h_signed = np.asarray(h_signed, dtype=float)
    plan = []
    off = 0
    for w, b in zip(policy.weights, policy.biases):
        fan_in = w.shape[1]
        w_lo, w_hi, b_hi = off, off + w.size, off + w.size + b.size
        sel_w = (idx >= w_lo) & (idx < w_hi)
        sel_b = (idx >= w_hi) & (idx < b_hi)
        rows_w = np.nonzero(sel_w)[0]
        flat = idx[rows_w] - w_lo
        plan.append(
            (
                rows_w,
                flat // fan_in,
                flat % fan_in,
                h_signed[rows_w],
                np.nonzero(sel_b)[0],
                idx[sel_b] - w_hi,
                h_signed[sel_b],
            )
        )
        off = b_hi
    return plan


def _perturbed_eval(policy, plan, a, bufs):
    """Forward pass for the whole perturbation batch, evaluated in place in
    the per-layer ``(rows, width)`` buffers ``bufs``: one shared gemm per
    layer, then corrections on the rows owning that layer, then the
    activation.  Returns the output-layer buffer, which the next call
    overwrites."""
    last = len(policy.weights) - 1
    for k, (w, b, z) in enumerate(zip(policy.weights, policy.biases, bufs)):
        np.matmul(a, w.T, out=z)
        z += b
        rows_w, out_w, in_w, h_w, rows_b, out_b, h_b = plan[k]
        if rows_w.size:
            z[rows_w, out_w] += h_w * a[rows_w, in_w]
        if rows_b.size:
            z[rows_b, out_b] += h_b
        phi = policy.output if k == last else policy.hidden
        a = phi.value(z, out=z)
    return a


def _eval_cost_perturbed(system, policy, cost, x0, increments, grid, idx, h_signed):
    """Discretized cost for a batch of one-coordinate theta perturbations, one
    row each, on the same stored increments: ``_walk`` streams the states into
    ``_quadrature`` and stores none.  The network runs through layer buffers
    allocated once per call; the control is the output buffer, which the
    quadrature and the step are done with before the next pass overwrites it."""
    plan = _perturbation_plan(policy, idx, h_signed)
    bufs = [np.empty((len(idx), w.shape[0])) for w in policy.weights]
    perturbed = SimpleNamespace(
        n_out=policy.n_out,
        control=lambda t, x: _perturbed_eval(policy, plan, policy.net_input(t, x), bufs),
    )
    x = np.tile(np.asarray(x0, dtype=float), (len(idx), 1))
    with np.errstate(all="ignore"):
        points = _walk(system, perturbed, x, increments, grid)
        return _quadrature(cost, grid, ((x[None], u[None]) for x, u in points))


def finite_difference_gradient(
    system, policy, cost, x0, path, h_rel=DEFAULTS["fd_step"]
) -> GradientReport:
    """Central finite differences of the discretized cost over all parameter
    coordinates, every evaluation on the same Wiener path.

    Step per coordinate: h_j = h_rel * max(1, |theta_j|).  The +-h
    perturbations are evaluated as one batch, one row each, through per-layer
    buffers preallocated once per block, so the network layers allocate
    nothing per step.  ``h_rel`` must be finite and at least the float
    epsilon: below it theta_j +- h_j rounds to theta_j when |theta_j| >= 1.
    """
    x0 = _one_path_x0(system, x0)
    _require_policy(policy)
    eps = np.finfo(float).eps
    if not eps <= h_rel < np.inf:
        raise ConfigurationError(
            f"h_rel must be finite and at least the float epsilon {eps:.3g}, got {h_rel}"
        )
    theta0 = policy.get_params()
    n_theta = theta0.size
    h = h_rel * np.maximum(1.0, np.abs(theta0))
    grad = np.zeros(n_theta)
    # Chunked batched evaluation: all +-h perturbations for a block of
    # coordinates are integrated simultaneously.
    block = max(1, int(2e7 // max(n_theta, 1)))
    for start in range(0, n_theta, block):
        idx = np.arange(start, min(start + block, n_theta))
        rows = np.arange(idx.size)
        idx2 = np.repeat(idx, 2)
        h2 = np.repeat(h[idx], 2)
        h2[1::2] *= -1.0
        vals = _eval_cost_perturbed(system, policy, cost, x0, path.increments, path.grid, idx2, h2)
        if not np.all(np.isfinite(vals)):
            raise DivergenceError("divergence during finite-difference evaluation")
        grad[idx] = (vals[2 * rows] - vals[2 * rows + 1]) / (2.0 * h[idx])
    return GradientReport(grad=grad, cost_value=eval_cost(system, policy, cost, x0, path))


# -- comparison helpers -----------------------------------------------------


def _coordinate_errors(a, b):
    """Per-coordinate relative error |a_j - b_j| / max(|a_j|, |b_j|,
    ``_AGREEMENT_FLOOR``), and the mask of the coordinates that count: those
    whose magnitude max(|a_j|, |b_j|) exceeds the floor, or is NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mags = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) / np.maximum(mags, _AGREEMENT_FLOOR), ~(mags <= _AGREEMENT_FLOOR)


def gradient_agreement(a, b):
    """(cosine similarity, max coordinate-relative error) between gradients.

    The relative error is the largest ``_coordinate_errors`` over the
    coordinates that count (magnitude above ``_AGREEMENT_FLOOR``); a NaN
    coordinate makes both values NaN.  The cosine with a zero vector is 1.0
    when both vectors are zero and 0.0 when only one is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    # na * nb is NaN with a NaN coordinate; a zero vector is parallel only to another one.
    cosine = float(a @ b / (na * nb)) if na * nb else float(na == nb)
    rel, counted = _coordinate_errors(a, b)
    max_rel = float(np.max(rel[counted])) if counted.any() else 0.0
    return cosine, max_rel


def worst_coordinate(a, b):
    """Index of the largest relative error among the coordinates that
    ``gradient_agreement`` counts (a NaN first), or None when none counts."""
    rel, counted = _coordinate_errors(a, b)
    return int(np.argmax(np.where(counted, rel, -1.0))) if counted.any() else None


def write_gradient_check_csv(fd_report, forward_report, adjoint_report, fileobj):
    """Per-coordinate estimator comparison table; the relative errors are
    ``_coordinate_errors``, over every coordinate."""
    fd, fw, ad = fd_report.grad, forward_report.grad, adjoint_report.grad
    rel_fa, _ = _coordinate_errors(fw, ad)
    rel_fd, _ = _coordinate_errors(ad, fd)
    fileobj.write("coord_index,fd,forward,adjoint,rel_err_fa,rel_err_fd\n")
    for row in zip(range(fd.size), fd, fw, ad, rel_fa, rel_fd):
        fileobj.write(",".join(f"{v:.17g}" for v in row) + "\n")
