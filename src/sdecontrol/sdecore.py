"""Controlled SDE systems and their forward/backward numerical integration.

Shape conventions (all callbacks must broadcast over leading batch axes; t is
a float, or an array that broadcasts over the batch axes, see
``ControlledSystem``):

    x                     (..., n_x)
    u                     (..., n_u)
    drift(t, x, u)        (..., n_x)
    diffusion(t, x, u)    (..., n_x, n_xi)
    drift_dx(t, x, u)     (..., n_x, n_x)      rows = output, cols = input
    drift_du(t, x, u)     (..., n_x, n_u)
    diffusion_dx(t, x, u) (..., n_xi, n_x, n_x)  [i] = Jacobian of noise column i
    diffusion_du(t, x, u) (..., n_xi, n_x, n_u)
    milstein_dx(t, x, u)  (..., n_xi, n_x, n_x)  [i] = Jacobian of Milstein term i
    milstein_du(t, x, u)  (..., n_xi, n_x, n_u)

Calculus conversion follows the identity that a Stratonovich integral equals
the Ito integral plus half the sum over noise channels of (dg_i/dx) g_i
integrated in time; equivalently the Ito drift minus that correction is the
Stratonovich drift.  The per-channel correction m_i = (1/2) (dg_i/dx) g_i is
also the Milstein term, and every system supplies its analytic partials
(``milstein_dx`` / ``milstein_du``): the exact gradient estimators
differentiate the step the integrators take, with no finite differences.

The step is Ito-Milstein, the one step the gradient estimators
differentiate: a Stratonovich system steps in its Ito form (``_ito_form``),
converted once per walk, and the inverse flow takes the same step with -dt
over the reversed increments.  One switch, ``euler=True``, drops the
correction and takes an Euler-Maruyama step instead (for systems specified
in Ito form only); the strong-convergence study sets it.  ``_walk``, the one
loop over grid steps, checks its inputs before the first step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DivergenceError, UnsupportedSchemeError
from .wiener import TimeGrid, WienerPath

__all__ = [
    "Calculus",
    "ControlledSystem",
    "Trajectory",
    "integrate",
    "convert_calculus",
    "milstein_terms",
    "dump_trajectory_csv",
]


class Calculus(Enum):
    ITO = "ito"
    STRATONOVICH = "stratonovich"


@dataclass
class ControlledSystem:
    """Drift/diffusion callbacks with analytic first partials.

    ``milstein_dx`` / ``milstein_du`` are the analytic partials of the
    per-channel Milstein term m_i = (1/2)(dg_i/dx) g_i, so they involve second
    derivatives of g.  Every system supplies them: one without them fails at
    construction with TypeError.

    ``commutative_noise`` declares that multi-channel noise is diagonal or
    commutative, which is what the diagonal Milstein correction assumes.

    Every callback takes (t, x, u).  Integration passes a float t; the exact
    gradient estimators pass the partials (``drift_dx`` ... ``milstein_du``)
    an array of grid times, shape (steps,) + (1,) * lane axes, that broadcasts
    over the batch axes of x, so a time-dependent callback must broadcast over
    t as well (e.g. ``np.where``, not ``if``).
    """

    state_dim: int
    control_dim: int
    noise_dim: int
    drift: Callable
    diffusion: Callable
    drift_dx: Callable
    drift_du: Callable
    diffusion_dx: Callable
    diffusion_du: Callable
    calculus: Calculus
    milstein_dx: Callable
    milstein_du: Callable
    commutative_noise: bool = False


@dataclass
class Trajectory:
    """States and controls recorded at every grid point."""

    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, ..., n_x)
    controls: np.ndarray  # (n_steps + 1, ..., n_u)


def _constant(value) -> Callable:
    """A partial that is ``value`` everywhere: shape x.shape[:-1] +
    value.shape over the batch axes of x.  Each call fills a fresh array, so
    a caller may write into it; a broadcast view would be read-only and
    costs several times more per call."""
    value = np.asarray(value, dtype=float)

    def partial(t, x, u):
        out = np.empty(x.shape[:-1] + value.shape)
        out[...] = value
        return out

    return partial


def _milstein_product(system, t, x, u, g) -> np.ndarray:
    """m_i = (1/2)(dg_i/dx) g_i from the diffusion value g already at (t, x, u)."""
    gdx = system.diffusion_dx(t, x, u)
    return 0.5 * np.einsum("...iab,...bi->...ia", gdx, g)


def milstein_terms(system: ControlledSystem, t, x, u) -> np.ndarray:
    """Per-channel Milstein term m_i = (1/2)(dg_i/dx) g_i, shape (..., n_xi, n_x)."""
    return _milstein_product(system, t, x, u, system.diffusion(t, x, u))


def _check_scheme(system, euler):
    if euler and system.calculus is not Calculus.ITO:
        raise ConfigurationError(
            "Euler-Maruyama integrates Ito systems only; convert the Stratonovich system first"
        )
    if not euler and system.noise_dim > 1 and not system.commutative_noise:
        raise UnsupportedSchemeError(
            "Milstein schemes support scalar or diagonal/commutative noise only; "
            "declare commutative_noise=True or use Euler-Maruyama"
        )


def step_control(system, t, x, u, dt, dB, euler=False):
    """One Ito-Milstein step of the Ito-form ``system``, or an Euler-Maruyama
    step with ``euler=True``, with the control already evaluated at x.

    ``_walk`` converts a Stratonovich system to its Ito form and checks the
    system against the step before the first one.

    With one noise channel the sums over channels have one term, so the
    noise term is the product g[..., 0] dB and the Milstein term m[..., 0, :]
    (dB^2 - dt): the bits of the one-term ``einsum`` that more channels take
    (it adds its product to +0.0, so only a -0.0 sum can differ), at a
    fraction of its call cost.
    """
    f = system.drift(t, x, u)
    g = system.diffusion(t, x, u)
    dB = np.asarray(dB)
    one = dB.shape[-1] == 1
    noise = g[..., 0] * dB if one else np.einsum("...xi,...i->...x", g, dB)
    x_euler = x + f * dt + noise
    if euler:
        return x_euler
    m = _milstein_product(system, t, x, u, g)
    w = dB**2 - dt
    return x_euler + (m[..., 0, :] * w if one else np.einsum("...ia,...i->...a", m, w))


def step_partials(system, t, x, u, dt, dB):
    """Exact Jacobians (Jx, Ju) of the Ito-Milstein update that
    ``step_control`` takes from (x, u): Jx = d x_next / dx at fixed u, shape
    (..., n_x, n_x), and Ju = d x_next / du, shape (..., n_x, n_u).

    This is the step the gradient estimators integrate (Stratonovich
    systems are converted first), and their forward walk has checked the
    system against it.  The step itself is not taken here: the estimators
    read x_next from the stored trajectory.  All arguments broadcast over
    leading axes: the estimators pass a block of steps at once, with t an
    array of grid times that broadcasts over the batch axes of x and the
    system's callbacks receiving it as it is.
    """
    dB = np.asarray(dB)
    fdx = system.drift_dx(t, x, u)
    fdu = system.drift_du(t, x, u)
    gdx = system.diffusion_dx(t, x, u)
    gdu = system.diffusion_du(t, x, u)
    eye = np.eye(system.state_dim)
    jx = eye + fdx * dt + np.einsum("...i,...iab->...ab", dB, gdx)
    ju = fdu * dt + np.einsum("...i,...iau->...au", dB, gdu)
    w = dB**2 - dt
    jx = jx + np.einsum("...i,...iab->...ab", w, system.milstein_dx(t, x, u))
    ju = ju + np.einsum("...i,...iau->...au", w, system.milstein_du(t, x, u))
    return jx, ju


def _raise_if_divergent(x, step_index):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(
            f"non-finite state encountered at step {step_index}", step_index=step_index
        )


def _validate_dims(system, policy, x0, increments, grid):
    """x0 as floats, and the batch shape that it and the increments broadcast to."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        raise ConfigurationError(
            f"initial state must be an array of shape (..., {system.state_dim}), got a scalar"
        )
    if x0.shape[-1] != system.state_dim:
        raise ConfigurationError(
            f"initial state dimension {x0.shape[-1]} != state_dim {system.state_dim}"
        )
    n_xi = np.shape(increments)[-1]
    if n_xi != system.noise_dim:
        raise ConfigurationError(f"path has {n_xi} noise dims, system expects {system.noise_dim}")
    if policy is not None and getattr(policy, "n_out", system.control_dim) != system.control_dim:
        raise ConfigurationError(
            f"policy output dim {policy.n_out} != control_dim {system.control_dim}"
        )
    shape = np.shape(increments)
    if shape[0] != grid.n_steps:
        raise ConfigurationError(f"path has {shape[0]} increments, grid has {grid.n_steps} steps")
    try:
        batch = np.broadcast_shapes(x0.shape[:-1], shape[1:-1])
    except ValueError:
        raise ConfigurationError(
            f"initial state batch {x0.shape[:-1]} does not broadcast against path batch {shape[1:-1]}"
        ) from None
    return x0, batch


def _walk(system, policy, x0, increments, grid, euler=False):
    """Yield (x_k, u_k) for k = 0..n_steps and store nothing: the one loop
    over grid steps.  Before the first point it checks the system as given
    against the step (``euler`` or Milstein), converts it to its Ito form,
    and checks x0, the increments and the policy against the system, the grid
    and each other, the one place these are checked.  x0 is broadcast against
    the increments' batch axes and u_0 is the control at x0 as given.  The
    grid times are read once, and the policy's ``control`` is called at each
    point, or a zero control without a policy.  The caller sets
    ``np.errstate`` and consumes (x_k, u_k) before asking for the next
    point."""
    _check_scheme(system, euler)
    system = _ito_form(system)
    x0, batch = _validate_dims(system, policy, x0, increments, grid)
    if policy is None:
        control = lambda t, x: np.zeros(x.shape[:-1] + (system.control_dim,))  # noqa: E731
    else:
        control = policy.control
    dt, times = grid.dt, grid.times()
    u = control(times[0], x0)
    x = np.broadcast_to(x0, batch + (system.state_dim,)).copy()
    for k in range(grid.n_steps):
        yield x, u
        x = step_control(system, times[k], x, u, dt, increments[k], euler)
        u = control(times[k + 1], x)
    yield x, u


def forward_states(system, policy, x0, increments, grid, check="raise", euler=False):
    """Integrate and return (states, controls) arrays over the whole grid.

    ``increments`` has shape (n_steps, ..., n_xi); batch axes broadcast against
    x0.  ``euler=True`` takes Euler-Maruyama steps instead of Milstein ones.
    The loop itself never stops early: NaNs propagate to the end of the
    grid.  With check="raise", one scan of the stepped states after the loop
    raises DivergenceError at the first step k whose result states[k + 1] is
    non-finite in any batch lane (a non-finite x0 reports step 0); with
    check="none" the arrays are returned as they are (batched callers mask
    afterwards).
    """
    n = grid.n_steps
    with np.errstate(all="ignore"):
        walk = _walk(system, policy, x0, increments, grid, euler)
        x, u = next(walk)  # the broadcast x0 sizes the arrays
        states = np.zeros((n + 1,) + x.shape)
        controls = np.zeros((n + 1,) + x.shape[:-1] + (system.control_dim,))
        states[0], controls[0] = x, u
        for k, (x, u) in enumerate(walk, start=1):
            states[k], controls[k] = x, u
    if check == "raise":
        finite = np.isfinite(states[1:]).reshape(n, -1).all(axis=1)
        k = int(np.argmin(finite))  # the first non-finite step; 0 when all are finite
        _raise_if_divergent(states[k + 1], step_index=k)
    return states, controls


def integrate(system, policy, x0, path: WienerPath) -> Trajectory:
    """Full forward trajectory on the path's grid; controls are recorded at
    every grid point."""
    states, controls = forward_states(system, policy, x0, path.increments, path.grid)
    return Trajectory(grid=path.grid, states=states, controls=controls)


def _reverse_walk(grid, increments):
    """The (grid, increments) on which ``forward_states`` integrates the
    inverse flow from t_end: point k of the walk is point n - k of ``grid``,
    the step is -dt and the increments are negated in reverse order.  With
    -dt and -dB the Ito-Milstein step is x - (f - m) dt - g dB + m dB^2, the
    Stratonovich-Milstein step of the backward flow.  States and controls
    come out in reverse time order, and a DivergenceError names the step of
    the reversed walk: walk step j runs from grid point n - j back to
    n - 1 - j."""
    n = grid.n_steps
    walk = SimpleNamespace(n_steps=n, dt=-grid.dt, times=lambda: grid.times()[::-1])
    return walk, -np.asarray(increments)[::-1]


def convert_calculus(system: ControlledSystem) -> ControlledSystem:
    """Equivalent system under the opposite calculus.

    Ito -> Stratonovich subtracts the correction sum_i m_i from the drift;
    Stratonovich -> Ito adds it back.  Partials of the correction are the
    system's Milstein partials; the diffusion and its partials are unchanged.
    Converting back a system that this function built, and that has not been
    changed since, returns the system it was built from, so the round trip
    steps with the original callbacks and bits.
    """
    source, built = getattr(system, "_converted_from", (None, None))
    if source is not None and system == built:
        return source
    sign = -1.0 if system.calculus is Calculus.ITO else 1.0

    def drift(t, x, u):
        return system.drift(t, x, u) + sign * milstein_terms(system, t, x, u).sum(axis=-2)

    def drift_dx(t, x, u):
        return system.drift_dx(t, x, u) + sign * system.milstein_dx(t, x, u).sum(axis=-3)

    def drift_du(t, x, u):
        return system.drift_du(t, x, u) + sign * system.milstein_du(t, x, u).sum(axis=-3)

    converted = replace(
        system,
        drift=drift,
        drift_dx=drift_dx,
        drift_du=drift_du,
        calculus=(
            Calculus.STRATONOVICH if system.calculus is Calculus.ITO else Calculus.ITO
        ),
    )
    converted._converted_from = (system, replace(converted))
    return converted


def _ito_form(system):
    """The system in Ito form, the form every integrator steps."""
    return system if system.calculus is Calculus.ITO else convert_calculus(system)


def _write_csv(fileobj, header, rows):
    """The one CSV row format: the ``header`` names, then one line per row,
    comma-separated, a string as it is and any other value at 17
    significant digits."""
    fileobj.write(",".join(header) + "\n")
    for row in rows:
        fileobj.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def dump_trajectory_csv(traj: Trajectory, fileobj, state_names=None, control_names=None):
    """Write `t, x_1.., u_1..` rows at 17 significant digits."""
    n_x = traj.states.shape[-1]
    n_u = traj.controls.shape[-1]
    state_names = state_names or [f"x_{i + 1}" for i in range(n_x)]
    control_names = control_names or [f"u_{i + 1}" for i in range(n_u)]
    rows = ((t, *x, *u) for t, x, u in zip(traj.grid.times(), traj.states, traj.controls))
    _write_csv(fileobj, ["t", *state_names, *control_names], rows)
