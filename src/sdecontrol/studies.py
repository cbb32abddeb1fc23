"""Numerical verification studies: strong-convergence orders against the
closed-form GBM solution, and inverse-flow reversibility.  Shared by the CLI
and the test suite.

Every study integrates GBM from x0 = 1 with Ito-Milstein steps; the
strong-convergence study also takes Euler-Maruyama steps, through the one
switch ``euler=True``, and labels the two ``euler_maruyama`` and
``milstein_ito`` (``_STRONG_SCHEMES``).  Both studies reuse one fine Brownian
path per seed, so errors at every resolution are driven by the same noise
realization.  The fine increments are stacked paths-first, as (n_paths,
n_steps, 1), and each level sums adjacent groups of them in one
reshape-and-sum.  Both studies are batched over paths: at each level they
integrate every path in one ``forward_states`` call per scheme (the inverse
flow runs the same step over the reversed walk), whose walk checks the
inputs.  The systems have no policy, so every step is elementwise and each
lane gets the bits a one-path integration would.
"""

from __future__ import annotations

import numpy as np

from .benchmarks import gbm_exact_path, gbm_system
from .config import DEFAULTS
from .errors import ConfigurationError
from .sdecore import _reverse_walk, forward_states
from .wiener import _MAX_FINE_INCREMENTS, TimeGrid, generate_path

__all__ = [
    "fit_order",
    "strong_convergence_study",
    "reversibility_study",
    "write_convergence_csv",
]

_X0 = 1.0  # initial state of every study's GBM
# The strong-convergence study's CSV label of each step -> ``euler`` switch.
_STRONG_SCHEMES = {"euler_maruyama": True, "milstein_ito": False}


def fit_order(n_steps_list, errors) -> float:
    """Least-squares slope of log(error) against log(step size)."""
    h = np.log(1.0 / np.asarray(n_steps_list, dtype=float))
    e = np.log(np.asarray(errors, dtype=float))
    slope, _ = np.polyfit(h, e, 1)
    return float(slope)


def _fine_paths(seed, n_paths, t_end, min_exp, max_exp):
    """The levels min_exp..max_exp, the fine grid and the increments of one
    fine Brownian path per seed, stacked as (n_paths, n_steps, 1).

    A study needs at least one path, as a median of none is NaN, at least
    two levels, as neither a trend nor an order has fewer points, levels of
    at least one step, and at most ``_MAX_FINE_INCREMENTS`` fine increments;
    all are checked, and the fine grid is built (``TimeGrid`` rejects a
    non-finite t_end), before anything is allocated.
    """
    if n_paths < 1:
        raise ConfigurationError(f"a study needs at least one path, got {n_paths}")
    if max_exp <= min_exp:
        raise ConfigurationError(f"a study needs at least two levels, got 2^{min_exp}..2^{max_exp}")
    if min_exp < 0:
        raise ConfigurationError(f"the coarsest level needs at least one step, got 2^{min_exp}")
    if n_paths > _MAX_FINE_INCREMENTS >> max_exp:  # n_paths * 2**max_exp above the limit
        raise ConfigurationError(
            f"{n_paths} paths of 2^{max_exp} steps exceed the study limit of "
            f"{_MAX_FINE_INCREMENTS} fine increments"
        )
    fine = TimeGrid(0.0, t_end, 2**max_exp)
    paths = np.stack([generate_path(seed + p, fine, 1).increments for p in range(n_paths)])
    return list(range(min_exp, max_exp + 1)), fine, paths


def _level_increments(fine, fine_paths, factor):
    """The coarse grid and the sums of each path's groups of ``factor`` fine
    increments, as (n_steps, n_paths, 1).  The sum runs along the paths-first
    stack's unit-stride axis, which gives every path the bits of summing its
    own increments; a steps-first stack sums along a strided axis and moves
    the last bits at factors of 8 and more."""
    n_paths, n_fine, _ = fine_paths.shape
    coarse = fine_paths.reshape(n_paths, n_fine // factor, factor, 1).sum(axis=2)
    return TimeGrid(fine.t_start, fine.t_end, n_fine // factor), coarse.transpose(1, 0, 2)


def _end_states(system, x0, grid, increments, euler=False):
    """Scalar terminal state of every path, shape (n_paths,)."""
    states, _ = forward_states(system, None, x0, increments, grid, euler=euler)
    return states[-1, :, 0]


def strong_convergence_study(
    mu=DEFAULTS["mu"],
    sigma=DEFAULTS["sigma"],
    t_end=DEFAULTS["horizon"],
    min_exp=DEFAULTS["conv_min_exp"],
    max_exp=DEFAULTS["conv_max_exp"],
    n_paths=DEFAULTS["conv_paths"],
    seed=DEFAULTS["base_seed"],
):
    """Median endpoint error vs the exact GBM solution from x0 = 1, under
    Euler-Maruyama and Ito-Milstein, per level.

    Returns {scheme: {"n_steps": [...], "median_error": [...], "order": p}}.
    """
    system = gbm_system(mu=mu, sigma=sigma)
    levels, fine, fine_paths = _fine_paths(seed, n_paths, t_end, min_exp, max_exp)
    errors = {s: np.zeros((len(levels), n_paths)) for s in _STRONG_SCHEMES}
    x0v = np.array([_X0])
    b_totals = [float(increments.sum()) for increments in fine_paths]
    exact_ends = np.array(
        [gbm_exact_path(_X0, mu, sigma, [0.0, t_end], [0.0, b])[-1] for b in b_totals]
    )
    for li, exp in enumerate(levels):
        grid, increments = _level_increments(fine, fine_paths, 2 ** (max_exp - exp))
        for scheme, euler in _STRONG_SCHEMES.items():
            ends = _end_states(system, x0v, grid, increments, euler)
            errors[scheme][li] = np.abs(ends - exact_ends)
    out = {}
    for scheme in _STRONG_SCHEMES:
        med = np.median(errors[scheme], axis=1)
        out[scheme] = {
            "n_steps": [2**e for e in levels],
            "median_error": med.tolist(),
            "order": fit_order([2**e for e in levels], med),
        }
    return out


def reversibility_study(
    mu=DEFAULTS["mu"],
    sigma=DEFAULTS["sigma"],
    t_end=DEFAULTS["horizon"],
    min_exp=DEFAULTS["conv_min_exp"],
    n_halvings=DEFAULTS["reversal_halvings"],
    n_paths=DEFAULTS["reversal_paths"],
    seed=DEFAULTS["base_seed"],
):
    """Median round-trip error of the inverse flow: integrate forward from
    x0 = 1 (Ito-Milstein), then backward with the same Ito-Milstein step, as
    ``forward_states`` over the reversed walk (``sdecore._reverse_walk``),
    and compare with the initial state.  Returns (n_steps_list,
    median_errors)."""
    system = gbm_system(mu=mu, sigma=sigma)
    max_exp = min_exp + n_halvings
    levels, fine, fine_paths = _fine_paths(seed, n_paths, t_end, min_exp, max_exp)
    errs = np.zeros((len(levels), n_paths))
    x0v = np.array([_X0])
    for li, exp in enumerate(levels):
        grid, increments = _level_increments(fine, fine_paths, 2 ** (max_exp - exp))
        ends = _end_states(system, x0v, grid, increments)
        starts = _end_states(system, ends[:, None], *_reverse_walk(grid, increments))
        errs[li] = np.abs(starts - x0v[0])
    return [2**e for e in levels], np.median(errs, axis=1).tolist()


def write_convergence_csv(study, fileobj):
    """Rows (n_steps, scheme, median_error) from a strong-convergence study."""
    fileobj.write("n_steps,scheme,median_error\n")
    for scheme in sorted(study):
        res = study[scheme]
        for n, err in zip(res["n_steps"], res["median_error"]):
            fileobj.write(f"{n},{scheme},{err:.17g}\n")
