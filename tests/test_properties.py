"""Property-based checks of the cost quadrature and of the three gradient
estimators on random small problems."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdecontrol.benchmarks import build_grad_check_problem
from sdecontrol.optim import batch_gradient, path_seed
from sdecontrol.policy import init_params
from sdecontrol.portfolio import MarketParams
from sdecontrol.sdecore import convert_calculus, forward_states
from sdecontrol.sensitivity import (
    adjoint_gradient,
    eval_cost,
    finite_difference_gradient,
    forward_sensitivity,
    gradient_agreement,
)
from sdecontrol.wiener import TimeGrid, generate_path


@st.composite
def problems(draw):
    """(system, policy, cost, x0, path): the controlled GBM or the portfolio
    (nu > 0), 4-16 steps, and the running integral or 1-4 point-wise times
    drawn from the grid with repeats, 0 and T allowed."""
    name = draw(st.sampled_from(["gbm", "portfolio"]))
    market = None
    if name == "portfolio":
        nu = draw(st.sampled_from([0.25, 0.5, 1.0]))
        market = MarketParams(nu=nu, barrier_weight=draw(st.sampled_from([0.0, 1.0, 50.0])))
    seed = draw(st.integers(0, 2**16))
    system, cost, x0, policy = build_grad_check_problem(
        name, hidden_dims=(4,), policy_seed=seed, market=market
    )
    grid = TimeGrid(0.0, 1.0, draw(st.integers(4, 16)))
    points = draw(st.none() | st.lists(st.integers(0, grid.n_steps), min_size=1, max_size=4))
    if points is not None:
        cost = dataclasses.replace(cost, pointwise_times=[grid.time(k) for k in points])
    return system, policy, cost, x0, generate_path(seed, grid, system.noise_dim)


def reference_cost(system, policy, cost, x0, path):
    """The discretized cost as an explicit loop over the stored states: dt
    at steps 0..K-1, or one term per listed point-wise time."""
    grid = path.grid
    states, controls = forward_states(system, policy, x0, path.increments, grid)
    if cost.pointwise_times:
        ks = [grid.index_of(t) for t in cost.pointwise_times]
        terms = [cost.running(grid.time(k), states[k], controls[k]) for k in ks]
    else:
        ks = range(grid.n_steps)
        terms = [grid.dt * cost.running(grid.time(k), states[k], controls[k]) for k in ks]
    return float(sum(terms) + cost.terminal(states[-1], controls[-1]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(problems())
def test_cost_equals_a_loop_over_the_stored_states(problem):
    want = reference_cost(*problem)
    assert eval_cost(*problem) == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def estimator_problems(draw):
    """``problems()`` with the system as built or converted to Stratonovich
    form, and a drawn policy: with the time input or not, a softplus, tanh or
    identity output, and one or two hidden layers of 2-5 units."""
    system, _, cost, x0, path = draw(problems())
    if draw(st.booleans()):
        system = convert_calculus(system)
    with_time = draw(st.booleans())
    hidden = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
    policy = init_params(
        [system.state_dim + with_time, *hidden, system.control_dim],
        seed=draw(st.integers(0, 2**16)),
        output_activation=draw(st.sampled_from(["softplus", "tanh", "identity"])),
        with_time=with_time,
    )
    return system, policy, cost, x0, path


def max_rel(a, b):
    """Largest coordinate difference relative to the largest coordinate."""
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(estimator_problems())
def test_forward_and_adjoint_agree(problem):
    fw = forward_sensitivity(*problem)
    ad = adjoint_gradient(*problem)
    assert fw.cost_value == ad.cost_value
    assert max_rel(fw.grad, ad.grad) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=60)
@given(estimator_problems())
def test_adjoint_agrees_with_finite_differences(problem):
    ad = adjoint_gradient(*problem)
    fd = finite_difference_gradient(*problem, h_rel=1e-5)
    cosine, _ = gradient_agreement(ad.grad, fd.grad)
    assert max_rel(fd.grad, ad.grad) <= 1e-4
    assert cosine >= 1 - 1e-8


@settings(derandomize=True, deadline=None, max_examples=60)
@given(estimator_problems(), st.integers(1, 4), st.integers(0, 3))
def test_batch_gradient_is_the_mean_adjoint_gradient(problem, n_paths, iteration):
    system, policy, cost, x0, path = problem
    grid = path.grid
    grad, mean_cost, n_diverged = batch_gradient(
        system, policy, cost, x0, 7, iteration, n_paths, grid
    )
    reports = [
        adjoint_gradient(
            system, policy, cost, x0, generate_path(path_seed(7, iteration, i), grid, 1)
        )
        for i in range(n_paths)
    ]
    want = np.mean([r.grad for r in reports], axis=0)
    assert n_diverged == 0
    assert mean_cost == pytest.approx(np.mean([r.cost_value for r in reports]), rel=1e-12)
    assert np.allclose(grad, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
