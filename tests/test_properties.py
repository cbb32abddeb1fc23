"""Property-based checks of the cost quadrature on random small problems."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from sdecontrol.benchmarks import build_grad_check_problem
from sdecontrol.portfolio import MarketParams
from sdecontrol.sdecore import MILSTEIN_ITO, forward_states
from sdecontrol.sensitivity import eval_cost
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
    states, controls = forward_states(system, policy, x0, path.increments, grid, MILSTEIN_ITO)
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
