"""End-to-end acceptance checks for the whole package.

Each test prints a single PASS/FAIL line so the criteria can be scanned in
the captured output, then asserts the same condition.
"""

import time

import numpy as np
import pytest

from conftest import record_acceptance
from sdecontrol.benchmarks import build_grad_check_problem, gbm_exact_path, gbm_system
from sdecontrol.cli import main
from sdecontrol.optim import TrainConfig, train
from sdecontrol.policy import init_params
from sdecontrol.portfolio import MarketParams, build_cost, build_system, evaluate_policy
from sdecontrol.sdecore import convert_calculus
from sdecontrol.sensitivity import (
    CostFunctional,
    adjoint_gradient,
    finite_difference_gradient,
    forward_sensitivity,
    gradient_agreement,
)
from sdecontrol.studies import (
    _end_states,
    _fine_paths,
    _level_increments,
    fit_order,
    reversibility_study,
    strong_convergence_study,
)
from sdecontrol.wiener import TimeGrid, generate_path

COSINE_TOL = 0.999
REL_TOL = 1e-3


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line, flush=True)
    record_acceptance(line)  # echoed in the terminal summary past capture
    assert ok, f"{name}: {detail}"


def test_1_three_way_gradient_agreement():
    t0 = time.time()
    grid = TimeGrid(0.0, 1.0, 1024)
    worst_cos, worst_rel = 1.0, 0.0
    for name, hidden in (("gbm", (16,)), ("portfolio", (32, 32, 32))):
        for seed in range(20):
            system, cost, x0, policy = build_grad_check_problem(
                name, hidden_dims=hidden, policy_seed=seed
            )
            path = generate_path(seed, grid, 1)
            fw = forward_sensitivity(system, policy, cost, x0, path).grad
            ad = adjoint_gradient(system, policy, cost, x0, path).grad
            fd = finite_difference_gradient(
                system, policy, cost, x0, path, h_rel=3e-4
            ).grad
            for a, b in ((fw, ad), (ad, fd), (fw, fd)):
                cos, rel = gradient_agreement(a, b)
                worst_cos = min(worst_cos, cos)
                worst_rel = max(worst_rel, rel)
    elapsed = time.time() - t0
    ok = worst_cos >= COSINE_TOL and worst_rel <= REL_TOL
    report(
        1,
        "three-way gradient agreement",
        ok,
        f"worst cosine {worst_cos:.6f}, worst rel {worst_rel:.2e}, "
        f"{elapsed:.0f}s (target 120s)",
    )


def test_2_strong_convergence_orders():
    t0 = time.time()
    study = strong_convergence_study(min_exp=4, max_exp=10, n_paths=200)
    em = study["euler_maruyama"]["order"]
    mil = study["milstein_ito"]["order"]
    elapsed = time.time() - t0
    ok = abs(em - 0.5) <= 0.15 and abs(mil - 1.0) <= 0.15
    report(
        2,
        "strong convergence orders",
        ok,
        f"euler {em:.3f} (0.5+-0.15), milstein {mil:.3f} (1.0+-0.15), "
        f"{elapsed:.0f}s (target 60s)",
    )


def test_3_calculus_conversion_equivalence():
    # The Stratonovich form of GBM steps in its Ito form, the Ito system it
    # was converted from: on acceptance 2's paths it converges to the exact
    # solution at Milstein's order, and its endpoints are the Ito system's.
    mu, sigma, min_exp, max_exp = 0.23, 0.18, 4, 10
    ito = gbm_system(mu=mu, sigma=sigma)
    strat = convert_calculus(ito)
    levels, fine, fine_paths = _fine_paths(0, 200, 1.0, min_exp, max_exp)
    exact = np.array(
        [gbm_exact_path(1.0, mu, sigma, [0.0, 1.0], [0.0, float(p.sum())])[-1] for p in fine_paths]
    )
    x0 = np.array([1.0])
    errors, worst_gap = [], 0.0
    for exp in levels:
        grid, increments = _level_increments(fine, fine_paths, 2 ** (max_exp - exp))
        end_s = _end_states(strat, x0, grid, increments)
        end_i = _end_states(ito, x0, grid, increments)
        errors.append(np.median(np.abs(end_s - exact)))
        worst_gap = max(worst_gap, float(np.max(np.abs(end_s - end_i) / np.abs(end_i))))
    order = fit_order([2**e for e in levels], errors)
    ok = abs(order - 1.0) <= 0.15 and worst_gap <= 1e-12
    report(
        3,
        "calculus-conversion equivalence",
        ok,
        f"stratonovich order {order:.3f} (1.0+-0.15), "
        f"max rel endpoint gap to ito {worst_gap:.1e} (<= 1e-12)",
    )


def test_4_inverse_flow_reversibility():
    _, errs = reversibility_study(min_exp=4, n_halvings=4, n_paths=100)
    ok = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    report(
        4,
        "inverse-flow reversibility",
        ok,
        "median errors " + ", ".join(f"{e:.2e}" for e in errs),
    )


def test_5_dense_pointwise_matches_integral_adjoint():
    system, cost, x0, policy = build_grad_check_problem("gbm", hidden_dims=(8,))
    grid = TimeGrid(0.0, 1.0, 256)
    path = generate_path(11, grid, 1)
    dt = grid.dt
    running, running_dx, running_du = cost.running, cost.running_dx, cost.running_du
    dense = CostFunctional(
        running=lambda t, x, u: running(t, x, u) * dt,
        terminal=cost.terminal,
        running_dx=lambda t, x, u: running_dx(t, x, u) * dt,
        running_du=lambda t, x, u: running_du(t, x, u) * dt,
        terminal_dx=cost.terminal_dx,
        pointwise_times=[grid.time(k) for k in range(grid.n_steps)],
    )
    a = adjoint_gradient(system, policy, dense, x0, path).grad
    b = adjoint_gradient(system, policy, cost, x0, path).grad
    _, rel = gradient_agreement(a, b)
    ok = rel <= REL_TOL
    report(5, "dense point-wise adjoint", ok, f"worst coordinate rel {rel:.2e}")


NU_VALUES = (0.0, 0.25, 0.5, 1.0)
ARCH = [2, 32, 32, 32, 2]
# Solvency weight for every run: the log barrier at nu=0 and the finite
# softplus penalty at nu>0.  The barrier's influence on the trade gradient
# scales with the transaction cost alpha, so a weight of order 1/alpha is
# needed to keep the nu=0 batch solvent over all 100 iterations; at nu>0 the
# same weight keeps the leveraged nu=0.25 policy off the solvency line.
BARRIER_WEIGHT = 50.0


def _train_once(nu, base_seed, policy_seed):
    params = MarketParams(nu=nu, barrier_weight=BARRIER_WEIGHT)
    system = build_system(params)
    cost = build_cost(params)
    policy = init_params(ARCH, seed=policy_seed)
    cfg = TrainConfig(
        grid=TimeGrid(0.0, params.horizon, 200),
        batch_size=50,
        iterations=100,
        learning_rate=0.03,
        optimizer="adam",
        direction="maximize",
        base_seed=base_seed,
    )
    return train(system, policy, cost, np.array(params.x0), cfg)


@pytest.fixture(scope="module")
def experiment():
    """Train once per nu with the reference experiment configuration, plus
    four extra training seeds at nu=0.5 for the objective-trend check.

    The trend is measured at nu=0.5 because the nu=0.25 objective converges
    within ~20 iterations and its later windows differ only by Monte Carlo
    noise, making window comparisons uninformative there.
    """
    t0 = time.time()
    by_nu = {nu: _train_once(nu, 0, 0) for nu in NU_VALUES}
    trend_logs = [by_nu[0.5][1]] + [_train_once(0.5, s, s)[1] for s in range(1, 5)]
    elapsed = time.time() - t0
    return by_nu, trend_logs, elapsed


def _windowed_means(values, window=10):
    values = np.asarray(values)
    n = values.size // window
    return values[: n * window].reshape(n, window).mean(axis=1)


def test_6a_objective_trend(experiment):
    by_nu, trend_logs, elapsed = experiment
    good_seeds = 0
    counts = []
    for log in trend_logs:
        w = _windowed_means(log.column("mean_cost"))
        pairs = int(np.sum(np.diff(w) >= 0))
        counts.append(pairs)
        good_seeds += pairs >= 8
    ok = good_seeds >= 4
    report(
        "6i",
        "windowed objective non-decreasing",
        ok,
        f"non-decreasing pairs per seed {counts} (need >=8/9 in >=4/5), "
        f"all trainings {elapsed:.0f}s total (target 600s per nu)",
    )


def test_6b_growth_policy_beats_untrained(experiment):
    by_nu, _, _ = experiment
    params = MarketParams(nu=0.0, barrier_weight=BARRIER_WEIGHT)
    grid = TimeGrid(0.0, 1.0, 200)
    trained_stats, _ = evaluate_policy(params, by_nu[0.0][0], grid, 200)
    raw_stats, _ = evaluate_policy(params, init_params(ARCH, seed=0), grid, 200)
    ok = trained_stats.mean_terminal_stock > raw_stats.mean_terminal_stock
    report(
        "6ii",
        "nu=0 terminal stock vs untrained",
        ok,
        f"trained {trained_stats.mean_terminal_stock:.3f} > "
        f"untrained {raw_stats.mean_terminal_stock:.3f}",
    )


def test_6c_penalty_ordering_on_shared_paths(experiment):
    by_nu, _, _ = experiment
    grid = TimeGrid(0.0, 1.0, 200)
    # identical evaluation seeds -> identical driving noise for both policies
    pen = {}
    for nu in (0.0, 1.0):
        stats, _ = evaluate_policy(MarketParams(nu=nu, barrier_weight=BARRIER_WEIGHT), by_nu[nu][0], grid, 200)
        pen[nu] = stats.mean_stock_penalty
    ok = pen[1.0] < pen[0.0]
    report(
        "6iii",
        "risk penalty ordering",
        ok,
        f"nu=1 policy penalty {pen[1.0]:.4f} < nu=0 policy penalty {pen[0.0]:.4f}",
    )


def test_6d_solvency_crossing_rare(experiment):
    by_nu, _, _ = experiment
    grid = TimeGrid(0.0, 1.0, 200)
    fractions = {}
    for nu in (0.25, 0.5, 1.0):
        stats, _ = evaluate_policy(MarketParams(nu=nu, barrier_weight=BARRIER_WEIGHT), by_nu[nu][0], grid, 200)
        fractions[nu] = stats.solvency_crossing_fraction
    ok = all(f <= 0.05 for f in fractions.values())
    report(
        "6iv",
        "solvency crossing fraction",
        ok,
        ", ".join(f"nu={k:g}: {v:.1%}" for k, v in fractions.items()) + " (limit 5%)",
    )


def test_7_policy_vjp_exactness():
    dims = [2, 8, 8, 2]
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for k in range(100):
        policy = init_params(dims, seed=k)
        x = rng.normal(size=2)
        c = rng.normal(size=2)
        theta = policy.get_params()

        def phi(th):
            policy.set_params(th)
            return float(c @ policy.eval(x))

        fd_theta = np.zeros(theta.size)
        for j in range(theta.size):
            step = h * max(1.0, abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += step
            dn[j] -= step
            fd_theta[j] = (phi(up) - phi(dn)) / (2.0 * step)
        policy.set_params(theta)
        fd_x = np.zeros(2)
        for j in range(2):
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            fd_x[j] = float(c @ policy.eval(up) - c @ policy.eval(dn)) / (2.0 * h)
        vt = policy.flatten_layer_grads(policy.vjp_params_layers(x, c)[1])
        vx = policy.vjp_input(x, c)
        worst = max(
            worst,
            np.linalg.norm(vt - fd_theta) / np.linalg.norm(fd_theta),
            np.linalg.norm(vx - fd_x) / np.linalg.norm(fd_x),
        )
    ok = worst <= 1e-5
    report(7, "policy VJP exactness", ok, f"worst relative error {worst:.2e} over 100 triples")


def test_8_bit_identical_reruns(tmp_path, capsys):
    cfg = tmp_path / "accept.cfg"
    cfg.write_text(
        "iterations = 5\nbatch_size = 10\nnu = 0.25\neval_paths = 5\n"
        "trajectory_dumps = 1\ngrid_resolution = 3\n"
        "grad_check_steps = 256\ngrad_check_hidden = 8\n"
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["grad-check", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    same = sorted(outs[0]) == sorted(outs[1]) and all(
        outs[0][k] == outs[1][k] for k in outs[0]
    )
    report(
        8,
        "bit-identical reruns",
        same,
        f"{len(outs[0])} output files compared byte-for-byte",
    )
