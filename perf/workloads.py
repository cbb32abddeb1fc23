"""The four workloads: inputs built from the run's seed, one timed round of
library calls, and the checks on the round's outputs.

A round is a fixed list of operations, the same in every round of a run.  It
passes each part to the ``timed`` callable the harness gives it:

* train      4 ``optim.train`` calls (nu = 0, 0.25, 0.5, 1) of
             ``train_iterations`` Adam iterations each; an operation is one
             iteration, a part is one call.
* evaluate   one ``portfolio.evaluate_policy`` of the stored nu = 0.25 policy
             plus its CSV output; the operation and the part are the whole step.
* grad-check forward-sensitivity and adjoint gradients on one 1024-step
             path; the operation is the pair, each estimator is a part.
* fd-check   the finite-difference gradient on one 1024-step path; the
             operation and the part are the one call.  The adjoint it is
             checked against is computed outside the timed part.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "policy_nu0.25.txt"
NU_VALUES = (0.0, 0.25, 0.5, 1.0)
EVAL_NU = 0.25
TRAJECTORY_DUMPS = 3
REPLAY_PATHS = 3
FD_H_REL = 3e-4
PROJECTION_STEP = 1e-4
PROJECTION_TOL = 1e-6
STATS_TOL = 1e-12
REPLAY_TOL = 1e-12
FORWARD_ADJOINT_TOL = 1e-10
COSINE_TOL = 0.999
FD_REL_TOL = 1e-3


@dataclass(frozen=True)
class Scale:
    """Sizes of the inputs; FULL is what the benchmark measures."""

    train_paths: int = 50
    train_steps: int = 200
    train_iterations: int = 10
    train_hidden: tuple = (32, 32, 32)
    heldout_paths: int = 200
    eval_paths: int = 200
    eval_steps: int = 200
    grid_resolution: int = 21
    grad_steps: int = 1024
    grad_hidden: tuple = (32, 32, 32)
    setup_repeats: int = 5


FULL = Scale()


@dataclass
class Round:
    ops: int
    failed: int = 0
    outputs: list = field(default_factory=list)


def untimed(part, fn, *args, **kwargs):
    """The ``timed`` argument of ``round`` for calls that are not measured."""
    return fn(*args, **kwargs)


class Workload:
    name = ""
    # Whether op_ms is scaled to the speed probe (see harness.py).
    probe_scaled = True

    def __init__(self, lib, seed, scale, out_dir):
        self.lib = lib
        self.seed = seed
        # Path seeds of one run are base_seed plus offsets below 2**41: the
        # gradient-check paths (round index), the training streams
        # (optim.path_seed, below 2**40) and the evaluation streams
        # (optim.evaluation_seed, 2**40 and up).  Spacing the bases 2**41
        # apart keeps runs with different seeds on disjoint paths.
        self.base_seed = seed << 41
        self.scale = scale
        self.out_dir = Path(out_dir)

    def _params(self, nu):
        return self.lib.portfolio.MarketParams(nu=nu, barrier_weight=ref.BARRIER_WEIGHT, **ref.MARKET)

    def memory(self, inputs):
        """One operation of the layers whose peak allocation is measured."""


# -- train --------------------------------------------------------------------


class Train(Workload):
    name = "train"

    def setup(self):
        lib, sc = self.lib, self.scale
        grid = lib.wiener.TimeGrid(0.0, ref.MARKET["horizon"], sc.train_steps)
        runs = []
        for nu in NU_VALUES:
            params = self._params(nu)
            runs.append((nu, lib.portfolio.build_system(params), lib.portfolio.build_cost(params)))
        config = lib.optim.TrainConfig(
            grid=grid,
            batch_size=sc.train_paths,
            iterations=sc.train_iterations,
            learning_rate=0.03,
            optimizer="adam",
            direction="maximize",
            base_seed=self.base_seed,
        )
        return {"grid": grid, "runs": runs, "config": config, "x0": np.array(ref.MARKET["x0"])}

    def _fresh_policy(self):
        return self.lib.policy.init_params([2, *self.scale.train_hidden, 2], seed=0)

    def round(self, inputs, index, timed):
        lib, k = self.lib, self.scale.train_iterations
        out = Round(ops=k * len(inputs["runs"]))
        for nu, system, cost in inputs["runs"]:
            try:
                policy, _ = timed(
                    f"nu={nu:g}", lib.optim.train, system, self._fresh_policy(), cost, inputs["x0"], inputs["config"]
                )
            except lib.errors.SdeControlError:
                out.failed += k
                continue
            out.outputs.append((nu, policy))
        return out

    def _batch_gradient(self, inputs, run, policy, iteration):
        _, system, cost = run
        cfg = inputs["config"]
        return self.lib.optim.batch_gradient(
            system, policy, cost, inputs["x0"], cfg.base_seed, iteration, cfg.batch_size, cfg.grid
        )

    def warmup(self, inputs):
        self._batch_gradient(inputs, inputs["runs"][0], self._fresh_policy(), 0)

    memory = warmup

    def check_round(self, inputs, r, first):
        if r is not first:
            return [
                f"train nu={nu:g}: trained parameters differ between rounds with identical inputs"
                for (nu, a), (_, b) in zip(first.outputs, r.outputs)
                if not np.array_equal(a.get_params(), b.get_params())
            ]
        problems = []
        for run, (nu, policy) in zip(inputs["runs"], r.outputs):
            problems += self.check_beats_untrained(nu, policy, inputs["grid"])
            problems += self.check_projection(run, policy, inputs)
        return problems

    def heldout_value(self, nu, policy, grid):
        """Mean objective (nu > 0) or mean terminal stock (nu = 0) on held-out
        evaluation paths, simulated by the benchmark's own integrator."""
        lib = self.lib
        inc = np.stack(
            [
                lib.wiener.generate_path(lib.optim.evaluation_seed(self.base_seed, i), grid, 1).increments[:, 0]
                for i in range(self.scale.heldout_paths)
            ]
        )
        states = ref.simulate(ref.MARKET, policy.weights, policy.biases, inc, grid.dt)
        if nu == 0.0:
            return float(states[:, -1, 0].mean())
        objective, _, _ = ref.path_summaries(ref.MARKET, nu, ref.BARRIER_WEIGHT, states, grid.dt)
        return float(objective.mean())

    def check_beats_untrained(self, nu, policy, grid):
        trained = self.heldout_value(nu, policy, grid)
        untrained = self.heldout_value(nu, self._fresh_policy(), grid)
        what = "terminal stock" if nu == 0.0 else "objective"
        if not trained > untrained:
            return [f"train nu={nu:g}: held-out mean {what} {trained:.6g} does not beat untrained {untrained:.6g}"]
        return []

    def check_projection(self, run, policy, inputs):
        """Batch adjoint gradient on a random unit direction against a central
        difference of the batch-mean cost through ``eval_cost``."""
        lib, cfg, x0 = self.lib, inputs["config"], inputs["x0"]
        nu, system, cost = run
        iteration = cfg.iterations  # a batch that training never drew
        grad, _, n_div = self._batch_gradient(inputs, run, policy, iteration)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        d = rng.standard_normal(grad.size)
        d /= np.linalg.norm(d)
        theta = policy.get_params()
        totals, kept = {+1: 0.0, -1: 0.0}, 0
        try:
            for i in range(cfg.batch_size):
                path = lib.wiener.generate_path(lib.optim.path_seed(cfg.base_seed, iteration, i), cfg.grid, 1)
                pair = {}
                for sign in (+1, -1):
                    policy.set_params(theta + sign * PROJECTION_STEP * d)
                    try:
                        pair[sign] = lib.sensitivity.eval_cost(system, policy, cost, x0, path)
                    except lib.errors.DivergenceError:
                        break
                if len(pair) == 2:
                    kept += 1
                    for sign in pair:
                        totals[sign] += pair[sign]
        finally:
            policy.set_params(theta)
        if kept != cfg.batch_size - n_div:
            return [f"train nu={nu:g}: {kept} lanes finite under eval_cost, batch_gradient kept {cfg.batch_size - n_div}"]
        central = (totals[+1] - totals[-1]) / kept / (2.0 * PROJECTION_STEP)
        return projection_problems(nu, float(grad @ d), central)


def projection_problems(nu, projected, central):
    gap = ref.relative_gap(projected, central)
    if not gap <= PROJECTION_TOL:
        return [
            f"train nu={nu:g}: adjoint projection {projected:.12g} vs central difference "
            f"{central:.12g} (rel {gap:.2e} > {PROJECTION_TOL:g})"
        ]
    return []


# -- evaluate -----------------------------------------------------------------


class Evaluate(Workload):
    name = "evaluate"

    def setup(self):
        lib = self.lib
        return {
            "params": self._params(EVAL_NU),
            "policy": lib.policy.load_policy(str(CHECKPOINT)),
            "grid": lib.wiener.TimeGrid(0.0, ref.MARKET["horizon"], self.scale.eval_steps),
        }

    def step(self, inputs, n_paths):
        """evaluate_policy keeping every trajectory, then the CSV output that
        run_experiment writes after training."""
        lib, sc = self.lib, self.scale
        policy = inputs["policy"]
        stats, kept = lib.portfolio.evaluate_policy(
            inputs["params"], policy, inputs["grid"], n_paths, seed_base=self.base_seed, keep_trajectories=n_paths
        )
        for k in range(min(TRAJECTORY_DUMPS, n_paths)):
            with open(self.out_dir / f"traj_seed{k}.csv", "w") as fh:
                lib.sdecore.dump_trajectory_csv(kept[k], fh, ["S", "V"], ["u_i", "u_d"])
        rows = lib.portfolio.policy_grid(policy, (0.0, 2.0), (-1.0, 1.0), sc.grid_resolution)
        with open(self.out_dir / "policygrid.csv", "w") as fh:
            lib.portfolio.write_policy_grid_csv(rows, fh)
        return stats, kept, rows

    def round(self, inputs, index, timed):
        return Round(ops=1, outputs=[timed("evaluate", self.step, inputs, self.scale.eval_paths)])

    def warmup(self, inputs):
        self.step(inputs, 2)

    def check_round(self, inputs, r, first):
        stats, kept, rows = r.outputs[0]
        states = np.stack([t.states for t in kept])
        return (
            stats_problems(stats, states, inputs["grid"].dt)
            + self.replay_problems(inputs, kept[:REPLAY_PATHS])
            + self.csv_problems(kept, rows)
        )

    def replay_problems(self, inputs, trajectories):
        """Every stored step against the benchmark's Milstein update on the
        same increments, and every stored control against ``policy.control``."""
        lib, grid, policy = self.lib, inputs["grid"], inputs["policy"]
        paths = [
            lib.wiener.generate_path(lib.optim.evaluation_seed(self.base_seed, i), grid, 1)
            for i in range(len(trajectories))
        ]
        controls = [np.stack([policy.control(grid.time(k), x) for k, x in enumerate(t.states)]) for t in trajectories]
        return replay_problems(trajectories, [p.increments[:, 0] for p in paths], controls, grid.dt)

    def csv_problems(self, kept, rows):
        problems = []
        for k in range(TRAJECTORY_DUMPS):
            data = np.loadtxt(self.out_dir / f"traj_seed{k}.csv", delimiter=",", skiprows=1, ndmin=2)
            t = kept[k]
            if not np.array_equal(data, np.column_stack([t.grid.times(), t.states, t.controls])):
                problems.append(f"evaluate: traj_seed{k}.csv does not read back as trajectory {k}")
        grid_csv = np.loadtxt(self.out_dir / "policygrid.csv", delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(grid_csv, rows):
            problems.append("evaluate: policygrid.csv does not read back as the policy grid")
        return problems


def stats_problems(stats, states, dt):
    """PolicyStats against the benchmark's own summary of the kept states."""
    objective, penalty, crossed = ref.path_summaries(ref.MARKET, EVAL_NU, ref.BARRIER_WEIGHT, states, dt)
    ours = {
        "mean_objective": objective.mean(),
        "mean_stock_penalty": penalty.mean(),
        "solvency_crossing_fraction": crossed.mean(),
        "mean_terminal_stock": states[:, -1, 0].mean(),
        "mean_terminal_bank": states[:, -1, 1].mean(),
        "n_paths": len(states),
    }
    problems = []
    for key, value in ours.items():
        gap = ref.relative_gap(getattr(stats, key), value)
        if not gap <= STATS_TOL:
            problems.append(f"evaluate: {key} {getattr(stats, key)!r} vs recomputed {value!r} (rel {gap:.2e})")
    return problems


def replay_problems(trajectories, increments, controls, dt):
    problems = []
    for i, (t, db, u) in enumerate(zip(trajectories, increments, controls)):
        x = t.states
        s_next, v_next = ref.milstein_next(ref.MARKET, dt, x[:-1, 0], x[:-1, 1], t.controls[:-1], db)
        want = np.column_stack([s_next, v_next])
        step_err = np.max(np.abs(x[1:] - want) / (1.0 + np.abs(want)))
        control_err = np.max(np.abs(t.controls - u) / (1.0 + np.abs(u)))
        if not step_err <= REPLAY_TOL:
            problems.append(f"evaluate: path {i} departs from the Milstein update by {step_err:.2e}")
        if not control_err <= REPLAY_TOL:
            problems.append(f"evaluate: path {i} stores controls off policy.control by {control_err:.2e}")
    return problems


# -- grad-check and fd-check -------------------------------------------------


class GradCheck(Workload):
    """Forward-sensitivity and adjoint gradients at batch 1: per-step overhead."""

    name = "grad-check"

    def setup(self):
        lib = self.lib
        system, cost, x0, policy = lib.benchmarks.build_grad_check_problem(
            "portfolio", hidden_dims=self.scale.grad_hidden
        )
        grid = lib.wiener.TimeGrid(0.0, ref.MARKET["horizon"], self.scale.grad_steps)
        return {"problem": (system, policy, cost, x0), "grid": grid}

    def _path(self, inputs, index):
        system = inputs["problem"][0]
        return self.lib.wiener.generate_path(self.base_seed + index, inputs["grid"], system.noise_dim)

    def round(self, inputs, index, timed):
        lib, sens = self.lib, self.lib.sensitivity
        path = self._path(inputs, index)
        out = Round(ops=1)
        try:
            fw = timed("forward", sens.forward_sensitivity, *inputs["problem"], path)
            ad = timed("adjoint", sens.adjoint_gradient, *inputs["problem"], path)
        except lib.errors.SdeControlError:
            out.failed = 1
            return out
        out.outputs.append((path.seed, fw.grad, ad.grad))
        return out

    def warmup(self, inputs):
        """The round on a path 1/16 as long: the same batch widths."""
        grid = inputs["grid"]
        short = self.lib.wiener.TimeGrid(grid.t_start, grid.t_end, max(1, grid.n_steps // 16))
        self.round({**inputs, "grid": short}, 0, untimed)

    def memory(self, inputs):
        self.lib.sensitivity.adjoint_gradient(*inputs["problem"], self._path(inputs, 0))

    def check_round(self, inputs, r, first):
        return [p for out in r.outputs for p in forward_adjoint_problems(*out)]


class FdCheck(GradCheck):
    """The finite-difference oracle: one batched perturbed forward pass."""

    name = "fd-check"
    probe_scaled = False

    def round(self, inputs, index, timed):
        lib, sens = self.lib, self.lib.sensitivity
        path = self._path(inputs, index)
        out = Round(ops=1)
        try:
            fd = timed("fd", sens.finite_difference_gradient, *inputs["problem"], path, h_rel=FD_H_REL)
            ad = sens.adjoint_gradient(*inputs["problem"], path)
        except lib.errors.SdeControlError:
            out.failed = 1
            return out
        out.outputs.append((path.seed, ad.grad, fd.grad))
        return out

    def memory(self, inputs):
        self.lib.sensitivity.finite_difference_gradient(*inputs["problem"], self._path(inputs, 0), h_rel=FD_H_REL)

    def check_round(self, inputs, r, first):
        return [p for out in r.outputs for p in adjoint_fd_problems(*out)]


def forward_adjoint_problems(seed, forward, adjoint):
    cos, rel = ref.agreement(forward, adjoint)
    if not (rel <= FORWARD_ADJOINT_TOL and cos >= COSINE_TOL):
        return [f"grad-check path {seed}: forward vs adjoint rel {rel:.2e}, cosine {cos:.12f}"]
    return []


def adjoint_fd_problems(seed, adjoint, fd):
    cos, rel = ref.agreement(adjoint, fd)
    if not (rel <= FD_REL_TOL and cos >= COSINE_TOL):
        return [f"fd-check path {seed}: adjoint vs FD rel {rel:.2e}, cosine {cos:.6f}"]
    return []


WORKLOADS = {w.name: w for w in (Train, Evaluate, GradCheck, FdCheck)}
