"""Command-line interface.

Verbs: train, grad-check, convergence, simulate, policy-grid.  Exit codes
follow a fixed contract: 0 on success, 1 when a numerical verification or a
training run fails, 2 for usage and configuration errors.  Every command is
deterministic given its config and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .benchmarks import GRAD_CHECK_SYSTEMS, build_grad_check_problem
from .config import load_config, parse_value
from .errors import SdeControlError, ConfigurationError
from .optim import TrainConfig
from .policy import load_policy
from .portfolio import (
    MarketParams,
    evaluate_policy,
    policy_grid,
    run_experiment,
    write_policy_grid_csv,
)
from .sdecore import dump_trajectory_csv
from .sensitivity import (
    _check_fd_step,
    adjoint_gradient,
    finite_difference_gradient,
    forward_sensitivity,
    gradient_agreement,
    worst_coordinate,
    write_gradient_check_csv,
)
from .studies import (
    reversibility_study,
    strong_convergence_study,
    write_convergence_csv,
)
from .wiener import TimeGrid, generate_path

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sdecontrol",
        description="Learn feedback controls for SDEs by path-wise gradient descent.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")

    p = sub.add_parser("train", help="train portfolio policies and export artifacts")
    common(p)
    p.add_argument("--nu", default=None, help="comma-separated risk weights override")

    p = sub.add_parser("grad-check", help="compare gradient estimators on a test system")
    common(p)
    p.add_argument("--system", default=None, choices=GRAD_CHECK_SYSTEMS)

    p = sub.add_parser("convergence", help="strong-order and reversibility studies")
    common(p)

    p = sub.add_parser("simulate", help="simulate trajectories under a saved policy")
    common(p)
    p.add_argument("--checkpoint", required=True, help="policy checkpoint file")

    p = sub.add_parser("policy-grid", help="export a saved policy on a state lattice")
    common(p)
    p.add_argument("--checkpoint", required=True, help="policy checkpoint file")

    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    if getattr(args, "nu", None):
        cfg["nu"] = parse_value("nu", args.nu)
    if getattr(args, "system", None):
        cfg["system"] = args.system
    return cfg


def _market_params(cfg, nu=0.0):
    return MarketParams(
        alpha=cfg["alpha"],
        r=cfg["r"],
        mu=cfg["mu"],
        sigma=cfg["sigma"],
        nu=nu,
        barrier_weight=cfg["barrier_weight"],
        horizon=cfg["horizon"],
        x0=(cfg["s0"], cfg["v0"]),
    )


def _train_config(cfg):
    return TrainConfig(
        grid=TimeGrid(0.0, cfg["horizon"], cfg["n_steps"]),
        batch_size=cfg["batch_size"],
        iterations=cfg["iterations"],
        learning_rate=cfg["learning_rate"],
        optimizer=cfg["optimizer"],
        direction="maximize",
        base_seed=cfg["base_seed"],
        checkpoint_every=cfg["checkpoint_every"],
    )


def cmd_train(cfg, args) -> int:
    results = run_experiment(
        _market_params(cfg),
        _train_config(cfg),
        nu_values=cfg["nu"],
        out_dir=args.out,
        hidden_dims=cfg["hidden_dims"],
        policy_seed=cfg["policy_seed"],
        eval_paths=cfg["eval_paths"],
        trajectory_dumps=cfg["trajectory_dumps"],
        grid_resolution=cfg["grid_resolution"],
        grid_s_range=(cfg["grid_s_min"], cfg["grid_s_max"]),
        grid_v_range=(cfg["grid_v_min"], cfg["grid_v_max"]),
    )
    for nu, res in results.items():
        s = res.stats
        print(
            f"nu={nu:g} objective={s.mean_objective:.6g} "
            f"mean_S_T={s.mean_terminal_stock:.6g} "
            f"solvency_crossings={s.solvency_crossing_fraction:.3g}"
        )
    return EXIT_OK


def cmd_grad_check(cfg, args) -> int:
    # Gates that no gradient pair can pass are rejected before any estimator.
    if not 0 <= cfg["grad_tol"] < np.inf:
        raise ConfigurationError(f"grad_tol must be >= 0 and finite, got {cfg['grad_tol']}")
    if not -1 <= cfg["cosine_tol"] <= 1:
        raise ConfigurationError(f"cosine_tol must lie in [-1, 1], got {cfg['cosine_tol']}")
    _check_fd_step(cfg["fd_step"], "fd_step")
    if cfg["system"] == "portfolio" and not cfg["nu"]:
        raise ConfigurationError("nu needs at least one risk weight")
    system, cost, x0, policy = build_grad_check_problem(
        cfg["system"],
        hidden_dims=cfg["grad_check_hidden"],
        policy_seed=cfg["policy_seed"],
        mu=cfg["mu"],
        sigma=cfg["sigma"],
        market=_market_params(cfg, nu=cfg["nu"][0]) if cfg["system"] == "portfolio" else None,
    )
    grid = TimeGrid(0.0, cfg["horizon"], cfg["grad_check_steps"])
    path = generate_path(cfg["base_seed"], grid, system.noise_dim)
    clock = [time.perf_counter()]
    fw = forward_sensitivity(system, policy, cost, x0, path)
    clock.append(time.perf_counter())
    ad = adjoint_gradient(system, policy, cost, x0, path)
    clock.append(time.perf_counter())
    fd = finite_difference_gradient(system, policy, cost, x0, path, h_rel=cfg["fd_step"])
    clock.append(time.perf_counter())
    fw_s, ad_s, fd_s = np.diff(clock)
    print(f"wall time: forward {fw_s:.3f}s, adjoint {ad_s:.3f}s, fd {fd_s:.3f}s")
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"gradcheck_{cfg['system']}.csv")
    with open(out_path, "w") as fh:
        write_gradient_check_csv(fd, fw, ad, fh)
    ok = True
    for name, a, b in (("forward/adjoint", fw.grad, ad.grad), ("adjoint/fd", ad.grad, fd.grad)):
        cosine, max_rel = gradient_agreement(a, b)
        line = f"{name}: cosine={cosine:.9f} max_rel={max_rel:.3e}"
        if not (cosine >= cfg["cosine_tol"] and max_rel <= cfg["grad_tol"]):  # NaN fails
            j = worst_coordinate(a, b)
            worst = "" if j is None else f" worst coord {j}: {a[j]:.10g} vs {b[j]:.10g}"
            print(f"FAIL {line}{worst}", file=sys.stderr)
            ok = False
        else:
            print(f"ok {line}")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_convergence(cfg, args) -> int:
    tic = time.perf_counter()
    study = strong_convergence_study(
        mu=cfg["mu"],
        sigma=cfg["sigma"],
        t_end=cfg["horizon"],
        min_exp=cfg["conv_min_exp"],
        max_exp=cfg["conv_max_exp"],
        n_paths=cfg["conv_paths"],
        seed=cfg["base_seed"],
    )
    conv_s = time.perf_counter() - tic
    tic = time.perf_counter()
    n_list, errs = reversibility_study(
        mu=cfg["mu"],
        sigma=cfg["sigma"],
        t_end=cfg["horizon"],
        min_exp=cfg["conv_min_exp"],
        n_halvings=cfg["reversal_halvings"],
        n_paths=cfg["reversal_paths"],
        seed=cfg["base_seed"],
    )
    rev_s = time.perf_counter() - tic
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "convergence.csv"), "w") as fh:
        write_convergence_csv(study, fh)
    bands = {"euler_maruyama": (0.5, 0.15), "milstein_ito": (1.0, 0.15)}
    ok = True
    with open(os.path.join(args.out, "convergence_orders.csv"), "w") as fh:
        fh.write("scheme,fitted_order\n")
        for scheme in sorted(study):
            order = study[scheme]["order"]
            fh.write(f"{scheme},{order:.17g}\n")
            target, tol = bands[scheme]
            if not abs(order - target) <= tol:  # a NaN order fails
                print(
                    f"FAIL {scheme}: fitted order {order:.3f} outside {target} +- {tol}",
                    file=sys.stderr,
                )
                ok = False
            else:
                print(f"ok {scheme}: fitted order {order:.3f}")
    print(f"wall time: convergence {conv_s:.3f}s, reversibility {rev_s:.3f}s")
    with open(os.path.join(args.out, "reversibility.csv"), "w") as fh:
        fh.write("n_steps,median_error\n")
        for n, e in zip(n_list, errs):
            fh.write(f"{n},{e:.17g}\n")
    if all(b < a for a, b in zip(errs, errs[1:])):
        print("ok reversibility: round-trip error decreases at every halving")
    else:
        print(f"FAIL reversibility: errors not decreasing: {errs}", file=sys.stderr)
        ok = False
    return EXIT_OK if ok else EXIT_FAILURE


def _load_checkpoint_policy(path, expected_inputs):
    policy = load_policy(path)
    if policy.n_in != expected_inputs or policy.n_out != 2:
        raise ConfigurationError(
            f"checkpoint architecture {policy.layer_dims} does not match the "
            f"portfolio system (expects {expected_inputs} inputs, 2 outputs)"
        )
    return policy


def cmd_simulate(cfg, args) -> int:
    n = cfg["n_paths"]
    policy = _load_checkpoint_policy(args.checkpoint, 2)
    grid = TimeGrid(0.0, cfg["horizon"], cfg["n_steps"])
    _, trajs = evaluate_policy(_market_params(cfg), policy, grid, n, cfg["base_seed"], n)
    os.makedirs(args.out, exist_ok=True)
    for k, traj in enumerate(trajs):
        with open(os.path.join(args.out, f"traj_seed{k}.csv"), "w") as fh:
            dump_trajectory_csv(traj, fh, ["S", "V"], ["u_i", "u_d"])
    print(f"wrote {n} trajectories to {args.out}")
    return EXIT_OK


def cmd_policy_grid(cfg, args) -> int:
    policy = _load_checkpoint_policy(args.checkpoint, 2)
    rows = policy_grid(
        policy,
        (cfg["grid_s_min"], cfg["grid_s_max"]),
        (cfg["grid_v_min"], cfg["grid_v_max"]),
        cfg["grid_resolution"],
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "policygrid.csv")
    with open(out_path, "w") as fh:
        write_policy_grid_csv(rows, fh)
    print(f"wrote {rows.shape[0]} rows to {out_path}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "grad-check": cmd_grad_check,
    "convergence": cmd_convergence,
    "simulate": cmd_simulate,
    "policy-grid": cmd_policy_grid,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return _COMMANDS[args.verb](cfg, args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SdeControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
