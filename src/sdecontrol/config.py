"""Plain-text key=value configuration with documented defaults.

Every key has a typed default below, written only here (the library reads
``DEFAULTS``); unknown keys are hard errors so a typo in a hyperparameter
name cannot silently fall back to a default.  Lines starting with '#' and
blank lines are ignored; values may carry a trailing '# comment'.
"""

from __future__ import annotations

import os
from types import MappingProxyType

from .errors import ConfigurationError

__all__ = ["CONFIG_SPEC", "DEFAULTS", "default_config", "parse_value", "load_config"]


def _parse_float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


# key -> (parser, default, description)
CONFIG_SPEC = {
    # market
    "alpha": (float, 0.05, "proportional transaction cost on stock sales"),
    "r": (float, 0.04, "riskless interest rate"),
    "mu": (float, 0.23, "expected stock rate of return"),
    "sigma": (float, 0.18, "stock volatility"),
    "nu": (_parse_float_list, (0.0, 0.25, 0.5, 1.0), "risk-aversion weights to train"),
    "barrier_weight": (float, 50.0, "solvency weight: log barrier at nu=0, softplus penalty at nu>0"),
    "horizon": (float, 1.0, "time horizon T"),
    "n_steps": (int, 200, "time steps on [0, T]"),
    "s0": (float, 1.0, "initial stock value"),
    "v0": (float, 0.0, "initial bank value"),
    # policy
    "hidden_dims": (_parse_int_list, (32, 32, 32), "hidden layer widths"),
    "policy_seed": (int, 0, "seed for the initial policy parameters"),
    # training
    "iterations": (int, 100, "optimizer iterations"),
    "batch_size": (int, 50, "Monte Carlo paths per iteration"),
    "learning_rate": (float, 0.03, "optimizer learning rate"),
    "optimizer": (str, "adam", "optimizer kind: adam or sgd"),
    "base_seed": (int, 0, "base seed for training and evaluation path streams"),
    "checkpoint_every": (int, 0, "save a checkpoint every k iterations (0 = off)"),
    # evaluation / experiment
    "eval_paths": (int, 50, "fresh evaluation paths per trained policy"),
    "trajectory_dumps": (int, 3, "evaluation trajectories exported to CSV"),
    "grid_resolution": (int, 21, "policy-grid points per axis"),
    "grid_s_min": (float, 0.0, "policy-grid stock range lower bound"),
    "grid_s_max": (float, 2.0, "policy-grid stock range upper bound"),
    "grid_v_min": (float, -1.0, "policy-grid bank range lower bound"),
    "grid_v_max": (float, 1.0, "policy-grid bank range upper bound"),
    # gradient check
    "system": (str, "gbm", "gradient-check system: gbm or portfolio"),
    "grad_check_steps": (int, 1024, "time steps for gradient checks"),
    "grad_check_hidden": (_parse_int_list, (16,), "hidden widths for gradient checks"),
    "grad_tol": (float, 1e-3, "max relative coordinate error allowed"),
    "cosine_tol": (float, 0.999, "min cosine similarity allowed"),
    "fd_step": (float, 1e-5, "relative finite-difference step"),
    # convergence studies
    "conv_paths": (int, 200, "paths for the strong-convergence study"),
    "conv_min_exp": (int, 4, "smallest resolution 2^k"),
    "conv_max_exp": (int, 10, "largest resolution 2^k"),
    "reversal_paths": (int, 100, "paths for the reversibility study"),
    "reversal_halvings": (int, 4, "step halvings in the reversibility study"),
    # simulation
    "n_paths": (int, 3, "trajectories written by the simulate command"),
}

DEFAULTS = MappingProxyType({key: default for key, (_, default, _) in CONFIG_SPEC.items()})


def default_config() -> dict:
    return dict(DEFAULTS)


def parse_value(key: str, text: str):
    if key not in CONFIG_SPEC:
        raise ConfigurationError(f"unknown config key {key!r}")
    parser, _, _ = CONFIG_SPEC[key]
    try:
        return parser(text.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {text.strip()!r}") from exc


def load_config(path=None) -> dict:
    """Defaults overlaid with `key = value` lines from `path` (if given)."""
    cfg = default_config()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = parse_value(key.strip(), value)
    return cfg

