"""Mini-batch gradient descent/ascent over policy parameters.

Each iteration draws a fresh batch of Wiener paths with seeds derived
deterministically from (base_seed, iteration, path index), averages the
path-wise adjoint gradients, and applies an SGD or Adam update.  Diverged
paths are dropped and counted; a batch where more than half of the paths
diverge is a hard failure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .config import DEFAULTS
from .errors import BatchFailureError, ConfigurationError
from .policy import save_policy
from .sdecore import _write_csv
# forward_sensitivity is not called here; it stays a name of this module
# because perf/spans.py wraps it wherever callers may look it up.
from .sensitivity import adjoint_core, forward_sensitivity  # noqa: F401
from .wiener import TimeGrid, _check_integer, generate_path

__all__ = [
    "OptimizerState",
    "TrainConfig",
    "TrainLog",
    "path_seed",
    "evaluation_seed",
    "batch_gradient",
    "sgd_update",
    "adam_update",
    "train",
]

# Seed stride between iterations; path seeds never collide while the batch
# size stays below it.
_SEED_STRIDE = 1 << 20
_EVAL_OFFSET = 1 << 40
# The most iterations whose path seeds all stay below the evaluation stream:
# iteration 2**20 - 1 would start at base_seed + 2**40 = evaluation_seed(base_seed, 0).
_MAX_ITERATIONS = _EVAL_OFFSET // _SEED_STRIDE - 1
# Adam's moment decay rates and denominator offset.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def path_seed(base_seed: int, iteration: int, index: int) -> int:
    """Deterministic, collision-free seed for path `index` of `iteration`."""
    return base_seed + (iteration + 1) * _SEED_STRIDE + index


def evaluation_seed(base_seed: int, index: int) -> int:
    """Seeds for evaluation paths, disjoint from every training stream."""
    return base_seed + _EVAL_OFFSET + index


@dataclass
class OptimizerState:
    kind: str = DEFAULTS["optimizer"]
    learning_rate: float = DEFAULTS["learning_rate"]
    direction: str = "minimize"
    step_count: int = 0
    adam_m: Optional[np.ndarray] = None
    adam_v: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigurationError(f"unknown optimizer kind {self.kind!r}")
        if self.direction not in ("minimize", "maximize"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )

    @property
    def sign(self) -> float:
        return -1.0 if self.direction == "minimize" else 1.0


def _check_update(theta, grad):
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if theta.shape != grad.shape:
        raise ConfigurationError(
            f"gradient shape {grad.shape} != parameter shape {theta.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise ConfigurationError("update rejected: non-finite gradient")
    return theta, grad


def sgd_update(state: OptimizerState, theta, grad) -> np.ndarray:
    """theta -+ lr * grad (minus when minimizing, plus when maximizing)."""
    theta, grad = _check_update(theta, grad)
    state.step_count += 1
    return theta + state.sign * state.learning_rate * grad


def adam_update(state: OptimizerState, theta, grad) -> np.ndarray:
    """Standard Adam with bias correction; moments start at zero.  A moment
    that overflows rejects the update and leaves ``state`` unchanged."""
    theta, grad = _check_update(theta, grad)
    m = np.zeros_like(theta) if state.adam_m is None else state.adam_m
    v = np.zeros_like(theta) if state.adam_v is None else state.adam_v
    with np.errstate(over="ignore"):
        m = _ADAM_BETA1 * m + (1 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1 - _ADAM_BETA2) * grad**2
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
        raise ConfigurationError("update rejected: non-finite Adam moment")
    state.adam_m, state.adam_v = m, v
    state.step_count += 1
    t = state.step_count
    m_hat = state.adam_m / (1 - _ADAM_BETA1**t)
    v_hat = state.adam_v / (1 - _ADAM_BETA2**t)
    return theta + state.sign * state.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def apply_update(state: OptimizerState, theta, grad) -> np.ndarray:
    return (sgd_update if state.kind == "sgd" else adam_update)(state, theta, grad)


@dataclass
class TrainConfig:
    grid: TimeGrid
    batch_size: int = DEFAULTS["batch_size"]
    iterations: int = DEFAULTS["iterations"]
    learning_rate: float = DEFAULTS["learning_rate"]
    optimizer: str = DEFAULTS["optimizer"]
    direction: str = "minimize"
    base_seed: int = DEFAULTS["base_seed"]
    checkpoint_every: int = DEFAULTS["checkpoint_every"]
    checkpoint_dir: Optional[str] = None

    def __post_init__(self):
        for name in ("batch_size", "iterations", "checkpoint_every", "base_seed"):
            _check_integer(name, getattr(self, name))
        if self.batch_size < 1 or self.iterations < 1:
            raise ConfigurationError("batch_size and iterations must be >= 1")
        if self.batch_size > _SEED_STRIDE:
            raise ConfigurationError(
                f"batch_size {self.batch_size} exceeds {_SEED_STRIDE}: path seeds "
                "would collide across iterations"
            )
        if self.iterations > _MAX_ITERATIONS:
            raise ConfigurationError(
                f"iterations {self.iterations} exceeds {_MAX_ITERATIONS}: training path "
                "seeds would reach the evaluation stream"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0 (0 = off), got {self.checkpoint_every}"
            )
        # Building the optimizer state checks kind, direction and learning
        # rate before any training work.
        OptimizerState(
            kind=self.optimizer, learning_rate=self.learning_rate, direction=self.direction
        )


@dataclass
class TrainLog:
    records: List[dict] = field(default_factory=list)

    def append(self, **record):
        self.records.append(record)

    def column(self, name):
        return np.array([r[name] for r in self.records])

    def to_csv(self, fileobj):
        """One row per iteration.  Wall time is left out so that reruns with
        identical seeds produce bit-identical files."""
        cols = ["iteration", "mean_cost", "grad_norm", "n_diverged"]
        _write_csv(fileobj, cols, ([r[c] for c in cols] for r in self.records))


def batch_gradient(system, policy, cost, x0, base_seed, iteration, n_paths, grid):
    """Mean path-wise adjoint gradient and cost over a fresh batch of paths.

    All paths share one batched forward/backward sweep, ``adjoint_core``,
    whose layer products are summed over the valid paths and a block of
    steps inside one gemm per layer per block; the sum is divided by the
    number of valid paths.  Paths that diverge, or whose cost or costate
    comes out non-finite (e.g. a crossed log barrier), are dropped and
    counted, so the mean is conditional on survival: a lane that crosses the
    barrier costs the step nothing.  More than 50% drops raise
    BatchFailureError, which names the seeds of the dropped paths.

    Returns (mean_grad, mean_cost, n_diverged).
    """
    _check_integer("base_seed", base_seed)
    _check_integer("n_paths", n_paths)
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    seeds = [path_seed(base_seed, iteration, i) for i in range(n_paths)]
    increments = np.stack(
        [generate_path(s, grid, system.noise_dim).increments for s in seeds], axis=1
    )  # (n_steps, N, n_xi)
    x0b = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    grad_sum, costs, valid, _ = adjoint_core(system, policy, cost, x0b, increments, grid, check="none")
    n_valid = int(valid.sum())
    n_diverged = n_paths - n_valid
    if n_valid * 2 < n_paths:
        dropped = [s for s, ok in zip(seeds, valid) if not ok]
        named = ", ".join(map(str, dropped[:5]))
        if len(dropped) > 5:
            named += f" and {len(dropped) - 5} more"
        raise BatchFailureError(
            f"{n_diverged}/{n_paths} paths diverged in iteration {iteration} "
            f"(dropped seeds {named})",
            iteration=iteration,
        )
    return grad_sum / n_valid, float(costs[valid].mean()), n_diverged


def train(system, policy, cost, x0, config: TrainConfig):
    """Run the full batch-gradient / update loop; returns (policy, TrainLog).

    Deterministic in (config.base_seed, initial parameters): the log and the
    final parameters are reproducible bit-for-bit.  With
    ``config.checkpoint_every`` > 0 the policy is saved every that many
    iterations to ``config.checkpoint_dir``/checkpoint_<iteration>.txt.  The
    directory, with any missing parents, is made before iteration 0; a
    missing directory name, or a path that cannot be made a directory,
    raises ConfigurationError before then.
    """
    if config.checkpoint_every:
        if not config.checkpoint_dir:
            raise ConfigurationError("checkpoint_every > 0 needs a checkpoint_dir")
        try:
            os.makedirs(config.checkpoint_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot make checkpoint directory {config.checkpoint_dir}: {exc.strerror}"
            ) from exc
    state = OptimizerState(
        kind=config.optimizer,
        learning_rate=config.learning_rate,
        direction=config.direction,
    )
    log = TrainLog()
    theta = policy.get_params()
    for it in range(config.iterations):
        tic = time.perf_counter()
        grad, mean_cost, n_div = batch_gradient(
            system, policy, cost, x0, config.base_seed, it, config.batch_size, config.grid
        )
        theta = apply_update(state, theta, grad)
        policy.set_params(theta)
        log.append(
            iteration=it,
            mean_cost=mean_cost,
            grad_norm=float(np.linalg.norm(grad)),
            n_diverged=n_div,
            wall_ms=(time.perf_counter() - tic) * 1e3,
        )
        if config.checkpoint_every and (it + 1) % config.checkpoint_every == 0:
            save_policy(policy, f"{config.checkpoint_dir}/checkpoint_{it + 1:05d}.txt")
    return policy, log
