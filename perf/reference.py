"""The benchmark's own formulas, written apart from the library, that its
checks compare the library's outputs against.

The market is the two-asset portfolio of the README: stock S, bank V,
controls u = (u_i, u_d) = (purchase rate, sale rate), Ito SDE

    dS = (mu S + u_i - u_d) dt + sigma S dB
    dV = (r V - u_i + (1 - alpha) u_d) dt

and the maximized objective

    int_0^T [r V + mu S - nu sigma S^2 + solvency(G)] dt + r V_T + mu S_T,

G = V + (1 - alpha) S, with solvency(G) = beta log G at nu = 0 and
-beta eps softplus(-G / eps), eps = sigma G_0, at nu > 0.  Time integrals
are left-endpoint sums on the uniform grid.
"""

from __future__ import annotations

import time

import numpy as np

# Market constants of the reference experiment (the README's defaults).
MARKET = {"alpha": 0.05, "r": 0.04, "mu": 0.23, "sigma": 0.18, "horizon": 1.0, "x0": (1.0, 0.0)}
BARRIER_WEIGHT = 50.0


def mlp_control(weights, biases, x):
    """tanh hidden layers, softplus output; x has shape (..., 2)."""
    a = np.asarray(x, dtype=float)
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        a = np.tanh(z) if k < len(weights) - 1 else np.logaddexp(0.0, z)
    return a


def milstein_next(m, dt, s, v, u, db):
    """One Ito-Milstein step of (S, V); arrays broadcast."""
    ui, ud = u[..., 0], u[..., 1]
    sigma = m["sigma"]
    s_next = s + (m["mu"] * s + ui - ud) * dt + sigma * s * db + 0.5 * sigma * sigma * s * (db * db - dt)
    v_next = v + (m["r"] * v - ui + (1.0 - m["alpha"]) * ud) * dt
    return s_next, v_next


def gap(m, s, v):
    return v + (1.0 - m["alpha"]) * s


def running_reward(m, nu, beta, s, v):
    out = m["r"] * v + m["mu"] * s - nu * m["sigma"] * s * s
    g = gap(m, s, v)
    if nu == 0.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            return out + beta * np.where(g > 0, np.log(np.where(g > 0, g, 1.0)), np.nan)
    eps = m["sigma"] * gap(m, *m["x0"])
    return out - beta * eps * np.logaddexp(0.0, -g / eps)


def path_summaries(m, nu, beta, states, dt):
    """Per-path (objective, stock penalty, crossed) from states of shape
    (n_paths, n_steps + 1, 2)."""
    s, v = states[..., 0], states[..., 1]
    run = running_reward(m, nu, beta, s[:, :-1], v[:, :-1])
    objective = run.sum(axis=1) * dt + m["r"] * v[:, -1] + m["mu"] * s[:, -1]
    penalty = (m["sigma"] * s[:, :-1] ** 2).sum(axis=1) * dt
    crossed = (gap(m, s, v) < 0).any(axis=1)
    return objective, penalty, crossed


def simulate(m, weights, biases, increments, dt):
    """States (n_paths, n_steps + 1, 2) under the feedback policy, all paths
    at once; increments has shape (n_paths, n_steps)."""
    n, k = increments.shape
    states = np.empty((n, k + 1, 2))
    s = np.full(n, float(m["x0"][0]))
    v = np.full(n, float(m["x0"][1]))
    states[:, 0, 0], states[:, 0, 1] = s, v
    with np.errstate(all="ignore"):
        for j in range(k):
            u = mlp_control(weights, biases, np.stack([s, v], axis=-1))
            s, v = milstein_next(m, dt, s, v, u, increments[:, j])
            states[:, j + 1, 0], states[:, j + 1, 1] = s, v
    return states


def agreement(a, b, floor=1e-8):
    """(cosine, max coordinate-relative error over |.| > floor)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    mags = np.maximum(np.abs(a), np.abs(b))
    mask = mags > floor
    return cosine, float(np.max(np.abs(a - b)[mask] / mags[mask])) if mask.any() else 0.0


def relative_gap(a, b):
    a, b = float(a), float(b)
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


class SpeedProbe:
    """A fixed amount of the benchmark's own numpy work, timed: the
    integrator above with a 32-wide three-hidden-layer network on a narrow
    batch, so per-call overhead dominates, as in the library's per-path
    loops and batch-1 sweeps.  Its arrays stay far below glibc's mmap
    threshold: a 1000-row batch ran 1.6-1.75 times faster once the process
    had freed one 30 MB array, so its time told the process's allocation
    history rather than the machine's speed."""

    def __init__(self, repeats=16):
        rng = np.random.Generator(np.random.Philox(key=2024))
        dims = [2, 32, 32, 32, 2]
        self.weights = [rng.uniform(-1, 1, (o, i)) / np.sqrt(i) for i, o in zip(dims[:-1], dims[1:])]
        self.biases = [np.zeros(o) for o in dims[1:]]
        self.increments = rng.standard_normal((20, 60)) * 0.1
        self.repeats = repeats

    def __call__(self):
        """Seconds the work takes now."""
        t0 = time.perf_counter()
        for _ in range(self.repeats):
            simulate(MARKET, self.weights, self.biases, self.increments, 0.01)
        return time.perf_counter() - t0
