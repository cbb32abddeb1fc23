"""Spans recorded from outside the library, by wrapping its public callables.

The library is not edited.  ``Instrumentation`` replaces each traced callable
at every place a caller looks it up (callers import ``sdecore`` and
``sensitivity`` functions by name, so ``sensitivity.step_partials`` is patched
as well as ``sdecore.step_partials``), replaces ``MlpPolicy`` methods on the
class, and wraps the callbacks of every system and cost that
``portfolio.build_system`` / ``portfolio.build_cost`` return while installed.

A span records name, start, end and parent.  Spans are kept in flat arrays in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

SYSTEM_CALLBACKS = (
    "drift",
    "diffusion",
    "drift_dx",
    "drift_du",
    "diffusion_dx",
    "diffusion_du",
    "milstein_dx",
    "milstein_du",
)
COST_CALLBACKS = (
    "running",
    "terminal",
    "running_dx",
    "running_du",
    "terminal_dx",
    "terminal_du",
)
POLICY_METHODS = ("control", "vjp_input", "vjp_params_layers", "jacobian_input", "jacobian_params")
# Layers whose peak traced allocation is measured in the memory phase.
PEAK_LAYERS = ("sensitivity.adjoint_core", "sensitivity.finite_difference_gradient")


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """In-memory span store.  Spans are recorded only while ``active``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.counts = {}
        self.peaks_mb = {}
        self._clock = time.perf_counter

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name, fn, counter=None):
        """``fn`` recording one span per call.  ``counter(args, kwargs,
        result)`` runs after a call returns, outside the timed interval."""
        nid = self.name_index(name)
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, name):
        """Root span around one timed operation; yields [start, end]."""
        idx = self._open(self.name_index(name))
        interval = [self._clock(), None]
        try:
            yield interval
        finally:
            interval[1] = self._clock()
            self._close(idx, interval[0], interval[1])

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds; plus the
        root-interval total and the sum of every span's self time."""
        name_id, parent, start, end = self.arrays()
        n, k = name_id.size, len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        per_name = {
            name: {
                "calls": int(c),
                "s": float(d),
                "self_s": float(s),
            }
            for name, c, d, s in zip(
                self.names,
                np.bincount(name_id, minlength=k),
                np.bincount(name_id, weights=dur, minlength=k),
                np.bincount(name_id, weights=self_time, minlength=k),
            )
        }
        inside = np.ones(n, dtype=bool)
        p = parent[has_parent]
        inside[has_parent] = (start[has_parent] >= start[p]) & (end[has_parent] <= end[p])
        return {
            "per_name": per_name,
            "root_s": float(dur[~has_parent].sum()),
            "self_sum_s": float(self_time.sum()),
            "min_self_s": float(self_time.min()) if n else 0.0,
            "nested": bool(inside.all()),
            "name_id": name_id,
            "parent": parent,
            "dur": dur,
        }


def child_time(summary, names, parent_name, child_name):
    """Total seconds of ``child_name`` spans whose parent is a ``parent_name`` span."""
    name_id, parent, dur = summary["name_id"], summary["parent"], summary["dur"]
    if parent_name not in names or child_name not in names:
        return 0.0
    pid, cid = names.index(parent_name), names.index(child_name)
    mask = (name_id == cid) & (parent >= 0)
    mask[mask] = name_id[parent[mask]] == pid
    return float(dur[mask].sum())


class Instrumentation:
    """Installs and removes the wrappers on one set of library modules."""

    def __init__(self, mods, tracer):
        self.mods = mods
        self.tracer = tracer
        self._saved = []
        t = tracer
        policy_counter = self._policy_counter
        self.functions = [
            ("wiener.generate_path", [mods.wiener, mods.optim, mods.portfolio], "generate_path", None),
            ("sdecore.forward_states", [mods.sdecore, mods.sensitivity], "forward_states", None),
            ("sdecore.step_control", [mods.sdecore], "step_control", None),
            ("sdecore.step_partials", [mods.sdecore, mods.sensitivity], "step_partials", None),
            ("sdecore.dump_trajectory_csv", [mods.sdecore, mods.portfolio], "dump_trajectory_csv", None),
            ("sensitivity.adjoint_core", [mods.sensitivity, mods.optim], "adjoint_core", None),
            ("sensitivity.forward_sensitivity", [mods.sensitivity, mods.optim], "forward_sensitivity", None),
            ("sensitivity.finite_difference_gradient", [mods.sensitivity], "finite_difference_gradient", None),
            ("sensitivity.eval_cost", [mods.sensitivity], "eval_cost", None),
            ("optim.train", [mods.optim, mods.portfolio], "train", None),
            ("optim.batch_gradient", [mods.optim], "batch_gradient", self._lane_counter),
            ("optim.adam_update", [mods.optim], "adam_update", None),
            ("portfolio.evaluate_policy", [mods.portfolio], "evaluate_policy", None),
            ("portfolio.policy_grid", [mods.portfolio], "policy_grid", None),
            ("portfolio.write_policy_grid_csv", [mods.portfolio], "write_policy_grid_csv", None),
        ]
        self.methods = [
            (f"policy.{m}", mods.policy.MlpPolicy, m, functools.partial(policy_counter, m))
            for m in POLICY_METHODS
        ]
        self.builders = [
            ("portfolio.system", "build_system", SYSTEM_CALLBACKS),
            ("portfolio.cost", "build_cost", COST_CALLBACKS),
        ]
        for name, *_ in self.functions + self.methods + self.builders:
            t.name_index(name)

    def _policy_counter(self, method, args, kwargs, result):
        # args[0] is the policy; the state is control(t, x), else the first argument.
        rows = _rows(args[2] if method == "control" else args[1])
        self.tracer.count("policy.forward_rows", rows)
        if method == "control":
            self.tracer.count("policy.control.rows", rows)

    def _lane_counter(self, args, kwargs, result):
        n_paths = kwargs["n_paths"] if "n_paths" in kwargs else args[6]
        self.tracer.count("optim.lanes", n_paths)
        self.tracer.count("optim.lanes_kept", n_paths - result[2])

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_built(self, name, fn, fields):
        tracer = self.tracer

        @functools.wraps(fn)
        def build(*args, **kwargs):
            obj = fn(*args, **kwargs)
            for f in fields:
                cb = getattr(obj, f)
                if cb is not None:
                    setattr(obj, f, tracer.wrap(name, cb))
            return obj

        return build

    def install(self):
        t = self.tracer
        for name, owners, attr, counter in self.functions:
            wrapped = t.wrap(name, getattr(owners[0], attr), counter)
            for owner in owners:
                self._set(owner, attr, wrapped)
        for name, cls, attr, counter in self.methods:
            self._set(cls, attr, t.wrap(name, cls.__dict__[attr], counter))
        for name, attr, fields in self.builders:
            self._set(self.mods.portfolio, attr, self._wrap_built(name, getattr(self.mods.portfolio, attr), fields))

    def install_peaks(self):
        """Wrap the layers in PEAK_LAYERS with a tracemalloc peak probe."""
        for name, owners, attr, _ in self.functions:
            if name in PEAK_LAYERS:
                probed = _peak_probe(self.tracer, name, getattr(owners[0], attr))
                for owner in owners:
                    self._set(owner, attr, probed)

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _peak_probe(tracer, name, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tracer.peaks_mb[name] = max(tracer.peaks_mb.get(name, 0.0), peak / 2**20)

    return probed
