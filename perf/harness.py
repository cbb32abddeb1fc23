"""Runs one workload for a fixed time and prints its metrics.

    python3 perf/run.py --workload {train,evaluate,grad-check,fd-check} --seed N
                        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout that holds this
directory, and from nowhere else.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  The same result,
with every sample, is written to ``perf/out/``.

``--trace 0`` reports the end-to-end metrics.  ``op_ms`` is the time of one
operation and ``setup_s`` the time of a fresh process that imports the
library and builds the workload's inputs, both at the reference speed: each
measured time is scaled by REFERENCE_PROBE_S over the time of the speed probe
(``reference.SpeedProbe``) measured right before and after it, and the median
is taken.  The FD oracle's array arithmetic does not slow down with the
probe, so fd-check's ``op_ms`` is the median raw wall time.  ``peak_rss_mb`` is the process's peak resident memory.
``--trace 1`` alternates untraced and traced rounds, reports per-layer
metrics from the traced ones (per operation), the tracing overhead, and the
peak traced allocation of the adjoint and finite-difference layers from one
extra operation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_PY = HERE / "run.py"
OUT = HERE / "out"
MODULES = ("errors", "wiener", "sdecore", "policy", "sensitivity", "optim", "portfolio", "benchmarks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# About the speed probe's time on a quiet core of the 2-vCPU VM the bounds
# were set on (36-45 ms); end-to-end times are reported at this probe speed.
REFERENCE_PROBE_S = 0.040

END_TO_END = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}
# Per-layer metric -> unit.  Times are per operation; "ms" is inclusive
# (children counted), "self_ms" excludes child spans.
PER_LAYER = {
    "wiener.generate_path.ms": "ms",
    "wiener.generate_path.calls": "count",
    "sdecore.forward_states.ms": "ms",
    "sdecore.forward_states.calls": "count",
    "sdecore.step_control.ms": "ms",
    "sdecore.step_control.calls": "count",
    "sdecore.step_partials.ms": "ms",
    "sdecore.step_partials.calls": "count",
    "sdecore.dump_trajectory_csv.ms": "ms",
    "policy.control.ms": "ms",
    "policy.control.calls": "count",
    "policy.control.rows": "count",
    "policy.vjp_params_layers.ms": "ms",
    "policy.vjp_input.ms": "ms",
    "policy.vjp.calls": "count",
    "policy.jacobian_params.ms": "ms",
    "policy.jacobian_input.ms": "ms",
    "policy.forward_rows": "count",
    "sensitivity.adjoint_core.ms": "ms",
    "sensitivity.adjoint_core.self_ms": "ms",
    "sensitivity.backward_over_forward": "ratio",
    "sensitivity.adjoint_core.peak_mb": "MB",
    "sensitivity.forward_sensitivity.ms": "ms",
    "sensitivity.forward_sensitivity.self_ms": "ms",
    "sensitivity.finite_difference_gradient.ms": "ms",
    "sensitivity.finite_difference_gradient.self_ms": "ms",
    "sensitivity.finite_difference_gradient.peak_mb": "MB",
    "sensitivity.eval_cost.ms": "ms",
    "portfolio.system.ms": "ms",
    "portfolio.system.calls": "count",
    "portfolio.cost.ms": "ms",
    "portfolio.cost.calls": "count",
    "portfolio.evaluate_policy.self_ms": "ms",
    "portfolio.policy_grid.ms": "ms",
    "portfolio.write_policy_grid_csv.ms": "ms",
    "optim.train.self_ms": "ms",
    "optim.batch_gradient.self_ms": "ms",
    "optim.adam_update.ms": "ms",
    "optim.valid_path_ratio": "ratio",
    "bench.part.self_ms": "ms",
    "probe.ms": "ms",
    "trace.op_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_pct": "%",
}


class UsageError(Exception):
    pass


def load_library():
    """The library modules, imported from this checkout's ``src/`` only."""
    if not (SRC / "sdecontrol" / "__init__.py").is_file():
        raise UsageError(f"no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"sdecontrol.{name}") for name in MODULES}
    origin = Path(importlib.import_module("sdecontrol").__file__).resolve().parent
    if origin != (SRC / "sdecontrol").resolve():
        raise UsageError(f"sdecontrol was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def environment():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_once(workload, seed):
    """Wall time of a fresh process that imports the library and builds the
    workload's inputs, then exits."""
    t0 = time.perf_counter()
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms.
    proc = subprocess.Popen(
        [sys.executable, str(RUN_PY), "--setup-only", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.DEVNULL,
    )
    code = proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return time.perf_counter() - t0


class Tally:
    """Operations, per-part samples and check results of a run's rounds.

    Each part of a round is timed on its own and stored with the speed-probe
    times measured just before and just after it.  Each round is checked as
    soon as it ends, outside the timed parts; only the first round's outputs
    are kept, for comparison.
    """

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.first = None
        self.rounds = self.attempted = self.failed = 0
        self.parts = {}  # part -> [(seconds, probe before, probe after)]
        self.problems = []

    def add(self, r):
        self.rounds += 1
        self.attempted += r.ops
        self.failed += r.failed
        self.ops_per_round = r.ops
        self.first = self.first or r
        self.problems += self.wl.check_round(self.inputs, r, self.first)

    def raw_op_ms(self):
        """Sum over a round's parts of each part's median wall time, per op."""
        total = sum(statistics.median(s for s, _, _ in v) for v in self.parts.values())
        return total * 1e3 / self.ops_per_round

    def op_ms(self):
        """Sum over a round's parts of each part's median time at the
        reference speed, per op; the raw time for workloads whose time does
        not follow the probe's."""
        if not self.wl.probe_scaled:
            return self.raw_op_ms()
        return sum(at_reference_speed(v) for v in self.parts.values()) * 1e3 / self.ops_per_round


def at_reference_speed(samples):
    """Median over (seconds, probe before, probe after) samples of the time
    scaled by REFERENCE_PROBE_S over the mean probe time around it."""
    return statistics.median(s * REFERENCE_PROBE_S / (0.5 * (b + a)) for s, b, a in samples)


def run_rounds(tally, probe, seconds, index, tracer=None, between=None):
    """Rounds until their timed parts reach ``seconds`` (at least one round).
    Returns the next round index and the seconds used."""
    used = 0.0

    def timed(part, fn, *args, **kwargs):
        nonlocal used
        before = probe.latest
        if tracer is None:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
        else:
            tracer.active = True
            try:
                with tracer.root("bench.part") as interval:
                    result = fn(*args, **kwargs)
            finally:
                tracer.active = False
            elapsed = interval[1] - interval[0]
        used += elapsed
        tally.parts.setdefault(part, []).append((elapsed, before, probe.measure()))
        return result

    while True:
        tally.add(tally.wl.round(tally.inputs, index, timed))
        index += 1
        if between is not None:
            between(used)
        if used >= seconds:
            return index, used


class Probe:
    """Times of the speed probe, measured after every timed part and set-up;
    shared by every tally of a run."""

    def __init__(self):
        self._probe = ref.SpeedProbe()
        self.times = [self._probe()]

    @property
    def latest(self):
        return self.times[-1]

    def measure(self):
        self.times.append(self._probe())
        return self.times[-1]


def measure(wl, workload, seed, seconds):
    inputs = wl.setup()
    wl.warmup(inputs)
    tally = Tally(wl, inputs)
    probe = Probe()
    setups = []  # [(seconds, probe before, probe after)]
    repeats = wl.scale.setup_repeats

    def sample_setups(used):
        while len(setups) < repeats and used >= len(setups) * seconds / repeats:
            before = probe.latest
            setups.append((setup_once(workload, seed), before, probe.measure()))

    # Set-ups are spread evenly between the rounds, so that they meet the
    # machine conditions the rounds meet.
    run_rounds(tally, probe, seconds, 0, between=sample_setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample_setups(float("inf"))
    values = {"setup_s": at_reference_speed(setups), "op_ms": tally.op_ms(), "peak_rss_mb": rss_mb}
    extra = {
        "raw_setup_s": [s for s, _, _ in setups],
        "raw_op_ms": tally.raw_op_ms(),
        "probe_s": probe.times,
    }
    return tally, values, extra


def measure_traced(wl, lib, seconds):
    """Alternate untraced and traced rounds, half of ``seconds`` each, then
    one memory-probe operation."""
    import spans

    tracer = spans.Tracer()
    inst = spans.Instrumentation(lib, tracer)
    plain = Tally(wl, wl.setup())
    wl.warmup(plain.inputs)
    inst.install()
    traced = Tally(wl, wl.setup())
    inst.remove()
    probe = Probe()
    used = {False: 0.0, True: 0.0}
    index = 0
    while not (traced.rounds and min(used.values()) >= seconds / 2.0):
        on = plain.rounds > 0 and used[False] >= used[True]
        if on:
            inst.install()
            try:
                index, spent = run_rounds(traced, probe, 0.0, index, tracer)
            finally:
                inst.remove()
        else:
            index, spent = run_rounds(plain, probe, 0.0, index)
        used[on] += spent
    inst.install_peaks()
    try:
        wl.memory(wl.setup())
    finally:
        inst.remove()
    return plain, traced, tracer, probe.times


def layer_metrics(tracer, plain, traced, probe_times):
    import spans

    summary = tracer.summary()
    per = summary["per_name"]
    ops = traced.attempted

    def ms(name, key="s"):
        return per.get(name, {}).get(key, 0.0) * 1e3 / ops

    def calls(name):
        return per.get(name, {}).get("calls", 0) / ops

    fwd_in_adjoint = spans.child_time(summary, tracer.names, "sensitivity.adjoint_core", "sdecore.forward_states")
    adjoint_s = per["sensitivity.adjoint_core"]["s"]
    lanes = tracer.counts.get("optim.lanes", 0)
    untraced_ms, traced_ms = plain.op_ms(), traced.op_ms()
    values = {
        "sensitivity.backward_over_forward": (adjoint_s - fwd_in_adjoint) / fwd_in_adjoint if fwd_in_adjoint else 0.0,
        "sensitivity.adjoint_core.peak_mb": tracer.peaks_mb.get("sensitivity.adjoint_core", 0.0),
        "sensitivity.finite_difference_gradient.peak_mb": tracer.peaks_mb.get(
            "sensitivity.finite_difference_gradient", 0.0
        ),
        "policy.vjp.calls": calls("policy.vjp_params_layers") + calls("policy.vjp_input"),
        "policy.control.rows": tracer.counts.get("policy.control.rows", 0) / ops,
        "policy.forward_rows": tracer.counts.get("policy.forward_rows", 0) / ops,
        "optim.valid_path_ratio": tracer.counts.get("optim.lanes_kept", 0) / lanes if lanes else 0.0,
        "trace.op_ms": summary["root_s"] * 1e3 / ops,
        "trace.self_sum_ms": summary["self_sum_s"] * 1e3 / ops,
        "trace.untraced_op_ms": plain.raw_op_ms(),
        "trace.overhead_pct": (traced_ms - untraced_ms) / untraced_ms * 100.0,
        "probe.ms": statistics.median(probe_times) * 1e3,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        name, _, kind = metric.rpartition(".")
        values[metric] = calls(name) if kind == "calls" else ms(name, "self_s" if kind == "self_ms" else "s")
    problems = []
    if not summary["nested"] or summary["min_self_s"] < -1e-9:
        problems.append("trace: a child span lies outside its parent")
    if abs(summary["self_sum_s"] - summary["root_s"]) > 1e-9 * max(1.0, summary["root_s"]):
        problems.append("trace: span self times do not add up to the traced wall time")
    return values, problems, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    import workloads

    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        lib = load_library()
    except (UsageError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload](lib, args.seed, workloads.FULL, OUT).setup()
        return 0
    result = run(lib, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(lib, workload, seed, seconds, trace, scale=None, out_root=OUT):
    """One benchmark run; returns the result dict (also written to disk)."""
    import workloads

    scale = scale or workloads.FULL
    out_dir = Path(out_root) / f"{workload}-seed{seed}-trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](lib, seed, scale, out_dir)
    if trace:
        plain, traced, tracer, probe_times = measure_traced(wl, lib, seconds)
        values, problems, summary = layer_metrics(tracer, plain, traced, probe_times)
        tracer.save(out_dir / "trace.npz")
        tallies, units = (plain, traced), PER_LAYER
        extra = {"spans": summary["per_name"], "untraced_parts_s": plain.parts, "traced_parts_s": traced.parts}
    else:
        tally, values, extra = measure(wl, workload, seed, seconds)
        tallies, units, problems = (tally,), END_TO_END, []
        extra["parts_s"] = tally.parts
    problems += [p for t in tallies for p in t.problems]
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "env": environment(),
        "problems": problems,
        **extra,
    }
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result
