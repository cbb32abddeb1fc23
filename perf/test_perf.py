"""Tests of the benchmark itself, on tiny inputs; no timing assertions.

    python3 -m pytest perf/test_perf.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = dataclasses.replace(
    workloads.FULL,
    train_paths=8,
    train_steps=20,
    train_iterations=3,
    train_hidden=(8, 8),
    heldout_paths=50,
    eval_paths=6,
    eval_steps=20,
    grid_resolution=3,
    grad_steps=16,
    grad_hidden=(4,),
    setup_repeats=1,
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return harness.load_library()


def tiny(lib, cls, tmp_path, seed=1):
    wl = cls(lib, seed, TINY, tmp_path)
    return wl, wl.setup()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(lib, tmp_path, workload, trace):
    result = harness.run(lib, workload, seed=1, seconds=0.0, trace=trace, scale=TINY, out_root=tmp_path)
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.self_sum_ms"] == pytest.approx(m["trace.op_ms"], rel=1e-9)
        assert m["trace.op_ms"] > 0 and (tmp_path / f"{workload}-seed1-trace1" / "trace.npz").is_file()


def test_layers_are_attributed_to_the_workloads_that_call_them(lib, tmp_path):
    def layers(workload):
        result = harness.run(lib, workload, seed=2, seconds=0.0, trace=1, scale=TINY, out_root=tmp_path)
        return {k: v["value"] for k, v in result["metrics"].items()}

    train, evaluate = layers("train"), layers("evaluate")
    grad, fd = layers("grad-check"), layers("fd-check")
    assert train["policy.vjp.calls"] > 0 and train["optim.adam_update.ms"] > 0
    assert 0 < train["optim.valid_path_ratio"] <= 1 and train["sensitivity.adjoint_core.peak_mb"] > 0
    assert evaluate["sdecore.dump_trajectory_csv.ms"] > 0 and evaluate["policy.vjp.calls"] == 0
    assert evaluate["policy.control.calls"] == evaluate["policy.control.rows"]
    assert grad["policy.jacobian_params.ms"] > 0 and grad["sensitivity.adjoint_core.peak_mb"] > 0
    assert grad["sensitivity.finite_difference_gradient.ms"] == 0 and grad["optim.adam_update.ms"] == 0
    assert fd["sensitivity.finite_difference_gradient.peak_mb"] > 0 and fd["policy.jacobian_params.ms"] == 0


def test_scaled_adjoint_fails_the_gradient_checks(lib, tmp_path, monkeypatch):
    checks = [tiny(lib, cls, tmp_path) for cls in (workloads.GradCheck, workloads.FdCheck)]
    for wl, inputs in checks:
        assert wl.check_round(inputs, wl.round(inputs, 0, workloads.untimed), None) == []
    train, train_inputs = tiny(lib, workloads.Train, tmp_path)
    run, policy = train_inputs["runs"][1], train._fresh_policy()
    assert train.check_projection(run, policy, train_inputs) == []

    real_adjoint, real_batch = lib.sensitivity.adjoint_gradient, lib.optim.batch_gradient

    def scaled_adjoint(*args, **kwargs):
        report = real_adjoint(*args, **kwargs)
        return dataclasses.replace(report, grad=report.grad * 1.01)

    def scaled_batch(*args, **kwargs):
        grad, cost, n_div = real_batch(*args, **kwargs)
        return grad * 1.01, cost, n_div

    monkeypatch.setattr(lib.sensitivity, "adjoint_gradient", scaled_adjoint)
    monkeypatch.setattr(lib.optim, "batch_gradient", scaled_batch)
    (grad, grad_inputs), (fd, fd_inputs) = checks
    for (wl, inputs), what in zip(checks, ("forward vs adjoint", "adjoint vs FD")):
        assert any(what in p for p in wl.check_round(inputs, wl.round(inputs, 0, workloads.untimed), None))
    assert any("adjoint projection" in p for p in train.check_projection(run, policy, train_inputs))


def test_dropped_path_fails_the_statistics_check(lib, tmp_path):
    wl, inputs = tiny(lib, workloads.Evaluate, tmp_path)
    stats, kept, _ = wl.step(inputs, TINY.eval_paths)
    states = np.stack([t.states for t in kept])
    assert workloads.stats_problems(stats, states, inputs["grid"].dt) == []
    assert workloads.stats_problems(stats, states[1:], inputs["grid"].dt) != []


def test_moved_step_fails_the_replay_check(lib, tmp_path):
    wl, inputs = tiny(lib, workloads.Evaluate, tmp_path)
    r = wl.round(inputs, 0, workloads.untimed)
    assert wl.check_round(inputs, r, r) == []
    _, kept, _ = r.outputs[0]
    kept[0].states[7, 0] += 1e-9
    assert any("Milstein update" in p for p in wl.replay_problems(inputs, kept[:1]))


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
