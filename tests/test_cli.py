"""Tests for the config loader and the command-line interface."""

import dataclasses
import inspect
import io
import re
from pathlib import Path

import numpy as np
import pytest

from sdecontrol import cli
from sdecontrol.benchmarks import build_grad_check_problem, controlled_gbm_system, gbm_system
from sdecontrol.cli import main
from sdecontrol.config import DEFAULTS, default_config, load_config, parse_value
from sdecontrol.errors import ConfigurationError
from sdecontrol.optim import OptimizerState, TrainConfig
from sdecontrol.portfolio import MarketParams, evaluate_policy, run_experiment
from sdecontrol.sensitivity import GradientReport, finite_difference_gradient
from sdecontrol.studies import reversibility_study, strong_convergence_study
from sdecontrol.wiener import TimeGrid

README = Path(__file__).resolve().parents[1] / "README.md"
_GBM = {"mu": "mu", "sigma": "sigma"}
# Function -> {parameter: the config key its default is}.
SIGNATURE_DEFAULTS = {
    gbm_system: _GBM,
    controlled_gbm_system: _GBM,
    build_grad_check_problem: {**_GBM, "hidden_dims": "grad_check_hidden", "policy_seed": "policy_seed"},
    strong_convergence_study: {
        **_GBM,
        "t_end": "horizon",
        "min_exp": "conv_min_exp",
        "max_exp": "conv_max_exp",
        "n_paths": "conv_paths",
        "seed": "base_seed",
    },
    reversibility_study: {
        **_GBM,
        "t_end": "horizon",
        "min_exp": "conv_min_exp",
        "n_halvings": "reversal_halvings",
        "n_paths": "reversal_paths",
        "seed": "base_seed",
    },
    finite_difference_gradient: {"h_rel": "fd_step"},
    evaluate_policy: {"seed_base": "base_seed"},
    run_experiment: {"policy_seed": "policy_seed"},
}

SMOKE = """
# fast smoke settings
iterations = 2
batch_size = 2
nu = 0.25
eval_paths = 2
trajectory_dumps = 1
grid_resolution = 2
n_steps = 20
grad_check_steps = 64
grad_check_hidden = 6
conv_paths = 50
conv_min_exp = 4
conv_max_exp = 8
reversal_paths = 40
reversal_halvings = 2
n_paths = 3
"""


@pytest.fixture
def smoke_cfg(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE)
    return str(path)


class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        assert cfg["alpha"] == 0.05
        assert cfg["nu"] == (0.0, 0.25, 0.5, 1.0)
        assert cfg["hidden_dims"] == (32, 32, 32)
        assert cfg["iterations"] == 100
        assert cfg["batch_size"] == 50
        assert cfg["learning_rate"] == 0.03

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learnign_rate = 0.03\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/path.cfg")

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# comment\nmu = 0.5  # inline\n\n")
        assert load_config(str(path))["mu"] == 0.5

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mu 0.5\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_default_config_is_a_copy_of_the_read_only_table(self):
        cfg = default_config()
        cfg["mu"] = 0.5
        assert DEFAULTS["mu"] == default_config()["mu"] != 0.5
        with pytest.raises(TypeError):
            DEFAULTS["mu"] = 0.5

    def test_market_and_training_defaults_are_the_table(self):
        cfg = default_config()
        market = MarketParams()
        for key in ("alpha", "r", "mu", "sigma", "barrier_weight", "horizon"):
            assert getattr(market, key) == cfg[key], key
        assert market.x0 == (cfg["s0"], cfg["v0"])
        train = TrainConfig(TimeGrid(0.0, 1.0, 4))
        for key in ("batch_size", "iterations", "learning_rate", "optimizer", "base_seed", "checkpoint_every"):
            assert getattr(train, key) == cfg[key], key
        state = OptimizerState()
        assert (state.kind, state.learning_rate) == (cfg["optimizer"], cfg["learning_rate"])

    @pytest.mark.parametrize("fn", SIGNATURE_DEFAULTS, ids=lambda fn: fn.__name__)
    def test_signature_defaults_are_the_table(self, fn):
        params = inspect.signature(fn).parameters
        got = {name: params[name].default for name in SIGNATURE_DEFAULTS[fn]}
        assert got == {name: default_config()[key] for name, key in SIGNATURE_DEFAULTS[fn].items()}

    def test_run_experiment_takes_the_grid_ranges_from_the_table(self):
        cfg, params = default_config(), inspect.signature(run_experiment).parameters
        assert params["grid_s_range"].default == (cfg["grid_s_min"], cfg["grid_s_max"])
        assert params["grid_v_range"].default == (cfg["grid_v_min"], cfg["grid_v_max"])
        # Sizes every caller passes have no default to drift from the table.
        for name in ("nu_values", "hidden_dims", "eval_paths", "trajectory_dumps", "grid_resolution"):
            assert params[name].default is inspect.Parameter.empty, name

    def test_readme_key_table_matches_the_defaults(self):
        # Each row's keys and defaults are backquoted, in the same order.
        table = README.read_text().split("| key | default | meaning |\n| --- | --- | --- |\n")[1]
        rows = []
        for line in table.splitlines():
            if not line.startswith("|"):
                break
            keys, defaults = (re.findall(r"`([^`]*)`", cell) for cell in line.split("|")[1:3])
            assert len(keys) == len(defaults), line
            rows += zip(keys, defaults)
        assert len(rows) >= 10
        wrong = [(key, text) for key, text in rows if parse_value(key, text) != default_config()[key]]
        assert wrong == []

    def test_parse_value_types(self):
        assert parse_value("nu", "0,0.5") == (0.0, 0.5)
        assert parse_value("hidden_dims", "8,8") == (8, 8)
        with pytest.raises(ConfigurationError):
            parse_value("iterations", "many")


    @pytest.mark.parametrize(
        "line",
        ["log_wall_time = true", "hidden_activation = softplus", "threads = 2", "estimator = forward"],
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, line):
        path = tmp_path / "old.cfg"
        path.write_text(line + "\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err


class TestCliContract:
    def test_unknown_verb_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        code = main(["train", "--config", missing, "--out", str(tmp_path)])
        assert code == 2
        assert missing in capsys.readouterr().err

    def test_train_smoke_writes_artifacts(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", smoke_cfg, "--out", str(out)])
        assert code == 0
        for name in (
            "trainlog_nu0.25.csv",
            "policy_nu0.25.txt",
            "traj_nu0.25_seed0.csv",
            "policygrid_nu0.25.csv",
        ):
            assert (out / name).exists(), name
        log = (out / "trainlog_nu0.25.csv").read_text().splitlines()
        assert len(log) == 1 + 2  # header + one row per iteration
        capsys.readouterr()

    def test_every_nu_keeps_its_checkpoints(self, smoke_cfg, tmp_path, capsys):
        # Two nu values trained with the same checkpoint names: each keeps
        # its own, and its last one is the policy it exported.
        with open(smoke_cfg, "a") as fh:
            fh.write("nu = 0.25, 0.5\ncheckpoint_every = 1\n")
        out = tmp_path / "out"
        assert main(["train", "--config", smoke_cfg, "--out", str(out)]) == 0
        for tag in ("0.25", "0.5"):
            last = out / f"checkpoints_nu{tag}" / "checkpoint_00002.txt"
            assert last.read_bytes() == (out / f"policy_nu{tag}.txt").read_bytes()
        capsys.readouterr()

    def test_grad_check_passes_on_gbm(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(out)])
        assert code == 0
        assert (out / "gradcheck_gbm.csv").exists()
        stdout = capsys.readouterr().out
        assert re.search(r"^wall time: forward \S+s, adjoint \S+s, fd \S+s$", stdout, re.M)

    def test_grad_check_portfolio_uses_config_market(self, smoke_cfg, tmp_path, capsys):
        from sdecontrol.benchmarks import build_grad_check_problem
        from sdecontrol.portfolio import MarketParams
        from sdecontrol.sensitivity import (
            adjoint_gradient,
            finite_difference_gradient,
            forward_sensitivity,
            write_gradient_check_csv,
        )
        from sdecontrol.wiener import TimeGrid, generate_path

        def run(extra):
            cfg = tmp_path / f"{extra or 'default'}.cfg"
            cfg.write_text("system = portfolio\ngrad_check_steps = 32\n" + extra)
            out = tmp_path / f"{extra or 'default'}"
            main(["grad-check", "--config", str(cfg), "--out", str(out)])
            return (out / "gradcheck_portfolio.csv").read_text()

        default, volatile = run(""), run("sigma = 0.5\n")
        assert default != volatile
        # The default config's market is the builder's default market.
        system, cost, x0, policy = build_grad_check_problem("portfolio", market=MarketParams(nu=0.0))
        path = generate_path(0, TimeGrid(0.0, 1.0, 32), 1)
        buf = io.StringIO()
        write_gradient_check_csv(
            finite_difference_gradient(system, policy, cost, x0, path),
            forward_sensitivity(system, policy, cost, x0, path),
            adjoint_gradient(system, policy, cost, x0, path),
            buf,
        )
        assert default == buf.getvalue()
        capsys.readouterr()

    def test_grad_check_portfolio_needs_a_nu(self, smoke_cfg, tmp_path, capsys):
        # The portfolio market is built at the first nu; with none, grad-check
        # exits 2 before any estimator runs, as train does.
        with open(smoke_cfg, "a") as fh:
            fh.write("system = portfolio\nnu =\n")
        out = tmp_path / "gc"
        assert main(["grad-check", "--config", smoke_cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: nu needs at least one risk weight" in err and "Traceback" not in err
        assert not out.exists()

    def test_grad_check_negative_control(self, smoke_cfg, tmp_path, capsys, monkeypatch):
        real_adjoint = cli.adjoint_gradient

        def scaled_adjoint(*args, **kwargs):
            report = real_adjoint(*args, **kwargs)
            return dataclasses.replace(report, grad=report.grad * 1.01)

        monkeypatch.setattr(cli, "adjoint_gradient", scaled_adjoint)
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "worst coord" in capsys.readouterr().err

    def test_grad_check_fail_line_names_a_counted_coordinate(
        self, smoke_cfg, tmp_path, capsys, monkeypatch
    ):
        # Coordinate 1 is below the 1e-8 floor that the gate ignores, yet its
        # ratio |a - b| / 1e-8 = 0.5 is larger than the failing coordinate 0's.
        exact = np.array([1.0, 5e-9])
        grads = {
            "forward_sensitivity": exact,
            "adjoint_gradient": exact,
            "finite_difference_gradient": np.array([1.01, 0.0]),
        }
        for name, grad in grads.items():
            report = GradientReport(grad=grad, cost_value=0.0)
            monkeypatch.setattr(cli, name, lambda *args, report=report, **kwargs: report)
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "ok forward/adjoint" in captured.out
        assert "FAIL adjoint/fd: cosine=" in captured.err
        assert "worst coord 0: 1 vs 1.01" in captured.err

    def test_grad_check_fail_line_without_a_counted_coordinate(
        self, smoke_cfg, tmp_path, capsys, monkeypatch
    ):
        # Every coordinate is below the floor, so only the cosine (-1) fails.
        tiny = np.array([1e-9, 0.0])
        grads = {
            "forward_sensitivity": tiny,
            "adjoint_gradient": tiny,
            "finite_difference_gradient": -tiny,
        }
        for name, grad in grads.items():
            report = GradientReport(grad=grad, cost_value=0.0)
            monkeypatch.setattr(cli, name, lambda *args, report=report, **kwargs: report)
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "FAIL adjoint/fd: cosine=-1.000000000 max_rel=0.000e+00\n" in err

    def test_grad_check_zero_adjoint_against_a_tiny_fd_gradient_fails(
        self, smoke_cfg, tmp_path, capsys, monkeypatch
    ):
        # Every coordinate is below the floor, and a zero vector is parallel
        # to no other: the adjoint/fd cosine is 0.
        grads = {
            "forward_sensitivity": np.zeros(2),
            "adjoint_gradient": np.zeros(2),
            "finite_difference_gradient": np.array([1e-9, -1e-9]),
        }
        for name, grad in grads.items():
            report = GradientReport(grad=grad, cost_value=0.0)
            monkeypatch.setattr(cli, name, lambda *args, report=report, **kwargs: report)
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "ok forward/adjoint: cosine=1.000000000" in captured.out
        assert "FAIL adjoint/fd: cosine=0.000000000 max_rel=0.000e+00\n" in captured.err

    @pytest.mark.parametrize(
        "line, shown",
        [
            ("horizon = inf", "t_end must be finite, got inf"),
            ("sigma = inf", "sigma must be finite, got inf"),
            ("mu = nan", "mu must be finite, got nan"),
            ("sigma = 1e300", "sigma must have a finite sigma^2 / 2, got 1e+300"),
            ("sigma = 0", "sigma must be > 0"),
        ],
    )
    def test_grad_check_non_finite_gbm_input_exits_2_before_estimators(
        self, smoke_cfg, tmp_path, capsys, monkeypatch, line, shown
    ):
        def no_estimator(*args, **kwargs):
            raise AssertionError("an estimator ran")

        for name in ("forward_sensitivity", "adjoint_gradient", "finite_difference_gradient"):
            monkeypatch.setattr(cli, name, no_estimator)
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        out = tmp_path / "gc"
        assert main(["grad-check", "--config", smoke_cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {shown}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "eval_paths = 0",
            "trajectory_dumps = -1",
            "checkpoint_every = -1",
            "grid_resolution = 1",
            "grid_s_max = inf",
            "nu = ",
            "mu = nan",
            "r = inf",
            "nu = nan",
            "alpha = nan",
            "barrier_weight = nan",
            "barrier_weight = -1",
            "horizon = inf",
            "sigma = 1e300",
            "s0 = nan",
            "trajectory_dumps = 3",
            "grid_resolution = 1000000",
        ],
    )
    def test_bad_experiment_size_exits_2_before_training(self, smoke_cfg, tmp_path, capsys, line):
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        out = tmp_path / "out"
        assert main(["train", "--config", smoke_cfg, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/trainlog_*.csv"))
        assert not out.exists()

    def test_overflowing_adam_moment_exits_2(self, smoke_cfg, tmp_path, capsys):
        # The barrier gradient squared overflows Adam's second moment: the
        # run stops with exit 2 rather than take a step zeroed where it did.
        with open(smoke_cfg, "a") as fh:
            fh.write("barrier_weight = 1e300\n")
        assert main(["train", "--config", smoke_cfg, "--out", str(tmp_path / "out")]) == 2
        assert "non-finite Adam moment" in capsys.readouterr().err

    def test_iterations_reaching_the_evaluation_stream_exit_2(self, smoke_cfg, tmp_path, capsys):
        with open(smoke_cfg, "a") as fh:
            fh.write(f"iterations = {2**20}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", smoke_cfg, "--out", str(out)]) == 2
        assert "evaluation stream" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "grad_tol = nan",
            "grad_tol = inf",
            "cosine_tol = nan",
            "cosine_tol = -inf",
            "fd_step = nan",
            "fd_step = inf",
            "fd_step = 0",
            "fd_step = -1e-5",
            "fd_step = 1e-300",
            "grad_tol = -1e-3",
            "cosine_tol = 1.5",
            "cosine_tol = -2",
        ],
    )
    def test_grad_check_bad_tolerance_or_step_exits_2_before_estimators(
        self, smoke_cfg, tmp_path, capsys, monkeypatch, line
    ):
        def no_estimator(*args, **kwargs):
            raise AssertionError("an estimator ran")

        for name in ("forward_sensitivity", "adjoint_gradient", "finite_difference_gradient"):
            monkeypatch.setattr(cli, name, no_estimator)
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        assert main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path / "gc")]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "gc").exists()

    def test_grad_check_gate_fails_on_nan_agreement(self, smoke_cfg, tmp_path, capsys, monkeypatch):
        # A NaN coordinate gives a NaN cosine, which no comparison with a
        # tolerance may pass.
        real_adjoint = cli.adjoint_gradient

        def nan_adjoint(*args, **kwargs):
            report = real_adjoint(*args, **kwargs)
            grad = report.grad.copy()
            grad[0] = np.nan
            return dataclasses.replace(report, grad=grad)

        monkeypatch.setattr(cli, "adjoint_gradient", nan_adjoint)
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("FAIL") == 2
        assert "ok " not in captured.out

    @pytest.mark.parametrize("agreement", [(np.nan, 0.0), (1.0, np.nan)], ids=["cosine", "max_rel"])
    def test_grad_check_gate_fails_on_nan_metric(self, smoke_cfg, tmp_path, capsys, monkeypatch, agreement):
        monkeypatch.setattr(cli, "gradient_agreement", lambda a, b: agreement)
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.count("FAIL") == 2

    @pytest.mark.parametrize(
        "verb, line, flags",
        [
            ("grad-check", "", ["--seed", "-1"]),
            ("grad-check", "", ["--seed", str(2**128)]),
            ("grad-check", "policy_seed = -1", []),
            ("train", "policy_seed = -1", []),
        ],
        ids=["grad-check-seed", "grad-check-big-seed", "grad-check-policy-seed", "train-policy-seed"],
    )
    def test_out_of_range_seed_exits_2(self, smoke_cfg, tmp_path, capsys, verb, line, flags):
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        assert main([verb, "--config", smoke_cfg, "--out", str(tmp_path / "out"), *flags]) == 2
        assert "seed must be in [0, 2**128)" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.csv"))

    def test_out_of_range_derived_seed_exits_2_before_training(self, smoke_cfg, tmp_path, capsys):
        # The base seed is in range, but evaluation_seed(base, 0) = base + 2**40
        # is not; the run fails before it trains or writes anything.
        out = tmp_path / "out"
        seed = str(2**128 - 2**39)
        assert main(["train", "--config", smoke_cfg, "--out", str(out), "--seed", seed]) == 2
        assert "seed must be in [0, 2**128)" in capsys.readouterr().err
        assert not out.exists()

    def test_grad_check_zero_tolerance_fails(self, smoke_cfg, tmp_path, capsys):
        with open(smoke_cfg, "a") as fh:
            fh.write("grad_tol = 0\n")
        code = main(["grad-check", "--config", smoke_cfg, "--out", str(tmp_path)])
        assert code == 1
        capsys.readouterr()

    def test_convergence_smoke(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "conv"
        code = main(["convergence", "--config", smoke_cfg, "--out", str(out)])
        assert code == 0
        assert (out / "convergence.csv").exists()
        assert (out / "reversibility.csv").exists()
        rows = (out / "convergence_orders.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["euler_maruyama", "milstein_ito"]
        stdout = capsys.readouterr().out
        lines = re.findall(r"^wall time: .*$", stdout, re.M)
        assert len(lines) == 1
        assert re.fullmatch(r"wall time: convergence \S+s, reversibility \S+s", lines[0])

    def test_convergence_without_paths_exits_2(self, smoke_cfg, tmp_path, capsys):
        with open(smoke_cfg, "a") as fh:
            fh.write("conv_paths = 0\n")
        code = main(["convergence", "--config", smoke_cfg, "--out", str(tmp_path / "conv")])
        assert code == 2
        assert "ok" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "line",
        ["reversal_halvings = -1", "reversal_halvings = 0", "conv_min_exp = 9", "conv_max_exp = 4"],
    )
    def test_convergence_with_fewer_than_two_levels_exits_2(self, smoke_cfg, tmp_path, capsys, line):
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        out = tmp_path / "conv"
        assert main(["convergence", "--config", smoke_cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "two levels" in captured.err
        assert "ok" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, shown",
        [
            ("conv_min_exp = -1", "at least one step"),
            ("mu = nan", "mu must be finite"),
            ("sigma = nan", "sigma must be finite"),
            ("sigma = 1e300", "sigma must have a finite sigma^2 / 2"),
            ("sigma = 0", "sigma must be > 0"),
            ("horizon = inf", "t_end must be finite"),
            # 50 paths x 2^40 steps: 8 TiB of increments, refused before allocating.
            ("conv_max_exp = 40", "study limit"),
        ],
    )
    def test_convergence_with_bad_input_exits_2_before_allocating(
        self, smoke_cfg, tmp_path, capsys, line, shown
    ):
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        out = tmp_path / "conv"
        assert main(["convergence", "--config", smoke_cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and shown in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_convergence_gate_fails_on_nan_order(self, smoke_cfg, tmp_path, capsys, monkeypatch):
        def nan_study(**kwargs):
            nan = {"n_steps": [16, 32], "median_error": [np.nan, np.nan], "order": np.nan}
            return {"euler_maruyama": nan, "milstein_ito": nan}

        monkeypatch.setattr(cli, "strong_convergence_study", nan_study)
        code = main(["convergence", "--config", smoke_cfg, "--out", str(tmp_path / "conv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "fitted order" not in captured.out
        assert captured.err.count("FAIL") == 2

    def test_simulate_counts_and_determinism(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train", "--config", smoke_cfg, "--out", str(out)]) == 0
        ckpt = str(out / "policy_nu0.25.txt")
        sim_a = tmp_path / "sim_a"
        sim_b = tmp_path / "sim_b"
        assert main(["simulate", "--config", smoke_cfg, "--out", str(sim_a), "--checkpoint", ckpt]) == 0
        assert main(["simulate", "--config", smoke_cfg, "--out", str(sim_b), "--checkpoint", ckpt]) == 0
        files = sorted(p.name for p in sim_a.iterdir())
        assert files == ["traj_seed0.csv", "traj_seed1.csv", "traj_seed2.csv"]
        for name in files:
            assert (sim_a / name).read_bytes() == (sim_b / name).read_bytes()
        # first row carries the initial state (1, 0)
        row = (sim_a / "traj_seed0.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == 1.0 and float(row[2]) == 0.0
        capsys.readouterr()

    def test_simulate_negative_path_count_exit_2(self, smoke_cfg, tmp_path, capsys):
        from sdecontrol.policy import init_params, save_policy

        ckpt = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 2], seed=0), ckpt)
        with open(smoke_cfg, "a") as fh:
            fh.write("n_paths = -1\n")
        code = main(
            ["simulate", "--config", smoke_cfg, "--out", str(tmp_path / "sim"), "--checkpoint", str(ckpt)]
        )
        assert code == 2
        assert "wrote" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "verb, line",
        [
            ("train", "n_steps = 100000000000000000000"),
            ("grad-check", "grad_check_steps = 100000000000000000000"),
            ("simulate", "n_steps = 100000000000000000000"),
        ],
    )
    def test_grid_above_the_step_budget_exits_2(self, smoke_cfg, tmp_path, capsys, verb, line):
        # numpy could not allocate these increments (it raised a raw
        # ValueError); the grid rejects them first.
        from sdecontrol.policy import init_params, save_policy

        ckpt = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 2], seed=0), ckpt)
        with open(smoke_cfg, "a") as fh:
            fh.write(line + "\n")
        out = tmp_path / "out"
        flags = ["--checkpoint", str(ckpt)] if verb == "simulate" else []
        assert main([verb, "--config", smoke_cfg, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "error: n_steps must lie in [1, 16777216]" in err and "Traceback" not in err
        assert not out.exists()

    def test_simulate_missing_checkpoint_exit_2(self, smoke_cfg, tmp_path, capsys):
        code = main(
            ["simulate", "--config", smoke_cfg, "--out", str(tmp_path), "--checkpoint", "/no/ckpt"]
        )
        assert code == 2
        capsys.readouterr()

    def test_simulate_architecture_mismatch_exit_2(self, smoke_cfg, tmp_path, capsys):
        from sdecontrol.policy import init_params, save_policy

        bad = tmp_path / "bad.txt"
        save_policy(init_params([3, 4, 1], seed=0), bad)
        code = main(
            ["simulate", "--config", smoke_cfg, "--out", str(tmp_path), "--checkpoint", str(bad)]
        )
        assert code == 2
        capsys.readouterr()

    def test_policy_grid_command(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train", "--config", smoke_cfg, "--out", str(out)]) == 0
        ckpt = str(out / "policy_nu0.25.txt")
        code = main(["policy-grid", "--config", smoke_cfg, "--out", str(tmp_path), "--checkpoint", ckpt])
        assert code == 0
        lines = (tmp_path / "policygrid.csv").read_text().splitlines()
        assert lines[0] == "S,V,u_i,u_d"
        assert len(lines) == 1 + 4
        capsys.readouterr()

    def test_policy_grid_above_the_lattice_limit_exits_2(self, smoke_cfg, tmp_path, capsys):
        # 10^12 lattice points would ask for 29.1 TiB of rows.
        from sdecontrol.policy import init_params, save_policy

        ckpt = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 2], seed=0), ckpt)
        with open(smoke_cfg, "a") as fh:
            fh.write("grid_resolution = 1000000\n")
        out = tmp_path / "grid"
        args = ["policy-grid", "--config", smoke_cfg, "--out", str(out), "--checkpoint", str(ckpt)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "lattice points" in err and "Traceback" not in err
        assert not out.exists()

    def test_rerun_bit_identical_outputs(self, smoke_cfg, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", smoke_cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", smoke_cfg, "--out", str(out_b)]) == 0
        for p in sorted(out_a.iterdir()):
            assert p.read_bytes() == (out_b / p.name).read_bytes(), p.name
        capsys.readouterr()

    def test_bad_nu_override_exits_2(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", smoke_cfg, "--out", str(out), "--nu", "0.25,x"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_nu_override_parsed_as_the_config_line(self, smoke_cfg, tmp_path, monkeypatch):
        # `--nu 0.25,` is accepted as the config line `nu = 0.25,` is.
        seen = []

        def record(*args, **kwargs):
            seen.append(kwargs["nu_values"])
            return {}

        monkeypatch.setattr(cli, "run_experiment", record)
        assert main(["train", "--config", smoke_cfg, "--out", str(tmp_path), "--nu", "0.25,"]) == 0
        assert seen == [parse_value("nu", "0.25,")] == [(0.25,)]

    def test_nu_override(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", smoke_cfg, "--out", str(out), "--nu", "1"])
        assert code == 0
        assert (out / "trainlog_nu1.csv").exists()
        capsys.readouterr()
