import math
from dataclasses import replace

import numpy as np
import pytest

import sgdtherm as st
from sgdtherm.cli import (
    DEFAULT_LR_GRID,
    ExperimentConfig,
    analyze,
    default_config_text,
    fmt,
    load_config,
    main,
    run_grid,
    save_config,
    verify_oracles,
)
from sgdtherm.errors import InvalidConfig, MissingData


TOY_OP_SMALL = """\
[model]
kind = toy_op

[grid]
lrs = 4.8e-3, 1.1e-2, 2.3e-2

[sgd]
batch_size = 1
total_iters = 4000
seed = 77
checkpoints_per_decade = 20
loss_stop_threshold = 0.0

[entropy]
k = 20
window = 400
stride = 400

[analysis]
epsilon = 0.01
baseline_seeds = 4

[output]
dir = out
"""

UP_SMALL = """\
[model]
kind = toy_up

[grid]
lrs = 6.9e-3, 1.2e-2, 2.1e-2, 4.1e-2, 6.9e-2

[sgd]
batch_size = 1
total_iters = 16000
seed = 5
checkpoints_per_decade = 40

[entropy]
k = 20
window = 400
stride = 400

[analysis]
epsilon = 0.01
baseline_seeds = 4

[output]
dir = out
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_default_grid_has_28_values(self):
        assert len(DEFAULT_LR_GRID) == 28
        assert all(b > a for a, b in zip(DEFAULT_LR_GRID, DEFAULT_LR_GRID[1:]))

    def test_default_grid_values(self):
        """3 + 4 + 14 + 7 log-spaced values from 1e-5 to 1."""
        expected = [
            1.0e-5, 2.2e-5, 4.6e-5,
            1.0e-4, 1.8e-4, 3.2e-4, 5.6e-4,
            1.0e-3, 1.2e-3, 1.4e-3, 1.6e-3, 1.9e-3, 2.3e-3, 2.7e-3,
            3.2e-3, 3.7e-3, 4.4e-3, 5.2e-3, 6.1e-3, 7.2e-3, 8.5e-3,
            1.0e-2, 2.2e-2, 4.6e-2, 1.0e-1, 2.2e-1, 4.6e-1, 1.0,
        ]
        assert DEFAULT_LR_GRID == expected

    def test_default_text_round_trips(self, tmp_path):
        path = write_config(tmp_path, default_config_text())
        cfg = load_config(path)
        assert cfg.model == "toy_op"
        assert cfg.lr_grid == tuple(DEFAULT_LR_GRID)

    def test_save_load_round_trip(self, tmp_path):
        cfg = ExperimentConfig(model="hyperplane", dim=6, components=9, lr_grid=(0.01, 0.1),
                               seed=42, lr_range=(0.02, 0.08))
        save_config(cfg, tmp_path / "c.ini")
        assert load_config(tmp_path / "c.ini") == cfg

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(lr_grid=())

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(lr_grid=(0.1, 0.01))

    def test_bad_model_kind(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(model="parabola")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(MissingData):
            load_config(tmp_path / "absent.ini")


class TestFloatFormat:
    def test_17_significant_digits_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-12, 12)))
            assert float(fmt(x)) == x

    def test_specials(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(math.nan) == "nan"


class TestRunGrid:
    def test_writes_one_series_per_lr_plus_summary(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        out = run_grid(cfg, out_dir=tmp_path / "exp")
        series = sorted(out.glob("series_*.csv"))
        assert len(series) == 3
        assert (out / "summary.csv").exists()
        assert (out / "config.ini").exists()

    def test_series_schema(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        out = run_grid(cfg, out_dir=tmp_path / "exp")
        first = sorted(out.glob("series_*.csv"))[0]
        header = first.read_text().splitlines()[0]
        assert header == "iter,loss,full_grad_norm,mean_stoch_grad_norm,snr,entropy"
        body = first.read_text().splitlines()[1:]
        # entropy blank before the first full window, present at the end
        assert body[0].endswith(",")
        assert not body[-1].endswith(",")

    def test_summary_schema(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        out = run_grid(cfg, out_dir=tmp_path / "exp")
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "lr,U,U_std,S,S_std,stabilized"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        out1 = run_grid(cfg, out_dir=tmp_path / "a")
        out2 = run_grid(cfg, out_dir=tmp_path / "b")
        for f1 in sorted(out1.glob("*.csv")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

    def test_replay_from_written_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        out1 = run_grid(cfg, out_dir=tmp_path / "a")
        replay_cfg = load_config(out1 / "config.ini")
        out2 = run_grid(replay_cfg, out_dir=tmp_path / "replay")
        for f1 in sorted(out1.glob("*.csv")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        out1 = run_grid(cfg, out_dir=tmp_path / "serial", jobs=1)
        out2 = run_grid(cfg, out_dir=tmp_path / "parallel", jobs=2)
        for f1 in sorted(out1.glob("*.csv")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()


class TestAnalyze:
    def test_converging_runs_get_fd_section_but_no_curve(self, tmp_path):
        """All-OP small-lr directories: fd temperature present, curve skipped."""
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        cfg_stop = replace(cfg, loss_stop_threshold=1e-16, total_iters=30_000)
        out = run_grid(cfg_stop, out_dir=tmp_path / "exp")
        verdicts = analyze(out)
        assert verdicts["temperature_curve"] is None
        assert (out / "fd_temperature.csv").exists()
        assert (out / "phase_law.csv").exists()
        assert not (out / "temperature.csv").exists()
        report = (out / "report.txt").read_text()
        assert "temperature curve: skipped" in report

    def test_all_stationary_but_too_few_raises_missing_data(self, tmp_path):
        """Two stabilized learning rates and nothing converging: nothing to analyze."""
        text = UP_SMALL.replace("lrs = 6.9e-3, 1.2e-2, 2.1e-2, 4.1e-2, 6.9e-2",
                                "lrs = 2.1e-2, 6.9e-2")
        cfg = load_config(write_config(tmp_path, text))
        out = run_grid(cfg, out_dir=tmp_path / "exp")
        with pytest.raises(MissingData) as exc:
            analyze(out)
        assert "3" in str(exc.value)

    def test_up_grid_produces_temperature_report(self, tmp_path):
        cfg = load_config(write_config(tmp_path, UP_SMALL))
        out = run_grid(cfg, out_dir=tmp_path / "exp")
        verdicts = analyze(out)
        assert (out / "temperature.csv").exists()
        header = (out / "temperature.csv").read_text().splitlines()[0]
        assert header == "lr,t_lo,t_hi,bound_only,empty"
        assert (out / "smoothed.csv").exists()
        assert verdicts["temperature_curve"] is not None

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingData):
            analyze(tmp_path / "nowhere")


class TestVerifyOracles:
    def test_all_checks_pass(self):
        checks = verify_oracles()
        assert len(checks) >= 5
        assert all(c.passed for c in checks)

    def test_each_check_reports_residual(self):
        for c in verify_oracles():
            assert math.isfinite(c.max_residual) or c.max_residual == 0.0
            assert c.threshold >= 0.0

    def test_injected_perturbation_fails(self):
        checks = verify_oracles(coefficient_shift=1e-6)
        assert not checks[0].passed


class TestMainEntryPoint:
    def test_run_and_analyze_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, UP_SMALL)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "exp")]) == 0
        assert main(["analyze", str(tmp_path / "exp")]) == 0
        out = capsys.readouterr().out
        assert "monotone temperature:" in out

    def test_seed_override_changes_outputs(self, tmp_path):
        path = write_config(tmp_path, TOY_OP_SMALL)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["run", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("old, new, extra", [
        ("kind = toy_op", "kind = bogus", []),
        ("seed = 77", "seed = -1", []),
        ("kind = toy_op", "kind = toy_op\nmodel_seed = -1", []),
        ("lrs = 4.8e-3, 1.1e-2, 2.3e-2", "lrs = nan", []),
        ("lrs = 4.8e-3, 1.1e-2, 2.3e-2", "lrs = inf", []),
        ("lrs = 4.8e-3, 1.1e-2, 2.3e-2", "lrs = -inf", []),
        ("", "", ["--seed", "-1"]),
    ], ids=["bad-kind", "negative-seed", "negative-model-seed",
            "nan-lr", "inf-lr", "neg-inf-lr", "negative-seed-flag"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, old, new, extra):
        bad = write_config(tmp_path, TOY_OP_SMALL.replace(old, new, 1) if old else TOY_OP_SMALL)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "exp"), *extra]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_missing_experiment_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing")]) == 2

    def test_verify_oracles_exits_zero(self, capsys):
        assert main(["verify-oracles"]) == 0
        out = capsys.readouterr().out
        assert "factorization-identity" in out and "pass" in out

    def test_baseline_writes_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, TOY_OP_SMALL)
        assert main(["baseline", "--config", str(path), "--out", str(tmp_path / "base")]) == 0
        lines = (tmp_path / "base" / "baseline.csv").read_text().splitlines()
        assert lines[0] == "seed,U,S"
        assert len(lines) == 5  # 4 seeds configured

    def test_lr_range_flag(self, tmp_path):
        path = write_config(tmp_path, UP_SMALL)
        main(["run", "--config", str(path), "--out", str(tmp_path / "exp")])
        assert main(["analyze", str(tmp_path / "exp"), "--lr-range", "5e-3:3e-2"]) == 0
        report = (tmp_path / "exp" / "report.txt").read_text()
        assert "outside configured lr range" in report
