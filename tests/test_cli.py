import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import sgdtherm as st
from sgdtherm.cli import (
    DEFAULT_LR_GRID,
    INI_KEYS,
    INI_SECTIONS,
    MODEL_KINDS,
    ExperimentConfig,
    analyze,
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


# Every field set to a value other than its default.
EVERY_FIELD = ExperimentConfig(
    model="quadratic", dim=4, components=5, model_seed=11, hessian_scale=2.5,
    lr_grid=(1e-3, 0.37), batch_size=2, total_iters=777, seed=42,
    checkpoints_per_decade=7, loss_stop_threshold=1e-14, k=5, window=60,
    epsilon=0.125, tail_fraction=0.3, smoothing_h=0.45, smoothing_sigma=0.2, fd_dt=3,
    lr_range=(2e-3, 0.2), baseline_seeds=3, output_dir="runs/every field 100%",
)

INI_TABLE_KEYS = [(section, INI_KEYS.get(name, name))
                  for section, names in INI_SECTIONS.items() for name in names]

FUZZ_VALUES = hs.one_of(
    hs.integers(-3, 40).map(str),
    hs.floats().map(repr),
    hs.sampled_from(MODEL_KINDS + ("default",)),
    hs.lists(hs.floats(1e-6, 2.0), min_size=1, max_size=4, unique=True)
      .map(lambda lrs: ", ".join(map(repr, sorted(lrs)))),
    hs.tuples(hs.floats(), hs.floats()).map(lambda b: f"{b[0]!r}:{b[1]!r}"),
    hs.text(alphabet="abe0.:;,-+%[] =", max_size=8),
)


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

    def test_minimal_ini_loads_defaults(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nlrs = default\n")
        assert load_config(path) == ExperimentConfig()

    def test_save_load_round_trip(self, tmp_path):
        assert all(getattr(EVERY_FIELD, f.name) != f.default for f in fields(ExperimentConfig))
        for cfg in (
            ExperimentConfig(model="hyperplane", dim=6, components=9, lr_grid=(0.01, 0.1),
                             seed=42, lr_range=(0.02, 0.08)),
            EVERY_FIELD,
        ):
            save_config(cfg, tmp_path / "c.ini")
            assert load_config(tmp_path / "c.ini") == cfg

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = load_config(write_config(tmp_path, example))
        assert cfg.lr_grid == (1e-3, 4.8e-3, 2.3e-2)
        assert cfg.loss_stop_threshold == 1e-16
        assert cfg.output_dir == "runs/toy_op"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hs.dictionaries(hs.sampled_from(INI_TABLE_KEYS), FUZZ_VALUES, max_size=8))
    def test_fuzzed_config_is_rejected_or_buildable(self, tmp_path, entries):
        """A fuzzed INI either fails as InvalidConfig or yields a config that builds."""
        sections: dict[str, list[str]] = {}
        for (section, key), value in entries.items():
            sections.setdefault(section, []).append(f"{key} = {value}")
        text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
        try:
            cfg = load_config(write_config(tmp_path, text))
        except InvalidConfig:
            return
        cfg.ensemble()
        cfg.entropy_config()
        for i, lr in enumerate(cfg.lr_grid):
            cfg.sgd_config(lr, cfg.lr_seed(i))

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
        ("batch_size = 1", "batch_size = 9", []),
        ("k = 20", "k = 0", []),
        ("window = 400", "window = 20", []),
        ("epsilon = 0.01", "epsilon = 0.01\ntail_fraction = 0.9", []),
        ("epsilon = 0.01", "epsilon = 0.01\ntail_fraction = 0", []),
        ("epsilon = 0.01", "epsilon = nan", []),
        ("epsilon = 0.01", "epsilon = -1", []),
        ("epsilon = 0.01", "epsilon = 0.01\nlr_range = nan:nan", []),
        ("[output]", "[model]\n\n[output]", []),
        ("kind = toy_op", "kind = toy_op\nkind = toy_up", []),
        ("[model]\n", "", []),
        ("dir = out", "dir = out\xe9", []),
        ("epsilon = 0.01", "epsilon = 0.01\nsmoothing_h = 0", []),
        ("epsilon = 0.01", "epsilon = 0.01\nfd_dt = 0", []),
    ], ids=["bad-kind", "negative-seed", "negative-model-seed",
            "nan-lr", "inf-lr", "neg-inf-lr", "negative-seed-flag",
            "batch-too-large", "zero-k", "window-not-above-k",
            "tail-fraction-above-half", "zero-tail-fraction",
            "nan-epsilon", "negative-epsilon", "nan-lr-range",
            "duplicate-section", "duplicate-option", "missing-section-header", "not-utf8",
            "zero-smoothing-h", "zero-fd-dt"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, old, new, extra):
        bad = tmp_path / "exp.ini"
        # Latin-1 bytes, so that "\xe9" is not valid UTF-8; the rest is ASCII.
        bad.write_bytes((TOY_OP_SMALL.replace(old, new, 1) if old else TOY_OP_SMALL).encode("latin-1"))
        for command in ("run", "baseline"):
            out = tmp_path / command
            assert main([command, "--config", str(bad), "--out", str(out), *extra]) == 2
            err = capsys.readouterr().err
            assert "error:" in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "nan"], ["--epsilon", "-1"], ["--epsilon", "inf"],
        ["--lr-range", "nan:nan"], ["--lr-range", "1e-3:inf"], ["--lr-range", "1e-3"],
    ], ids=["nan-epsilon", "negative-epsilon", "inf-epsilon",
            "nan-lr-range", "inf-lr-range", "lr-range-without-colon"])
    def test_invalid_analyze_override_exits_2(self, tmp_path, capsys, flags):
        exp = tmp_path / "exp"
        exp.mkdir()
        save_config(ExperimentConfig(), exp / "config.ini")
        out = tmp_path / "report"
        assert main(["analyze", str(exp), "--out", str(out), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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
