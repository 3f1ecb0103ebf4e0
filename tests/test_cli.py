import concurrent.futures
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import oracles
import sgdtherm as st
from sgdtherm import cli
from sgdtherm.cli import (
    ANALYSIS_FILES,
    DEFAULT_LR_GRID,
    INI_KEYS,
    INI_SECTIONS,
    MODEL_KINDS,
    SERIES_COLUMNS,
    ExperimentConfig,
    analyze,
    fmt,
    load_config,
    main,
    read_series,
    read_summary,
    reduce_experiment,
    run_grid,
    save_config,
    verify_oracles,
    write_series,
    write_summary,
)
from sgdtherm.errors import InvalidConfig, MissingData, NonFinite


TOY_OP_SMALL = """\
[model]
kind = toy_op
hessian_scale = 1

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


# toy_op at learning rates where the chains settle on a pole within the run:
# the tail windows at lr 0.5 and 0.8 hold one point 60 times, so S = -inf.
COLLAPSING_OP = """\
[model]
kind = toy_op

[grid]
lrs = 0.3, 0.5, 0.8

[sgd]
total_iters = 3000
seed = 11

[entropy]
k = 5
window = 60

[analysis]
baseline_seeds = 2
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# Every field set to a value other than its default.
EVERY_FIELD = ExperimentConfig(
    model="hyperplane", dim=4, components=5, model_seed=11,
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

    def test_readme_quick_start_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        namespace = {}
        exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), namespace)
        assert len(namespace["grid"]) == len(namespace["curve"].intervals) == 5
        assert 0 <= namespace["argmin"] < 5

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
        cfg.sgd_config()
        for i in range(len(cfg.lr_grid)):
            cfg.lr_seed(i)

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

    @pytest.mark.parametrize("total_iters, per_decade, tail_fraction", [(400, 20, 0.5), (300, 5, 0.3)])
    def test_window_rule_matches_extract_stationary(self, total_iters, per_decade, tail_fraction):
        """The largest accepted window leaves exactly 2 tail entropies; one iterate more leaves 1,
        which gives the all-NaN estimate."""
        largest = int(st.checkpoint_schedule(total_iters, per_decade)[-2])
        base = dict(model="toy_up", lr_grid=(0.05,), total_iters=total_iters,
                    checkpoints_per_decade=per_decade, tail_fraction=tail_fraction, k=5)
        exp = ExperimentConfig(window=largest, **base)
        logs = {w: st.run_seeded(st.make_toy_up(), replace(exp.sgd_config(), window=w),
                                 exp.lr_grid, [exp.lr_seed(0)])[0]
                for w in (largest, largest + 1)}
        assert math.isfinite(st.extract_stationary(logs[largest], tail_fraction=tail_fraction).entropy_mean)
        short = st.extract_stationary(logs[largest + 1], tail_fraction=tail_fraction)
        np.testing.assert_equal(astuple(short), (0.05, math.nan, math.nan, math.nan, math.nan, False))
        with pytest.raises(InvalidConfig):
            ExperimentConfig(window=largest + 1, **base)


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


# Header names and cells for fuzzed CSV texts.  One cell in ten is drawn from
# ODD_CELLS: a cell of the other type, an unparsable one, a quoted field that
# holds a comma or a line break, or "\udce9", which is written as the byte 0xe9
# and is not UTF-8.
CSV_NAMES = hs.sampled_from(["lr", "S", "stabilized"])
FLOAT_CELLS = hs.one_of(hs.floats().map(repr),
                        hs.sampled_from(["", "nan", "-inf", "-0", "5e-324", "1e999", '"0.25"']))
BOOL_CELLS = hs.sampled_from(["true", "false", '"true"'])
ODD_CELLS = hs.sampled_from(["", " 2", "1_0", "abc", "True", "1.5", "true", '"3,5"', '"7\n8"',
                             '"9\r\n"', '"x""y"', "\udce9", "\u00e9"])


def csv_cells(name):
    good = BOOL_CELLS if name == "stabilized" else FLOAT_CELLS
    return hs.integers(0, 9).flatmap(lambda i: ODD_CELLS if i == 0 else good)


# Every type of value a table row holds.
SPECIAL_FLOATS = hs.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1 / 3])
CELL_VALUES = hs.one_of(
    hs.floats(), SPECIAL_FLOATS, SPECIAL_FLOATS.map(np.float64), hs.floats().map(np.float64),
    hs.booleans(), hs.booleans().map(np.bool_),
    hs.integers(), hs.integers(-2**63, 2**63 - 1).map(np.int64), hs.none(),
)


class TestCsvRoundTrip:
    def test_summary(self, tmp_path):
        estimates = [
            st.StationaryEstimate(1e-3, math.nan, math.nan, math.nan, math.nan, False),
            st.StationaryEstimate(2.2e-2, 1 / 3, -2.5, 1e-300, math.nan, False),
            st.StationaryEstimate(0.1, 0.125, -math.inf, 0.0, math.inf, True),
        ]
        write_summary(tmp_path / "summary.csv", estimates)
        got = read_summary(tmp_path / "summary.csv")
        np.testing.assert_equal([astuple(e) for e in got], [astuple(e) for e in estimates])
        assert [type(e.stabilized) for e in got] == [bool] * 3

    def test_series(self, tmp_path):
        log = st.TrajectoryLog(
            iters=np.array([1, 2, 5, 10]),
            losses=np.array([0.5, 1 / 3, 1e-300, 0.0]),
            full_grad_norms=np.array([1.0, 0.1, 1e-17, 0.0]),
            stoch_grad_norms=np.array([2.0, 0.2, 2e-17, 0.0]),
            snrs=np.array([0.5, math.nan, 0.25, math.nan]),
            entropy_iters=np.array([5, 10]),
            entropies=np.array([-math.inf, -2.75]),
            snapshots=np.zeros((5, 3)),
            stopped_early=False,
            learning_rate=0.01,
        )
        write_series(tmp_path / "series.csv", log)
        got = read_series(tmp_path / "series.csv")
        assert list(got) == list(SERIES_COLUMNS)
        assert all(col.dtype == float for col in got.values())
        for column, field in SERIES_COLUMNS.items():
            if field != "entropies":
                np.testing.assert_array_equal(got[column], getattr(log, field))
        np.testing.assert_array_equal(got["entropy"], [math.nan, math.nan, -math.inf, -2.75])

    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=hs.data(), newline=hs.sampled_from(["\n", "\r\n"]), last_newline=hs.booleans())
    def test_reader_matches_dict_reader(self, tmp_path, data, newline, last_newline):
        """Same columns, or the same MissingData message, as one DictReader parse per cell.

        A row's cells mostly suit their column; a row of no cells is a blank
        line, and one of more cells than the header is a long row.
        """
        header = data.draw(hs.lists(CSV_NAMES, min_size=1, max_size=5), label="header")
        columns = data.draw(hs.lists(hs.sampled_from(sorted(set(header))), min_size=1,
                                     unique=True), label="columns")
        if data.draw(hs.integers(0, 9), label="ask for a missing column") == 0:
            columns.append("U")
        names = [*header, "x", "x"]
        rows = data.draw(hs.lists(
            hs.integers(0, len(names)).flatmap(
                lambda n: hs.tuples(*(csv_cells(name) for name in names[:n]))),
            max_size=8), label="rows")
        text = newline.join(",".join(row) for row in [header, *rows]) + newline * last_newline
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))

        def outcome(read):
            try:
                cols = read(path, columns)
            except MissingData as exc:
                return str(exc)
            return [(c, [(type(v), repr(v)) for v in vals]) for c, vals in cols.items()]

        assert outcome(cli._read_csv) == outcome(oracles.read_csv_reference)

    @pytest.mark.parametrize("bad_cell", [True, False], ids=["bad-cell-first", "bad-byte-only"])
    def test_reader_matches_dict_reader_past_first_chunk(self, tmp_path, bad_cell):
        """A byte that is not UTF-8 far down a file is decoded only when the reader gets there,
        so a bad cell above it is reported first."""
        rows = [f"{i},0.5,true" for i in range(1, 2001)]
        if bad_cell:
            rows[1] = "2,abc,true"
        rows[-1] = "2000,0.5,tru\udce9"
        path = tmp_path / "table.csv"
        path.write_bytes("\n".join(["lr,S,stabilized", *rows, ""]).encode("utf-8", "surrogateescape"))
        assert path.stat().st_size > 16384

        def outcome(read):
            with pytest.raises(MissingData) as exc:
                read(path, ["stabilized", "S"])
            return str(exc.value)

        message = outcome(cli._read_csv)
        assert message == outcome(oracles.read_csv_reference)
        assert ("line 3: missing or unreadable 'S' cell" in message) == bad_cell

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=hs.lists(CSV_NAMES, min_size=2, max_size=5),
           rows=hs.lists(hs.lists(CELL_VALUES, min_size=2, max_size=5), max_size=6))
    def test_writer_matches_csv_writer(self, tmp_path, header, rows):
        cli._write_csv(tmp_path / "new.csv", header, rows)
        oracles.write_csv_reference(tmp_path / "reference.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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
        threads = threading.active_count()
        out1 = run_grid(cfg, out_dir=tmp_path / "serial", jobs=1)
        out2 = run_grid(cfg, out_dir=tmp_path / "parallel", jobs=2)
        for f1 in sorted(out1.glob("*.csv")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

        # A ragged grid: with a loss stop the chains end at different
        # iterations, and 5 lrs split unevenly over 2 and 3 groups.
        ragged = replace(cfg, lr_grid=(4.8e-3, 1.1e-2, 2.3e-2, 0.1, 1.0), loss_stop_threshold=1e-16)
        outs = {jobs: run_grid(ragged, out_dir=tmp_path / f"ragged{jobs}", jobs=jobs)
                for jobs in (1, 2, 3)}
        finals = {int(read_series(f)["iter"][-1]) for f in outs[1].glob("series_*.csv")}
        assert len(finals) >= 3
        for f1 in sorted(outs[1].glob("*.csv")):
            for jobs in (2, 3):
                assert f1.read_bytes() == (outs[jobs] / f1.name).read_bytes()
        # Every pool is shut down before run_grid returns.
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_collapsed_windows_run_quietly(self, tmp_path, capfd):
        """Collapsed windows are reported as S = -inf without a numpy warning, at any --jobs.

        Each run writes to the same path, because report.txt names it.
        """
        config = write_config(tmp_path, COLLAPSING_OP)
        exp = tmp_path / "exp"
        trees = []
        for jobs in ("1", "2"):
            assert main(["run", "--config", str(config), "--out", str(exp), "--jobs", jobs]) == 0
            assert main(["analyze", str(exp)]) == 0
            assert capfd.readouterr().err == ""
            trees.append({p.name: p.read_bytes() for p in sorted(exp.iterdir())})
            shutil.rmtree(exp)
        assert trees[0] == trees[1]
        rows = trees[0]["summary.csv"].decode().splitlines()[2:]
        assert [row.split(",")[3:] for row in rows] == [["-inf", "nan", "false"]] * 2
        excluded = [line for line in trees[0]["report.txt"].decode().splitlines()
                    if line.startswith("excluded")]
        assert excluded == ["excluded lr=0.29999999999999999: not stabilized",
                            "excluded lr=0.5: collapsed to a point (S = -inf)",
                            "excluded lr=0.80000000000000004: collapsed to a point (S = -inf)"]
        # A row without an estimate (NaN U, as write_summary writes it) keeps its own reason.
        nan = math.nan
        estimates = [st.StationaryEstimate(0.3, nan, nan, nan, nan, False),
                     st.StationaryEstimate(0.5, 0.0, -math.inf, 0.0, nan, False)]
        _, _, report = reduce_experiment(load_config(config), estimates, {}, np.array([1.0, 2.0]))
        assert report[1:3] == ["excluded lr=0.29999999999999999: no stationary estimate",
                               "excluded lr=0.5: collapsed to a point (S = -inf)"]

    @pytest.mark.parametrize("n_lrs, jobs, workers, groups", [
        (3, 2, [2], [[0, 2], [1]]),
        (3, 3, [3], [[0], [1], [2]]),
        (3, 64, [3], [[0], [1], [2]]),
        (1, 64, [], []),
    ], ids=["3-2-workers0", "3-3-workers1", "3-64-workers2", "1-64-workers3"])
    def test_pool_starts_no_more_workers_than_lrs(self, tmp_path, monkeypatch,
                                                  n_lrs, jobs, workers, groups):
        """A pool is sized by min(jobs, number of lrs) and worker g gets lrs g, g + N, ...;
        no real pool is started here."""
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        cfg = replace(cfg, lr_grid=cfg.lr_grid[:n_lrs])
        requested, mapped = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cfgs, index_groups):
                mapped.extend(list(group) for group in index_groups)
                return map(fn, cfgs, index_groups)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out1 = run_grid(cfg, out_dir=tmp_path / "serial", jobs=1)
        assert requested == mapped == []
        out2 = run_grid(cfg, out_dir=tmp_path / "pooled", jobs=jobs)
        assert requested == workers
        assert mapped == groups
        for f1 in sorted(out1.glob("*.csv")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

    def test_cli_import_loads_no_process_pool(self):
        """Only `run --jobs N` with N > 1 starts a pool, so importing the CLI (all
        that `run --jobs 1`, `analyze` and `verify-oracles` need) loads neither
        multiprocessing nor concurrent.futures."""
        code = ("import sys, sgdtherm.cli\n"
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
                " if m in sys.modules))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(st.__file__).parents[1]), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "[]\n"

    def test_failed_chain_creates_no_directory(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, TOY_OP_SMALL))
        real = cli.run_seeded

        def fail_on_second_lr(ensemble, sgd, lrs, seeds):
            if cfg.lr_grid[1] in lrs:
                raise NonFinite("injected")
            return real(ensemble, sgd, lrs, seeds)

        monkeypatch.setattr(cli, "run_seeded", fail_on_second_lr)
        with pytest.raises(NonFinite):
            run_grid(cfg, out_dir=tmp_path / "exp")
        assert not (tmp_path / "exp").exists()


class TestAnalyze:
    @pytest.fixture(scope="class")
    def up_experiment(self, tmp_path_factory):
        """A toy_up experiment with a temperature curve and one non-stabilized run (lr 0.021)."""
        tmp = tmp_path_factory.mktemp("up")
        text = UP_SMALL.replace("lrs = 6.9e-3", "lrs = 1e-5, 6.9e-3")
        exp = run_grid(load_config(write_config(tmp, text)), out_dir=tmp / "exp")
        assert [e.lr for e in read_summary(exp / "summary.csv") if not e.stabilized] == [2.1e-2]
        return exp

    def test_fewer_retained_lrs_remove_stale_curve_files(self, tmp_path, up_experiment):
        exp = shutil.copytree(up_experiment, tmp_path / "exp")
        assert analyze(exp)["temperature_curve"] is not None
        assert all((exp / name).exists() for name in ANALYSIS_FILES)
        assert analyze(exp, lr_range=(6e-3, 1.3e-2))["temperature_curve"] is None
        for name in ("smoothed.csv", "temperature.csv", "free_energy.csv"):
            assert not (exp / name).exists()
        assert (exp / "fd_temperature.csv").exists()
        assert "temperature curve: skipped" in (exp / "report.txt").read_text()

    def test_unreadable_series_changes_no_file(self, tmp_path, capsys, up_experiment):
        exp = shutil.copytree(up_experiment, tmp_path / "exp")
        analyze(exp)
        (path,) = exp.glob("series_03_*.csv")
        lines = path.read_text().split("\n")
        path.write_text("\n".join([*lines[:5], "1,2", *lines[6:]]))
        before = {p.name: p.read_bytes() for p in exp.iterdir()}
        assert main(["analyze", str(exp), "--epsilon", "0.02"]) == 2
        assert str(path) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in exp.iterdir()} == before

    @pytest.mark.parametrize("edit", [
        lambda lines: [*lines[:-2], lines[-1]],
        lambda lines: [*lines[:-1], lines[-2], lines[-1]],
    ], ids=["stabilized-row-deleted", "row-appended"])
    def test_summary_rows_must_match_grid(self, tmp_path, capsys, up_experiment, edit):
        """A summary.csv whose lr column is not the config's grid fails before anything is read
        or written; its last row is a stabilized run, whose series file `analyze` never reads."""
        exp = shutil.copytree(up_experiment, tmp_path / "exp")
        path = exp / "summary.csv"
        lines = path.read_text().split("\n")
        assert lines[-2].endswith(",true")
        path.write_text("\n".join(edit(lines)))
        before = {p.name: p.read_bytes() for p in exp.iterdir()}
        assert main(["analyze", str(exp)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: lr column" in err
        assert f"of {exp / 'config.ini'}" in err
        assert {p.name: p.read_bytes() for p in exp.iterdir()} == before

    def test_reduce_experiment_is_pure(self, tmp_path, monkeypatch, capsys):
        """Decades apart, the h = 0.3 smoothing keeps every point; dyadic values make the curve exact."""
        estimates = [st.StationaryEstimate(1e-3, 0.25, -2.0, 0.0, 0.0, True),
                     st.StationaryEstimate(1e-2, 0.5, -1.0, 0.0, 0.0, True),
                     st.StationaryEstimate(1e-1, 1.0, -0.5, 0.0, 0.0, True)]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        verdicts, tables, lines = reduce_experiment(
            ExperimentConfig(epsilon=0.0), estimates, {}, np.array([4.0, 4.5]))
        assert list(cwd.iterdir()) == []
        assert capsys.readouterr() == ("", "")
        assert tables["temperature.csv"] == (["lr", "t_lo", "t_hi", "bound_only", "empty"], [
            [1e-3, 0.0, 0.25, True, False],
            [1e-2, 0.25, 1.0, False, False],
            [1e-1, 1.0, math.inf, True, False],
        ])
        assert tables["smoothed.csv"][1] == [[e.lr, e.loss_mean, e.entropy_mean, e.loss_mean,
                                              e.entropy_mean] for e in estimates]
        assert tables["free_energy.csv"][1] == [[0.625, 1e-3, 1.5, False], [0.625, 1e-2, 1.125, True],
                                                [0.625, 1e-1, 1.3125, False]]
        assert sorted(tables) == ["free_energy.csv", "smoothed.csv", "temperature.csv"]
        assert verdicts["temperature_curve"].monotone
        assert verdicts["free_energy_consistent"] == (1, 1)
        assert verdicts["exclusions"] == verdicts["fd_rows"] == verdicts["phase_laws"] == []
        assert lines == ["epsilon: 0", "monotone temperature: true",
                         "free-energy minima within epsilon at their own lr: 1/1"]

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

    def test_no_stationary_estimate_still_analyzes_the_converging_runs(self, tmp_path, capsys):
        """Every run stops before its tail holds two windows, so no run has an estimate; the
        temperature curve is skipped, and each run still gets its phase-diagram fit."""
        text = TOY_OP_SMALL
        for old, new in [("lrs = 4.8e-3, 1.1e-2, 2.3e-2", "lrs = 0.5, 0.8, 1.0"),
                         ("total_iters = 4000", "total_iters = 3000"), ("seed = 77", "seed = 5"),
                         ("loss_stop_threshold = 0.0", "loss_stop_threshold = 1e-16"),
                         ("k = 20", "k = 10"), ("window = 400", "window = 200")]:
            text = text.replace(old, new)
        exp = tmp_path / "exp"
        assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(exp)]) == 0
        estimates = read_summary(exp / "summary.csv")
        assert not any(e.stabilized or math.isfinite(e.loss_mean) for e in estimates)
        assert main(["analyze", str(exp)]) == 0
        assert "temperature curve: skipped (0 retained" in capsys.readouterr().out
        rows = (exp / "phase_law.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.5, 0.8, 1.0]

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

    def test_matches_the_loop_reference(self):
        """Each array-valued check equals the point-by-point suite: name, residual, threshold, verdict."""
        checks, reference = verify_oracles(), oracles.verify_oracles_reference()
        assert [astuple(c) for c in checks] == [astuple(c) for c in reference]
        assert all(type(c.passed) is bool and type(c.max_residual) is float for c in checks)

    def test_undefined_measured_snr_fails(self, monkeypatch):
        """Only a NaN closed form skips a point: a NaN measured SNR fails every SNR check."""
        def nan_snr(ensemble, w):
            stats = st.gradient_stats(ensemble, w)
            return replace(stats, snr=np.full_like(stats.snr, math.nan))

        monkeypatch.setattr(cli, "gradient_stats", nan_snr)
        failed = [c.name for c in verify_oracles() if not c.passed]
        assert failed == ["two-circle-snr-oracle", "hessian-snr-delta-independence", "z-independence"]

    def test_injected_perturbation_fails(self, monkeypatch):
        monkeypatch.setattr(cli, "factorization_residual", oracles.factorization_residual_shifted)
        checks = verify_oracles()
        assert not checks[0].passed


# Errors the chain config raises, named by the INI section and key they come from.
SECTION_ERRORS = {
    "loss_stop_threshold = nan": "[sgd] loss_stop_threshold must be finite and >= 0",
    "loss_stop_threshold = inf": "[sgd] loss_stop_threshold must be finite and >= 0",
    "k = 0": "[entropy] k must be >= 1",
    "window = 20": "[entropy] window must exceed k",
    "epsilon = 0.01\nsmoothing_h = inf":
        "[analysis] smoothing_h and smoothing_sigma must be finite and positive",
    "epsilon = 0.01\nsmoothing_sigma = inf":
        "[analysis] smoothing_h and smoothing_sigma must be finite and positive",
}


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
        ("kind = toy_op", "kind = quadratic", []),
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
        ("epsilon = 0.01", "epsilon = 0.01\nsmoothing_h = inf", []),
        ("epsilon = 0.01", "epsilon = 0.01\nsmoothing_sigma = inf", []),
        ("epsilon = 0.01", "epsilon = 0.01\nfd_dt = 0", []),
        ("total_iters = 4000", "total_iters = 300", []),
        ("checkpoints_per_decade = 20", "checkpoints_per_decade = 1", []),
        ("", "", ["--jobs", "0"]),
        ("", "", ["--jobs", "-1"]),
        ("kind = toy_op", "kind = hyperplane\ndim = 3\ncomponents = 1", []),
        ("loss_stop_threshold = 0.0", "loss_stop_threshold = nan", []),
        ("loss_stop_threshold = 0.0", "loss_stop_threshold = inf", []),
    ], ids=["bad-kind", "quadratic-kind", "negative-seed", "negative-model-seed",
            "nan-lr", "inf-lr", "neg-inf-lr", "negative-seed-flag",
            "batch-too-large", "zero-k", "window-not-above-k",
            "tail-fraction-above-half", "zero-tail-fraction",
            "nan-epsilon", "negative-epsilon", "nan-lr-range",
            "duplicate-section", "duplicate-option", "missing-section-header", "not-utf8",
            "zero-smoothing-h", "inf-smoothing-h", "inf-smoothing-sigma", "zero-fd-dt",
            "unfillable-window", "one-tail-checkpoint",
            "zero-jobs", "negative-jobs", "one-component", "loss-stop-nan", "loss-stop-inf"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, old, new, extra):
        bad = tmp_path / "exp.ini"
        # Latin-1 bytes, so that "\xe9" is not valid UTF-8; the rest is ASCII.
        bad.write_bytes((TOY_OP_SMALL.replace(old, new, 1) if old else TOY_OP_SMALL).encode("latin-1"))
        out = tmp_path / "run"
        assert main(["run", "--config", str(bad), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert not out.exists()
        if "components = 1" in new:
            assert "[model]" in err
        if new in SECTION_ERRORS:
            assert SECTION_ERRORS[new] in err

    @pytest.mark.parametrize("text, line", [
        (UP_SMALL, "smoothing_h = 1e308"), (TOY_OP_SMALL, "smoothing_sigma = 1e-200"),
    ], ids=["overflowing-smoothing-h", "underflowing-smoothing-sigma"])
    def test_extreme_smoothing_bandwidth_exits_2(self, tmp_path, capfd, text, line):
        """A finite bandwidth at which a kernel smoother's weights overflow (UP_SMALL retains
        5 lrs) or underflow (TOY_OP_SMALL's runs get finite-difference series) passes the
        config check, then fails `analyze` as one error line, with no numpy warning: no report
        directory is created and the experiment's files stay as they were."""
        exp = run_grid(load_config(write_config(tmp_path, text)), out_dir=tmp_path / "exp")
        key = line.split(" = ")[0]
        config = exp / "config.ini"
        config.write_text(re.sub(rf"^{key} = .*$", line, config.read_text(), flags=re.M))
        before = {p.name: p.read_bytes() for p in exp.iterdir()}
        out = tmp_path / "report"
        assert main(["analyze", str(exp), "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: smoothing bandwidth ") and err.count("\n") == 1
        assert "non-finite smoothed values" in err
        assert not out.exists()
        assert {p.name: p.read_bytes() for p in exp.iterdir()} == before

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "nan"], ["--epsilon", "-1"], ["--epsilon", "inf"],
        ["--lr-range", "nan:nan"], ["--lr-range", "1e-3:inf"], ["--lr-range", "1e-3"], [],
    ], ids=["nan-epsilon", "negative-epsilon", "inf-epsilon",
            "nan-lr-range", "inf-lr-range", "lr-range-without-colon", "missing-summary"])
    def test_invalid_analyze_override_exits_2(self, tmp_path, capsys, flags):
        """Every case fails before `analyze` creates its output; the experiment has no summary.csv."""
        exp = tmp_path / "exp"
        exp.mkdir()
        save_config(ExperimentConfig(), exp / "config.ini")
        out = tmp_path / "report"
        assert main(["analyze", str(exp), "--out", str(out), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def small_experiment(self, tmp_path_factory):
        """An analyzed TOY_OP_SMALL experiment that `analyze` reads in full: no run is stabilized."""
        tmp = tmp_path_factory.mktemp("experiment")
        exp = run_grid(load_config(write_config(tmp, TOY_OP_SMALL)), out_dir=tmp / "exp")
        assert not any(e.stabilized for e in read_summary(exp / "summary.csv"))
        assert main(["analyze", str(exp)]) == 0
        return exp

    @pytest.mark.parametrize("pattern, edit, message", [
        ("summary.csv", lambda lines: [lines[0].replace("U_std", "U_sd"), *lines[1:]],
         "missing column(s) U_std"),
        ("summary.csv", lambda lines: [lines[0], "abc" + lines[1][lines[1].index(","):], *lines[2:]],
         "line 2: missing or unreadable 'lr' cell"),
        ("summary.csv", lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan", *lines[2:]],
         "line 2: missing or unreadable 'stabilized' cell"),
        ("summary.csv", lambda lines: [*lines[:-2], lines[-1]], "lr column"),
        ("summary.csv", lambda lines: [lines[0], *lines[2:]], "lr column"),
        ("summary.csv", lambda lines: [*lines[:-1], "1,nan,nan,nan,nan,false", lines[-1]], "lr column"),
        ("summary.csv", lambda lines: [lines[0], "nan" + lines[1][lines[1].index(","):], *lines[2:]],
         "lr column"),
        ("series_01_*.csv", lambda lines: [lines[0], lines[1].rsplit(",", 3)[0], *lines[2:]],
         "line 2: missing or unreadable 'mean_stoch_grad_norm' cell"),
        ("series_02_*.csv", lambda lines: [lines[0], lines[1] + ",\xe9", *lines[2:]],
         "can't decode byte 0xe9"),
        ("series_00_*.csv", lambda lines: [lines[0], *reversed(lines[1:-1]), lines[-1]],
         "line 3: 'iter' cell"),
        ("series_01_*.csv", lambda lines: [lines[0], "-1" + lines[1][lines[1].index(","):], *lines[2:]],
         "line 2: 'iter' cell -1 "),
        ("series_01_*.csv", lambda lines: [lines[0], "nan" + lines[1][lines[1].index(","):], *lines[2:]],
         "line 2: 'iter' cell nan "),
        ("series_00_*.csv", lambda lines: [lines[0], "0" + lines[1][lines[1].index(","):], *lines[2:]],
         "line 2: 'iter' cell 0 "),
        ("series_02_*.csv", lambda lines: [lines[0], lines[2].split(",")[0] + lines[1][lines[1].index(","):],
                                           *lines[2:]],
         "line 3: 'iter' cell"),
        ("baseline.csv", None, "file not found"),
        ("baseline.csv", lambda lines: lines[:4], "expected 4 finite S values"),
        ("baseline.csv", lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan", *lines[2:]],
         "expected 4 finite S values"),
        ("baseline.csv", lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0] + ",1.5x", *lines[3:]],
         "line 3: missing or unreadable 'S' cell"),
    ], ids=["renamed-summary-column", "non-numeric-summary-cell", "non-boolean-summary-cell",
            "summary-last-row-deleted", "summary-first-row-deleted", "summary-row-appended",
            "nan-summary-lr", "short-series-row", "not-utf8-series", "reversed-series-rows",
            "negative-first-iter", "nan-first-iter", "zero-first-iter", "duplicated-first-iter", "missing-baseline",
            "short-baseline", "nan-baseline-entropy", "unparsable-baseline-entropy"])
    def test_malformed_experiment_exits_2(self, tmp_path, capsys, small_experiment, pattern, edit,
                                          message):
        """`edit` rewrites the file's lines; None deletes the file.  The error names the file
        and holds `message`."""
        exp = tmp_path / "exp"
        shutil.copytree(small_experiment, exp)
        (path,) = exp.glob(pattern)
        if edit is None:
            path.unlink()
        else:
            lines = path.read_text(encoding="utf-8").split("\n")
            # Latin-1 bytes, so that "\xe9" is not valid UTF-8; the rest is ASCII.
            path.write_bytes("\n".join(edit(lines)).encode("latin-1"))
        before = {p.name: p.read_bytes() for p in exp.iterdir()}
        assert main(["analyze", str(exp)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(path) in err
        assert message in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in exp.iterdir()} == before

    def test_analyze_samples_no_baseline(self, tmp_path, monkeypatch, small_experiment):
        """`analyze` takes the baseline from baseline.csv and writes what it wrote before.

        Only report.txt's first line, which names the experiment directory, differs.
        """
        exp = shutil.copytree(small_experiment, tmp_path / "exp")

        def no_sampling(*args, **kwargs):
            raise AssertionError("analyze sampled a uniform-sphere baseline")

        monkeypatch.setattr(cli, "uniform_sphere_baseline", no_sampling)
        assert main(["analyze", str(exp)]) == 0
        for path in small_experiment.iterdir():
            old, new = path.read_bytes(), (exp / path.name).read_bytes()
            if path.name == "report.txt":
                old, new = old.split(b"\n", 1)[1], new.split(b"\n", 1)[1]
            assert old == new, path.name
        assert sorted(p.name for p in exp.iterdir()) == sorted(p.name for p in small_experiment.iterdir())

    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]], ids=["config-seed", "seed-flag"])
    def test_run_writes_the_baseline_of_its_stored_config(self, tmp_path, seed_flag):
        """baseline.csv holds one uniform-sphere cloud per baseline seed of the stored config."""

        def baseline_bytes(cfg, name):
            ensemble = cfg.ensemble()
            seeds = [cfg.lr_seed(10_000 + i) for i in range(cfg.baseline_seeds)]
            rows = [(seed, *st.uniform_sphere_baseline(ensemble, cfg.window, cfg.k, seed))
                    for seed in seeds]
            cli._write_csv(tmp_path / name, ["seed", "U", "S"], rows)
            return (tmp_path / name).read_bytes()

        path = write_config(tmp_path, TOY_OP_SMALL)
        exp = tmp_path / "exp"
        assert main(["run", "--config", str(path), "--out", str(exp), *seed_flag]) == 0
        run_bytes = (exp / "baseline.csv").read_bytes()
        assert run_bytes == baseline_bytes(load_config(exp / "config.ini"), "stored.csv")
        assert len(run_bytes.splitlines()) == 5  # header and 4 seeds
        if seed_flag:
            assert run_bytes != baseline_bytes(load_config(path), "unseeded.csv")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_lr_exits_2(self, tmp_path, capfd, jobs):
        """lr 1e200 sends the weights to zero norm; the run fails as one error line, with no
        traceback or numpy warning.  `capfd` also sees what a `--jobs 2` worker writes."""
        path = write_config(tmp_path, TOY_OP_SMALL.replace("lrs = 4.8e-3, 1.1e-2, 2.3e-2",
                                                           "lrs = 4.8e-3, 1e200"))
        out = tmp_path / "exp"
        assert main(["run", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: the simulation diverged:")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_baseline_command_is_gone(self, tmp_path, capsys):
        """`run` alone writes baseline.csv; `baseline` is an invalid choice of argparse."""
        path = write_config(tmp_path, TOY_OP_SMALL)
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--config", str(path), "--out", str(tmp_path / "base")])
        assert exc.value.code == 2
        assert "invalid choice: 'baseline'" in capsys.readouterr().err
        assert not (tmp_path / "base").exists()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{run,analyze,verify-oracles}" in capsys.readouterr().out

    def test_missing_experiment_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing")]) == 2

    def test_verify_oracles_exits_zero(self, capsys):
        assert main(["verify-oracles"]) == 0
        out = capsys.readouterr().out
        assert "factorization-identity" in out and "pass" in out

    def test_lr_range_flag(self, tmp_path):
        path = write_config(tmp_path, UP_SMALL)
        main(["run", "--config", str(path), "--out", str(tmp_path / "exp")])
        assert main(["analyze", str(tmp_path / "exp"), "--lr-range", "5e-3:3e-2"]) == 0
        report = (tmp_path / "exp" / "report.txt").read_text()
        assert "outside configured lr range" in report
