"""Configuration-driven experiment runner.

Subcommands
-----------
run             simulate a grid of learning rates, sample the uniform-sphere
                baseline, then write per-lr series CSVs, a stationary summary
                CSV and baseline.csv into the experiment directory
analyze         read an experiment directory, reduce it in memory to smoothed
                curves, temperature intervals with a monotonicity verdict,
                free-energy curves, finite-difference temperature series and
                phase-diagram power laws for non-stabilized runs, then write them;
                it samples nothing, and takes the baseline from baseline.csv
verify-oracles  closed-form identity checks; nonzero exit on failure

The config file is INI-style with one section per subsystem; `INI_SECTIONS`
lists every key, and every key is optional.  `ExperimentConfig` holds the
defaults and checks the whole config before anything is written, and `run` and
`analyze` compute all their results before they create the output directory.
All numeric output is written with 17 significant digits, and a normalized
copy of the configuration is stored next to the results so any run can be
replayed byte-identically.

Exit codes: 0 success, 1 verification failure, 2 invalid config or input file
or a diverged simulation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (
    StationaryEstimate,
    extract_stationary,
    finite_difference_temperature,
    fit_power_law,
    kernel_smooth_gaussian_logtime,
    kernel_smooth_triangular,
    free_energy_curve,
    select_stationary_range,
    temperature_curve,
    uniform_sphere_baseline,
)
from .closed_form import (
    central_meridian_snr,
    factorization_residual,
    hessian_ensemble_snr,
    two_circle_snr_sq,
)
from .ensembles import (
    make_circle_pair,
    make_toy_op,
    make_toy_up,
    random_hyperplane_ensemble,
    random_quadratic_ensemble,
)
from .errors import InvalidConfig, MissingData, NonFinite, ZeroVector
from .gradients import gradient_stats
from .sphere import SgdConfig, checkpoint_schedule, run_seeded

# The default learning-rate grid: 3 values per decade below 1e-4, 4 from
# 1e-4 to 1e-3, a dense segment of 14 across 1e-3..1e-2, and 7 up to 1.0.
DEFAULT_LR_GRID = [
    1.0e-5, 2.2e-5, 4.6e-5,
    1.0e-4, 1.8e-4, 3.2e-4, 5.6e-4,
    1.0e-3, 1.2e-3, 1.4e-3, 1.6e-3, 1.9e-3, 2.3e-3, 2.7e-3,
    3.2e-3, 3.7e-3, 4.4e-3, 5.2e-3, 6.1e-3, 7.2e-3, 8.5e-3,
    1.0e-2, 2.2e-2, 4.6e-2, 1.0e-1, 2.2e-1, 4.6e-1, 1.0,
]

# The files `run` writes for `analyze`: each CSV column, in file order, with the
# TrajectoryLog (series file) or StationaryEstimate (summary) field it holds.
SERIES_COLUMNS = {
    "iter": "iters", "loss": "losses", "full_grad_norm": "full_grad_norms",
    "mean_stoch_grad_norm": "stoch_grad_norms", "snr": "snrs", "entropy": "entropies",
}
SUMMARY_COLUMNS = {
    "lr": "lr", "U": "loss_mean", "U_std": "loss_std",
    "S": "entropy_mean", "S_std": "entropy_std", "stabilized": "stabilized",
}
# baseline.csv: one (seed, mean loss, entropy) row per uniform-sphere cloud.
BASELINE_COLUMNS = ("seed", "U", "S")
# Columns read back as true/false.  Every other column is read as floats (blank
# is NaN), and an `iter` column is also checked by `_check_iters`.
_BOOL_COLUMNS = {"stabilized"}
_BOOLS = {"true": True, "false": False}

MODEL_KINDS = ("toy_op", "toy_up", "hyperplane")

# The INI file: each [section] with the ExperimentConfig fields it holds, in
# file order, and the keys that differ from their field names.  Defaults live
# only in ExperimentConfig, which takes those of the engine from SgdConfig.
INI_SECTIONS = {
    "model": ("model", "dim", "components", "model_seed"),
    "grid": ("lr_grid",),
    "sgd": ("batch_size", "total_iters", "seed", "checkpoints_per_decade", "loss_stop_threshold"),
    "entropy": ("k", "window"),
    "analysis": ("epsilon", "tail_fraction", "smoothing_h", "smoothing_sigma", "fd_dt",
                 "lr_range", "baseline_seeds"),
    "output": ("output_dir",),
}
INI_KEYS = {"model": "kind", "lr_grid": "lrs", "output_dir": "dir"}


def fmt(x: float) -> str:
    """17-significant-digit float formatting shared by every CSV writer; gives nan, inf, -inf."""
    return f"{x:.17g}"


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "toy_op"
    dim: int = 3
    components: int = 2
    model_seed: int = 7
    lr_grid: tuple[float, ...] = tuple(DEFAULT_LR_GRID)
    batch_size: int = SgdConfig.batch_size
    total_iters: int = SgdConfig.total_iters
    seed: int = 1234
    checkpoints_per_decade: int = SgdConfig.checkpoints_per_decade
    loss_stop_threshold: float = SgdConfig.loss_stop_threshold
    k: int = SgdConfig.k
    window: int = SgdConfig.window
    epsilon: float = 1e-2
    tail_fraction: float = 0.5
    smoothing_h: float = 0.3
    smoothing_sigma: float = 0.1
    fd_dt: int = 2
    lr_range: tuple[float, float] | None = None
    baseline_seeds: int = 8
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise InvalidConfig(f"[model] kind must be one of {MODEL_KINDS}, got {self.model!r}")
        if len(self.lr_grid) == 0:
            raise InvalidConfig("[grid] lrs must not be empty")
        if not all(0 < lr < math.inf for lr in self.lr_grid):
            raise InvalidConfig("[grid] lrs must all be finite and positive")
        if any(b <= a for a, b in zip(self.lr_grid, self.lr_grid[1:])):
            raise InvalidConfig("[grid] lrs must be strictly increasing")
        if self.model == "hyperplane" and (self.dim < 2 or self.components < 2):
            raise InvalidConfig("[model] dim must be >= 2 and components >= 2")
        if self.lr_range is not None:
            if not all(math.isfinite(b) for b in self.lr_range):
                raise InvalidConfig("[analysis] lr_range bounds must be finite")
            if self.lr_range[0] > self.lr_range[1]:
                raise InvalidConfig("[analysis] lr_range lower bound exceeds upper bound")
        if not 0.0 <= self.epsilon < math.inf:
            raise InvalidConfig("[analysis] epsilon must be finite and >= 0")
        if not 0.0 < self.tail_fraction <= 0.5:
            raise InvalidConfig("[analysis] tail_fraction must lie in (0, 0.5]")
        if not (0 < self.smoothing_h < math.inf and 0 < self.smoothing_sigma < math.inf):
            raise InvalidConfig("[analysis] smoothing_h and smoothing_sigma must be finite and positive")
        if self.fd_dt < 1:
            raise InvalidConfig("[analysis] fd_dt must be >= 1")
        if self.baseline_seeds < 2:
            raise InvalidConfig("[analysis] baseline_seeds must be >= 2")
        if self.seed < 0:
            raise InvalidConfig("[sgd] seed must be >= 0")
        if self.model_seed < 0:
            raise InvalidConfig("[model] model_seed must be >= 0")
        # The simulation's own checks, run here so that nothing is written
        # before a bad config is rejected.  Each SgdConfig message starts
        # with the field it rejects, which is named here by its INI key.
        try:
            self.sgd_config()
        except InvalidConfig as exc:
            name, _, rest = str(exc).partition(" ")
            section = next(sec for sec, names in INI_SECTIONS.items() if name in names)
            raise InvalidConfig(f"[{section}] {INI_KEYS.get(name, name)} {rest}") from exc
        size = len(self.ensemble())
        if self.batch_size > size:
            raise InvalidConfig(f"[sgd] batch_size {self.batch_size} exceeds the ensemble size {size}")
        # extract_stationary needs 2 entropy windows among the checkpoints of the tail.
        t = checkpoint_schedule(self.total_iters, self.checkpoints_per_decade)
        if np.count_nonzero((t >= self.window) & (t > (1.0 - self.tail_fraction) * self.total_iters)) < 2:
            raise InvalidConfig(
                f"[entropy] window {self.window} is full at fewer than 2 checkpoints of the tail "
                f"(the last {fmt(self.tail_fraction)} of total_iters {self.total_iters})"
            )

    def ensemble(self):
        if self.model == "toy_op":
            return make_toy_op()
        if self.model == "toy_up":
            return make_toy_up()
        return random_hyperplane_ensemble(self.dim, self.components, self.model_seed)

    def sgd_config(self) -> SgdConfig:
        """The settings every chain of the grid shares."""
        return SgdConfig(**{f.name: getattr(self, f.name) for f in fields(SgdConfig)})

    def lr_seed(self, index: int) -> int:
        """Deterministic per-learning-rate seed derived from the root seed."""
        ss = np.random.SeedSequence([int(self.seed), int(index)])
        return int(ss.generate_state(1, np.uint64)[0])


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_lrs(raw: str) -> tuple[float, ...]:
    if raw == "default":
        return tuple(DEFAULT_LR_GRID)
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_lr_range(raw: str) -> tuple[float, float]:
    try:
        lo, hi = raw.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise InvalidConfig(f"lr_range must look like 'lo:hi', got {raw!r}") from exc


_PARSERS = {"lr_grid": _parse_lrs, "lr_range": _parse_lr_range}


def _format_value(name: str, value) -> str:
    if name == "lr_grid":
        return ", ".join(fmt(lr) for lr in value)
    if name == "lr_range":
        return "" if value is None else f"{fmt(value[0])}:{fmt(value[1])}"
    return fmt(value) if isinstance(_DEFAULTS[name], float) else str(value)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an INI file laid out as `INI_SECTIONS`; absent or blank keys keep their defaults."""
    path = Path(path)
    if not path.exists():
        raise MissingData(f"config file not found: {path}")
    # Values are literal (no "%" interpolation), so save_config output reads back as written.
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    values = {}
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        for section, names in INI_SECTIONS.items():
            for name in names:
                key = INI_KEYS.get(name, name)
                raw = parser.get(section, key, fallback="").strip()
                if raw == "":
                    continue
                parse = _PARSERS.get(name, type(_DEFAULTS[name]))
                try:
                    values[name] = parse(raw)
                except ValueError as exc:
                    raise InvalidConfig(f"[{section}] {key}: cannot parse {raw!r}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
    return ExperimentConfig(**values)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write a normalized config (explicit lr grid and seed) for exact replay."""
    lines = []
    for section, names in INI_SECTIONS.items():
        lines.append(f"[{section}]")
        for name in names:
            lines.append(f"{INI_KEYS.get(name, name)} = {_format_value(name, getattr(cfg, name))}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def series_filename(index: int, lr: float) -> str:
    return f"series_{index:02d}_lr_{lr:.6g}.csv"


def _run_chains(cfg: ExperimentConfig, indices: range):
    """Simulate the grid points `indices` in one lockstep engine call; (log, estimate) each.

    A chain whose tail is too short for a stationary estimate gets the all-NaN,
    not-stabilized one that `extract_stationary` returns for it.
    """
    lrs, seeds = [cfg.lr_grid[i] for i in indices], [cfg.lr_seed(i) for i in indices]
    return [(log, extract_stationary(log, tail_fraction=cfg.tail_fraction))
            for log in run_seeded(cfg.ensemble(), cfg.sgd_config(), lrs, seeds)]


def _cell(value) -> str:
    """The one cell format: floats through `fmt`, booleans as true/false, ints as-is, None blank."""
    if isinstance(value, float):  # almost every cell, np.float64 included
        return fmt(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return fmt(value)


def _write_csv(path: Path, header, rows) -> None:
    """The one CSV byte format: UTF-8, "\n" line endings, a header row first.

    No cell `_cell` writes holds a comma, a quote or a line break, and every
    table has at least two columns, so joining with "," gives the bytes
    `csv.writer` gives.
    """
    lines = [",".join(header), *(",".join(map(_cell, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _parse_columns(path: Path, header: list[str], columns, rows: list[list[str]],
                   lines: list[int]) -> dict[str, list]:
    """Inverse of `_cell`, one column at a time: true/false in a boolean column, a float
    elsewhere (blank is NaN).  A duplicated header name reads its last column."""
    index = {name: i for i, name in enumerate(header)}

    def parse(column, rows):
        i = index[column]
        if column in _BOOL_COLUMNS:
            return [_BOOLS[row[i]] for row in rows]
        return [float(row[i]) if row[i] else math.nan for row in rows]

    try:
        return {c: parse(c, rows) for c in columns}
    except (IndexError, KeyError, ValueError):
        # Report the first bad cell in file order, as a row-by-row parse finds it.
        for row, line in zip(rows, lines):
            for c in columns:
                try:  # a short row raises IndexError
                    parse(c, [row])
                except (IndexError, KeyError, ValueError) as exc:
                    raise MissingData(
                        f"{path}, line {line}: missing or unreadable {c!r} cell") from exc
        raise


def _check_iters(path: Path, iters: list[float], lines: list[int]) -> None:
    """A series file's `iter` column counts checkpoints: strictly increasing integers >= 1."""
    prev = 0.0
    for it, line in zip(iters, lines):
        if not (it > prev and it.is_integer()):
            raise MissingData(f"{path}, line {line}: 'iter' cell {fmt(it)} is not an integer "
                              f"above {fmt(prev)}; iters must be strictly increasing integers >= 1")
        prev = it


def _read_csv(path: Path, columns) -> dict[str, list]:
    """The named columns of a file written by `_write_csv`; any defect is MissingData.

    Blank lines are skipped and cells past the header are ignored.  A bad
    cell is reported by the line on which its row ends.
    """
    rows, lines = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise MissingData(f"{path}: missing column(s) {', '.join(missing)}")
            try:
                for row in reader:
                    if row:
                        rows.append(row)
                        lines.append(reader.line_num)
            except (UnicodeDecodeError, csv.Error):
                # A bad cell above the unreadable line is reported first.
                _parse_columns(path, header, columns, rows, lines)
                raise
    except FileNotFoundError as exc:
        raise MissingData(f"file not found: {path}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MissingData(f"{path}: {exc}") from exc
    cols = _parse_columns(path, header, columns, rows, lines)
    if "iter" in cols:
        _check_iters(path, cols["iter"], lines)
    return cols


def write_series(path: Path, log) -> None:
    values = {f: getattr(log, f).tolist() for f in SERIES_COLUMNS.values()}
    ent_by_iter = dict(zip(log.entropy_iters.tolist(), values["entropies"]))
    values["entropies"] = [ent_by_iter.get(it) for it in values["iters"]]
    _write_csv(path, SERIES_COLUMNS, zip(*values.values()))


def write_summary(path: Path, estimates: list[StationaryEstimate]) -> None:
    """One row per estimate, in the order given."""
    _write_csv(path, SUMMARY_COLUMNS,
               [[getattr(e, f) for f in SUMMARY_COLUMNS.values()] for e in estimates])


def run_grid(cfg: ExperimentConfig, out_dir: str | Path | None = None, jobs: int = 1) -> Path:
    """Run one trajectory per learning rate, then serialize the experiment.

    `jobs=1` runs every chain in one lockstep engine call.  `jobs=N` deals
    the grid out to N interleaved groups (every N-th learning rate; never
    more groups than learning rates), so that the early-stopping chains of
    one end of the grid do not all land in one worker.  It runs one engine
    call per group in a process pool, which is shut down before this
    returns, and puts the results back in grid order.  A chain's output does
    not depend on its group.  After the chains, the uniform-sphere baseline
    is sampled once, one cloud per `baseline_seeds` seed, and written to
    baseline.csv for `analyze`; this is the only writer of that file, so
    replaying the stored config rewrites it byte for byte.  Everything is
    computed before the output directory is created, so a chain that raises
    leaves no directory behind.
    """
    if jobs < 1:
        raise InvalidConfig(f"--jobs must be >= 1, got {jobs}")
    n = len(cfg.lr_grid)
    # A fork-based pool starts all of its workers up front, so ask for no
    # more than there are learning rates to run.
    workers = min(jobs, n)
    if workers > 1:
        # Imported here: a process pool pulls in multiprocessing, which
        # `--jobs 1`, `analyze` and `verify-oracles` never use.
        from concurrent.futures import ProcessPoolExecutor

        groups = [range(g, n, workers) for g in range(workers)]
        results = [None] * n
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for g, rows in enumerate(pool.map(_run_chains, [cfg] * workers, groups)):
                results[g::workers] = rows
    else:
        results = _run_chains(cfg, range(n))
    ensemble = cfg.ensemble()
    seeds = [cfg.lr_seed(10_000 + i) for i in range(cfg.baseline_seeds)]
    baseline_rows = [(seed, *uniform_sphere_baseline(ensemble, cfg.window, cfg.k, seed))
                     for seed in seeds]

    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.ini")
    for index, (log, _) in enumerate(results):
        write_series(out / series_filename(index, cfg.lr_grid[index]), log)
    write_summary(out / "summary.csv", [est for _, est in results])
    _write_csv(out / "baseline.csv", BASELINE_COLUMNS, baseline_rows)
    return out


def read_summary(path: Path) -> list[StationaryEstimate]:
    cols = _read_csv(path, SUMMARY_COLUMNS)
    return [StationaryEstimate(**dict(zip(SUMMARY_COLUMNS.values(), row)))
            for row in zip(*cols.values())]


def read_series(path: Path) -> dict[str, np.ndarray]:
    """Float arrays keyed by CSV header; NaN where the file has no entropy."""
    return {name: np.asarray(vals, dtype=float)
            for name, vals in _read_csv(path, SERIES_COLUMNS).items()}


def read_baseline_entropies(exp: Path, cfg: ExperimentConfig) -> np.ndarray:
    """The S column of `exp`/baseline.csv: one finite entropy per `cfg.baseline_seeds`.

    Any defect is MissingData, naming the file.
    """
    path = exp / "baseline.csv"
    ents = np.array(_read_csv(path, ["S"])["S"], dtype=float)
    if ents.size != cfg.baseline_seeds or not np.all(np.isfinite(ents)):
        raise MissingData(f"{path}: expected {cfg.baseline_seeds} finite S values "
                          f"([analysis] baseline_seeds), got {ents.tolist()}")
    return ents


# The CSVs `analyze` owns in its output directory: each call writes those that
# have rows and removes the others, so no table survives from an earlier call.
ANALYSIS_FILES = ("smoothed.csv", "temperature.csv", "free_energy.csv", "fd_temperature.csv",
                  "phase_law.csv")


def reduce_experiment(cfg: ExperimentConfig, estimates: list[StationaryEstimate],
                      series: dict[int, dict[str, np.ndarray]], base_ents: np.ndarray):
    """The whole analysis of one experiment, in memory: (verdicts, tables, report lines).

    `estimates` are the summary rows in grid order, `series` maps the grid
    index of every non-stabilized estimate to its series columns, and
    `base_ents` holds the uniform-sphere baseline entropies (the S column of
    baseline.csv).  `tables` maps each of the `ANALYSIS_FILES` that has rows
    to its (header, rows).
    """
    usable = [e for e in estimates if math.isfinite(e.loss_mean) and math.isfinite(e.entropy_mean)]
    base_s, base_s_std = float(base_ents.mean()), float(base_ents.std(ddof=1))

    kept_idx, exclusions = select_stationary_range(usable, base_s, base_s_std, cfg.lr_range)
    # A finite U with S = -inf is a run that settled on one point: zero temperature.
    collapsed = [math.isfinite(e.loss_mean) and e.entropy_mean == -math.inf for e in estimates]
    exclusions += [(e.lr, "collapsed to a point (S = -inf)" if c else "no stationary estimate")
                   for e, c in zip(estimates, collapsed) if e not in usable]
    retained = [usable[i] for i in kept_idx]

    report_lines = [f"epsilon: {fmt(cfg.epsilon)}"]
    report_lines += [f"excluded lr={fmt(lr)}: {reason}" for lr, reason in sorted(exclusions)]
    verdicts: dict = {"exclusions": exclusions}
    tables = {}

    if len(retained) < 3:
        if all(e.stabilized for e in estimates):
            raise MissingData(f"only {len(retained)} stabilized learning rates after exclusions; "
                              "need >= 3 for temperature estimation")
        report_lines.append(
            f"temperature curve: skipped ({len(retained)} retained learning rates < 3)")
        verdicts["temperature_curve"] = None
    else:
        log_lrs = np.log([e.lr for e in retained])
        u_smooth = kernel_smooth_triangular(log_lrs, [e.loss_mean for e in retained], cfg.smoothing_h)
        s_smooth = kernel_smooth_triangular(log_lrs, [e.entropy_mean for e in retained], cfg.smoothing_h)
        smoothed = [replace(e, loss_mean=float(u), entropy_mean=float(s))
                    for e, u, s in zip(retained, u_smooth, s_smooth)]
        tables["smoothed.csv"] = (["lr", "U", "S", "U_smooth", "S_smooth"], [
            [e.lr, e.loss_mean, e.entropy_mean, u, s] for e, u, s in zip(retained, u_smooth, s_smooth)
        ])

        curve = temperature_curve(smoothed, cfg.epsilon)
        tables["temperature.csv"] = (["lr", "t_lo", "t_hi", "bound_only", "empty"], [
            [iv.lr, iv.t_lo, iv.t_hi, iv.bound_only, iv.empty] for iv in curve.intervals
        ])
        verdicts["temperature_curve"] = curve
        report_lines.append(f"monotone temperature: {'true' if curve.monotone else 'false'}")

        finite_mids = [iv for iv in curve.intervals if not iv.bound_only and math.isfinite(iv.midpoint)]
        consistent = 0
        for iv in finite_mids:
            f_vals, argmin = free_energy_curve(smoothed, iv.midpoint)
            target = next(i for i, e in enumerate(smoothed) if e.lr == iv.lr)
            if f_vals[target] <= f_vals[argmin] + cfg.epsilon:
                consistent += 1
        verdicts["free_energy_consistent"] = (consistent, len(finite_mids))
        report_lines.append(
            f"free-energy minima within epsilon at their own lr: {consistent}/{len(finite_mids)}")

        if finite_mids:
            picks = sorted({finite_mids[len(finite_mids) // 4].midpoint,
                            finite_mids[len(finite_mids) // 2].midpoint,
                            finite_mids[(3 * len(finite_mids)) // 4].midpoint})
            fe_rows = []
            for t in picks:
                f_vals, argmin = free_energy_curve(smoothed, t)
                fe_rows += [[t, e.lr, f_vals[i], i == argmin] for i, e in enumerate(smoothed)]
            tables["free_energy.csv"] = (["temperature", "lr", "free_energy", "is_argmin"], fe_rows)

    # Finite-difference temperature and gradient phase diagram for runs that
    # never reached stationarity (the converging regime).
    fd_rows, law_rows = [], []
    for idx, run in series.items():
        lr = estimates[idx].lr
        has_ent = np.isfinite(run["entropy"])  # excludes the -inf collapse sentinel
        if np.count_nonzero(has_ent) > 2 * cfg.fd_dt:
            iters = run["iter"][has_ent]
            u = kernel_smooth_gaussian_logtime(iters, run["loss"][has_ent], cfg.smoothing_sigma)
            s = kernel_smooth_gaussian_logtime(iters, run["entropy"][has_ent], cfg.smoothing_sigma)
            fd_idx, fd_vals = finite_difference_temperature(u, s, cfg.fd_dt)
            fd_rows += [(lr, int(iters[j]), t) for j, t in zip(fd_idx, fd_vals)]
        good = (run["full_grad_norm"] > 1e-290) & (run["mean_stoch_grad_norm"] > 1e-290)
        burn = max(1, np.count_nonzero(good) // 10)
        gx = run["full_grad_norm"][good][burn:]
        gy = run["mean_stoch_grad_norm"][good][burn:]
        if gx.size >= 3 and np.ptp(np.log(gx)) > 0:
            law_rows.append((lr, fit_power_law(gx, gy)))

    if fd_rows:
        tables["fd_temperature.csv"] = (["lr", "iter", "temperature"], fd_rows)
        report_lines.append(f"finite-difference temperature series written for "
                            f"{len({lr for lr, _, _ in fd_rows})} non-stabilized learning rates")
    if law_rows:
        tables["phase_law.csv"] = (["lr", "coefficient", "exponent", "r_squared"], [
            [lr, law.coefficient, law.exponent, law.r_squared] for lr, law in law_rows
        ])
    report_lines += [f"gradient phase-diagram power law at lr={fmt(lr)}: exponent {law.exponent:.4f}"
                     for lr, law in law_rows]
    verdicts.update(fd_rows=fd_rows, phase_laws=law_rows)
    return verdicts, tables, report_lines


def analyze(exp_dir: str | Path, out_dir: str | Path | None = None,
            lr_range: tuple[float, float] | None = None, epsilon: float | None = None) -> dict:
    """Reduce an experiment directory to temperature/free-energy reports; returns the verdicts.

    Reads config.ini, summary.csv, baseline.csv (the entropies that `run`
    sampled for the saturation test) and the series file of every
    non-stabilized run before it creates the output directory; it samples
    and simulates nothing.  The overrides do not enter the baseline.  In the
    output directory it writes report.txt and each of the `ANALYSIS_FILES`
    that has rows, and removes the others.
    """
    exp = Path(exp_dir)
    overrides = {"epsilon": epsilon, "lr_range": lr_range}
    cfg = replace(load_config(exp / "config.ini"),
                  **{name: v for name, v in overrides.items() if v is not None})
    estimates = read_summary(exp / "summary.csv")
    lrs, grid = [e.lr for e in estimates], list(cfg.lr_grid)
    if lrs != grid:
        row = next((i for i, (a, b) in enumerate(zip(lrs, grid)) if a != b), min(len(lrs), len(grid)))
        raise MissingData(f"{exp / 'summary.csv'}: lr column does not match the [grid] lrs of "
                          f"{exp / 'config.ini'} ({len(lrs)} rows for {len(grid)} lrs; the first "
                          f"difference is at data row {row + 1})")
    series = {idx: read_series(exp / series_filename(idx, e.lr))
              for idx, e in enumerate(estimates) if not e.stabilized}
    base_ents = read_baseline_entropies(exp, cfg)
    verdicts, tables, report_lines = reduce_experiment(cfg, estimates, series, base_ents)

    out = Path(out_dir) if out_dir is not None else exp
    out.mkdir(parents=True, exist_ok=True)
    for name in ANALYSIS_FILES:
        if name in tables:
            _write_csv(out / name, *tables[name])
        else:
            (out / name).unlink(missing_ok=True)
    report = "\n".join([f"experiment: {exp}", *report_lines])
    (out / "report.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    return verdicts


@dataclass(frozen=True)
class OracleCheck:
    name: str
    max_residual: float
    threshold: float
    passed: bool


def verify_oracles() -> list[OracleCheck]:
    """Run the closed-form identity suite, each identity on whole arrays."""
    rng = np.random.default_rng(20_624)
    checks: list[OracleCheck] = []

    def check(name: str, worst, threshold: float, passed) -> None:
        checks.append(OracleCheck(name, float(worst), threshold, bool(passed)))

    # Polynomial identity behind the radial monotonicity of the squared SNR,
    # at R ~ uniform(0, 0.4999) and S ~ uniform(0, R), drawn as R = 0.4999 u0
    # and S = R u1.
    u = rng.random((10_000, 2))
    r = 0.4999 * u[:, 0]
    worst = np.abs(factorization_residual(r * u[:, 1], r)).max()
    check("factorization-identity", worst, 1e-12, worst < 1e-12)

    # Azimuthal minimum at the central meridian.
    worst = 0.0
    radii = np.array([0.2, 0.5, 0.8])[:, None]
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
        grid = np.linspace(-alpha, alpha, 2 * round(alpha / 1e-3) + 1)
        vals = two_circle_snr_sq(radii * np.sin(grid), radii * np.cos(grid), alpha)
        worst = np.maximum(worst, (vals[:, grid.size // 2] - vals.min(axis=1)).max())
    check("central-meridian-minimum", worst, 0.0, worst <= 0.0)

    # Squared SNR nonincreasing in the squared radius.
    worst = -math.inf
    radii = np.sqrt(np.linspace(1e-4, 0.9999, 1000))
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
        phis = np.array([0.0, alpha / 2, 0.99 * alpha])[:, None]
        vals = two_circle_snr_sq(radii * np.sin(phis), radii * np.cos(phis), alpha)
        worst = np.maximum(worst, np.diff(vals, axis=1).max())
    check("radial-monotonicity", worst, 1e-12, worst < 1e-12)

    # Closed form equals the measured population SNR of the circle pair, at
    # every point where the closed form exists.  Every check takes its
    # maximum with np.max and np.maximum, which carry a NaN (an undefined
    # measured SNR, say) through to a failed check.
    worst = 0.0
    for alpha in (math.pi / 6, math.pi / 5):
        w = rng.standard_normal((1000, 3))
        w /= np.sqrt(np.vecdot(w, w))[:, None]
        oracle = two_circle_snr_sq(w[:, 0], w[:, 1], alpha)
        defined = ~np.isnan(oracle)
        snr = gradient_stats(make_circle_pair(alpha), w[defined]).snr
        worst = np.maximum(worst, np.abs(snr**2 - oracle[defined]).max(initial=0.0))
    check("two-circle-snr-oracle", worst, 1e-10, worst < 1e-10)

    # Meridian limit consistency with the closed form at azimuth zero.
    radii = np.linspace(0.05, 0.95, 19)
    worst = np.abs(central_meridian_snr(radii, math.pi / 6)
                   - np.sqrt(two_circle_snr_sq(0.0, radii, math.pi / 6))).max()
    check("meridian-limit-consistency", worst, 1e-12, worst < 1e-12)

    # Direction-wise SNR of quadratic ensembles is displacement-independent.
    worst = 0.0
    deltas = np.array([1e-1, 1e-3, 1e-6])[:, None]
    for trial in range(20):
        d = int(rng.integers(2, 11))
        m = int(rng.integers(2, 9))
        ens = random_quadratic_ensemble(d, m, seed=int(rng.integers(1 << 31)))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        closed = hessian_ensemble_snr(ens.hessians, direction)
        snr = gradient_stats(ens, ens.optimum + deltas * direction).snr
        worst = np.maximum(worst, np.abs(snr - closed).max())
    check("hessian-snr-delta-independence", worst, 1e-10, worst < 1e-10)

    # Measured SNR depends on (x, y) only.
    ens = make_toy_op()
    x, y = rng.uniform(-0.7, 0.7, size=(200, 2)).T
    z_sq = 1.0 - x * x - y * y
    keep = z_sq > 1e-3
    x, y, z = x[keep], y[keep], np.sqrt(z_sq[keep])
    up = gradient_stats(ens, np.column_stack((x, y, z))).snr
    down = gradient_stats(ens, np.column_stack((x, y, -z))).snr
    worst = np.abs(up - down).max(initial=0.0)
    check("z-independence", worst, 1e-10, worst < 1e-10)
    return checks


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = run_grid(cfg, out_dir=args.out, jobs=args.jobs)
    print(f"experiment written to {out}")
    return 0


def _cmd_analyze(args) -> int:
    lr_range = _parse_lr_range(args.lr_range) if args.lr_range else None
    analyze(args.experiment, out_dir=args.out, lr_range=lr_range, epsilon=args.epsilon)
    return 0


def _cmd_verify_oracles(args) -> int:
    checks = verify_oracles()
    width = max(len(c.name) for c in checks)
    failed = False
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  max residual {c.max_residual:.3e}  "
              f"(threshold {c.threshold:.0e})  {status}")
        failed = failed or not c.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdtherm",
        description="Fixed-learning-rate SGD experiments on the sphere and their "
                    "loss/entropy/temperature analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a grid of learning rates")
    p_run.add_argument("--config", required=True, help="experiment config (INI)")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel workers over learning rates")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="analyze an experiment directory")
    p_an.add_argument("experiment", help="directory written by `run`")
    p_an.add_argument("--out", default=None, help="report directory (default: experiment dir)")
    p_an.add_argument("--lr-range", default=None, help="retain only lo:hi learning rates")
    p_an.add_argument("--epsilon", type=float, default=None, help="free-energy slack override")
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify-oracles", help="closed-form identity checks")
    p_ver.set_defaults(func=_cmd_verify_oracles)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, MissingData, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeroVector, NonFinite) as exc:
        print(f"error: the simulation diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
