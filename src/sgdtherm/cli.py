"""Configuration-driven experiment runner.

Subcommands
-----------
run             simulate a grid of learning rates, write per-lr series CSVs
                and a stationary summary CSV into the experiment directory
analyze         reduce an experiment directory to smoothed curves,
                temperature intervals with a monotonicity verdict,
                free-energy curves, finite-difference temperature series for
                non-stabilized runs, and a gradient phase-diagram power law
baseline        uniform-sphere loss/entropy reference values for the model
verify-oracles  closed-form identity checks; nonzero exit on failure

The config file is INI-style with one section per subsystem; `INI_SECTIONS`
lists every key, and every key is optional.  `ExperimentConfig` holds the
defaults and checks the whole config before anything is written.  All numeric
output is written with 17 significant digits, and a normalized copy of the
configuration is stored next to the results so any run can be replayed
byte-identically.

Exit codes: 0 success, 1 verification failure, 2 invalid config or I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
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
from .entropy import EntropyConfig
from .errors import (
    DegeneratePoint,
    InvalidConfig,
    MissingData,
    TooFewSamples,
)
from .gradients import gradient_stats
from .sphere import SgdConfig, run_seeded

# The default learning-rate grid: 3 values per decade below 1e-4, 4 from
# 1e-4 to 1e-3, a dense segment of 14 across 1e-3..1e-2, and 7 up to 1.0.
DEFAULT_LR_GRID = [
    1.0e-5, 2.2e-5, 4.6e-5,
    1.0e-4, 1.8e-4, 3.2e-4, 5.6e-4,
    1.0e-3, 1.2e-3, 1.4e-3, 1.6e-3, 1.9e-3, 2.3e-3, 2.7e-3,
    3.2e-3, 3.7e-3, 4.4e-3, 5.2e-3, 6.1e-3, 7.2e-3, 8.5e-3,
    1.0e-2, 2.2e-2, 4.6e-2, 1.0e-1, 2.2e-1, 4.6e-1, 1.0,
]

SERIES_HEADER = ["iter", "loss", "full_grad_norm", "mean_stoch_grad_norm", "snr", "entropy"]
SUMMARY_HEADER = ["lr", "U", "U_std", "S", "S_std", "stabilized"]
TEMPERATURE_HEADER = ["lr", "t_lo", "t_hi", "bound_only", "empty"]

MODEL_KINDS = ("toy_op", "toy_up", "hyperplane", "quadratic")

# The INI file: each [section] with the ExperimentConfig fields it holds, in
# file order, and the keys that differ from their field names.  Defaults live
# only in ExperimentConfig.
INI_SECTIONS = {
    "model": ("model", "dim", "components", "model_seed", "hessian_scale"),
    "grid": ("lr_grid",),
    "sgd": ("batch_size", "total_iters", "seed", "checkpoints_per_decade", "loss_stop_threshold"),
    "entropy": ("k", "window"),
    "analysis": ("epsilon", "tail_fraction", "smoothing_h", "smoothing_sigma", "fd_dt",
                 "lr_range", "baseline_seeds"),
    "output": ("output_dir",),
}
INI_KEYS = {"model": "kind", "lr_grid": "lrs", "output_dir": "dir"}


def fmt(x: float) -> str:
    """17-significant-digit float formatting shared by every CSV writer."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "toy_op"
    dim: int = 3
    components: int = 2
    model_seed: int = 7
    hessian_scale: float = 1.0
    lr_grid: tuple[float, ...] = tuple(DEFAULT_LR_GRID)
    batch_size: int = 1
    total_iters: int = 50_000
    seed: int = 1234
    checkpoints_per_decade: int = 20
    loss_stop_threshold: float = 0.0
    k: int = 50
    window: int = 1000
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
        if not all(math.isfinite(lr) for lr in self.lr_grid):
            raise InvalidConfig("[grid] lrs must all be finite")
        if any(lr <= 0 for lr in self.lr_grid):
            raise InvalidConfig("[grid] lrs must all be positive")
        if any(b <= a for a, b in zip(self.lr_grid, self.lr_grid[1:])):
            raise InvalidConfig("[grid] lrs must be strictly increasing")
        if self.model in ("hyperplane", "quadratic"):
            if self.dim < 2 or self.components < 1:
                raise InvalidConfig("[model] dim must be >= 2 and components >= 1")
        if self.lr_range is not None:
            if not all(math.isfinite(b) for b in self.lr_range):
                raise InvalidConfig("[analysis] lr_range bounds must be finite")
            if self.lr_range[0] > self.lr_range[1]:
                raise InvalidConfig("[analysis] lr_range lower bound exceeds upper bound")
        if not 0.0 <= self.epsilon < math.inf:
            raise InvalidConfig("[analysis] epsilon must be finite and >= 0")
        if not 0.0 < self.tail_fraction <= 0.5:
            raise InvalidConfig("[analysis] tail_fraction must lie in (0, 0.5]")
        if not (self.smoothing_h > 0 and self.smoothing_sigma > 0):
            raise InvalidConfig("[analysis] smoothing_h and smoothing_sigma must be positive")
        if self.fd_dt < 1:
            raise InvalidConfig("[analysis] fd_dt must be >= 1")
        if self.baseline_seeds < 2:
            raise InvalidConfig("[analysis] baseline_seeds must be >= 2")
        if self.seed < 0:
            raise InvalidConfig("[sgd] seed must be >= 0")
        if self.model_seed < 0:
            raise InvalidConfig("[model] model_seed must be >= 0")
        # The simulation's own checks, run here so that nothing is written
        # before a bad config is rejected.
        self.entropy_config()
        self.sgd_config(self.lr_grid[0], self.seed)
        size = len(self.ensemble())
        if self.batch_size > size:
            raise InvalidConfig(f"[sgd] batch_size {self.batch_size} exceeds the ensemble size {size}")

    def ensemble(self):
        if self.model == "toy_op":
            return make_toy_op()
        if self.model == "toy_up":
            return make_toy_up()
        if self.model == "hyperplane":
            return random_hyperplane_ensemble(self.dim, self.components, self.model_seed)
        return random_quadratic_ensemble(
            self.dim, self.components, self.model_seed, self.hessian_scale
        )

    def sgd_config(self, lr: float, seed: int) -> SgdConfig:
        return SgdConfig(
            learning_rate=lr,
            batch_size=self.batch_size,
            total_iters=self.total_iters,
            seed=seed,
            checkpoints_per_decade=self.checkpoints_per_decade,
            loss_stop_threshold=self.loss_stop_threshold,
        )

    def entropy_config(self) -> EntropyConfig:
        return EntropyConfig(k=self.k, window=self.window)

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


def _run_one(cfg: ExperimentConfig, index: int):
    """Simulate one learning rate; returns (index, log, estimate-or-None)."""
    lr = cfg.lr_grid[index]
    ensemble = cfg.ensemble()
    log = run_seeded(ensemble, cfg.sgd_config(lr, cfg.lr_seed(index)), cfg.entropy_config())
    try:
        est = extract_stationary(log, tail_fraction=cfg.tail_fraction)
    except TooFewSamples:
        est = None
    return index, log, est


def _write_csv(path: Path, header, rows) -> None:
    """The one CSV byte format: UTF-8, "\n" line endings, a header row first."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_series(path: Path, log) -> None:
    ent_by_iter = dict(zip(log.entropy_iters.tolist(), log.entropies.tolist()))
    rows = []
    for i in range(log.iters.size):
        it = int(log.iters[i])
        ent = ent_by_iter.get(it)
        rows.append([
            str(it),
            fmt(float(log.losses[i])),
            fmt(float(log.full_grad_norms[i])),
            fmt(float(log.stoch_grad_norms[i])),
            fmt(float(log.snrs[i])),
            "" if ent is None else fmt(ent),
        ])
    _write_csv(path, SERIES_HEADER, rows)


def write_summary(path: Path, rows: list[tuple[float, StationaryEstimate | None]]) -> None:
    out = []
    for lr, est in rows:
        if est is None:
            out.append([fmt(lr), "nan", "nan", "nan", "nan", "false"])
        else:
            out.append([
                fmt(lr), fmt(est.loss_mean), fmt(est.loss_std),
                fmt(est.entropy_mean), fmt(est.entropy_std),
                "true" if est.stabilized else "false",
            ])
    _write_csv(path, SUMMARY_HEADER, out)


def run_grid(cfg: ExperimentConfig, out_dir: str | Path | None = None, jobs: int = 1) -> Path:
    """Run one trajectory per learning rate and serialize the experiment."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.ini")

    indices = list(range(len(cfg.lr_grid)))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, [cfg] * len(indices), indices))
    else:
        results = [_run_one(cfg, i) for i in indices]
    results.sort(key=lambda r: r[0])

    summary_rows = []
    for index, log, est in results:
        lr = cfg.lr_grid[index]
        write_series(out / series_filename(index, lr), log)
        summary_rows.append((lr, est))
    write_summary(out / "summary.csv", summary_rows)
    return out


def read_summary(path: Path) -> list[StationaryEstimate]:
    if not path.exists():
        raise MissingData(f"summary file not found: {path}")
    estimates = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            estimates.append(StationaryEstimate(
                lr=float(row["lr"]),
                loss_mean=float(row["U"]),
                loss_std=float(row["U_std"]),
                entropy_mean=float(row["S"]),
                entropy_std=float(row["S_std"]),
                stabilized=row["stabilized"] == "true",
            ))
    return estimates


def read_series(path: Path) -> dict[str, np.ndarray]:
    if not path.exists():
        raise MissingData(f"series file not found: {path}")
    cols: dict[str, list[float]] = {name: [] for name in SERIES_HEADER}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for name in SERIES_HEADER:
                raw = row[name]
                cols[name].append(math.nan if raw == "" else float(raw))
    return {name: np.asarray(vals) for name, vals in cols.items()}


def _baseline_rows(cfg: ExperimentConfig, ensemble) -> list[tuple[int, float, float]]:
    """(seed, loss, entropy) of the uniform-sphere baseline, one row per baseline seed."""
    rows = []
    for i in range(cfg.baseline_seeds):
        seed = int(np.random.SeedSequence([int(cfg.seed), 10_000 + i]).generate_state(1, np.uint64)[0])
        u, s = uniform_sphere_baseline(ensemble, cfg.window, cfg.k, seed)
        rows.append((seed, u, s))
    return rows


def analyze(
    exp_dir: str | Path,
    out_dir: str | Path | None = None,
    lr_range: tuple[float, float] | None = None,
    epsilon: float | None = None,
) -> dict:
    """Reduce an experiment directory to temperature/free-energy reports.

    Returns a dict of verdicts; writes smoothed.csv, temperature.csv,
    free_energy.csv, fd_temperature.csv, phase_law.csv and report.txt.
    """
    exp = Path(exp_dir)
    overrides = {"epsilon": epsilon, "lr_range": lr_range}
    cfg = replace(load_config(exp / "config.ini"),
                  **{name: v for name, v in overrides.items() if v is not None})
    out = Path(out_dir) if out_dir is not None else exp
    out.mkdir(parents=True, exist_ok=True)

    all_estimates = read_summary(exp / "summary.csv")
    usable = [e for e in all_estimates if math.isfinite(e.loss_mean) and math.isfinite(e.entropy_mean)]
    ensemble = cfg.ensemble()
    base_ents = np.array([s for _, _, s in _baseline_rows(cfg, ensemble)])
    base_s, base_s_std = float(base_ents.mean()), float(base_ents.std(ddof=1))

    kept_idx, exclusions = select_stationary_range(usable, base_s, base_s_std, cfg.lr_range)
    for e in all_estimates:
        if e not in usable:
            exclusions.append((e.lr, "no stationary estimate"))
    retained = [usable[i] for i in kept_idx]

    report_lines = [f"experiment: {exp}", f"epsilon: {fmt(cfg.epsilon)}"]
    for lr, reason in sorted(exclusions):
        report_lines.append(f"excluded lr={fmt(lr)}: {reason}")

    verdicts: dict = {"exclusions": exclusions}

    non_stabilized = [e for e in usable if not e.stabilized]
    if len(retained) < 3:
        if not non_stabilized:
            raise MissingData(
                f"only {len(retained)} stabilized learning rates after exclusions; "
                "need >= 3 for temperature estimation"
            )
        report_lines.append(
            f"temperature curve: skipped ({len(retained)} retained learning rates < 3)"
        )
        verdicts["temperature_curve"] = None
    else:
        log_lrs = np.log([e.lr for e in retained])
        u_smooth = kernel_smooth_triangular(log_lrs, [e.loss_mean for e in retained], cfg.smoothing_h)
        s_smooth = kernel_smooth_triangular(log_lrs, [e.entropy_mean for e in retained], cfg.smoothing_h)
        smoothed = [
            replace(e, loss_mean=float(u), entropy_mean=float(s))
            for e, u, s in zip(retained, u_smooth, s_smooth)
        ]
        _write_csv(out / "smoothed.csv", ["lr", "U", "S", "U_smooth", "S_smooth"], [
            [fmt(e.lr), fmt(e.loss_mean), fmt(e.entropy_mean), fmt(u), fmt(s)]
            for e, u, s in zip(retained, u_smooth, s_smooth)
        ])

        curve = temperature_curve(smoothed, cfg.epsilon)
        _write_csv(out / "temperature.csv", TEMPERATURE_HEADER, [
            [
                fmt(iv.lr), fmt(iv.t_lo), fmt(iv.t_hi),
                "true" if iv.bound_only else "false",
                "true" if iv.empty else "false",
            ]
            for iv in curve.intervals
        ])
        verdicts["temperature_curve"] = curve
        report_lines.append(f"monotone temperature: {'true' if curve.monotone else 'false'}")

        interior = [iv for iv in curve.intervals if not iv.bound_only and not iv.empty]
        finite_mids = [iv for iv in interior if math.isfinite(iv.midpoint)]
        consistent = 0
        for iv in finite_mids:
            f_vals, argmin = free_energy_curve(smoothed, iv.midpoint)
            target = next(i for i, e in enumerate(smoothed) if e.lr == iv.lr)
            if f_vals[target] <= f_vals[argmin] + cfg.epsilon:
                consistent += 1
        verdicts["free_energy_consistent"] = (consistent, len(finite_mids))
        report_lines.append(
            f"free-energy minima within epsilon at their own lr: {consistent}/{len(finite_mids)}"
        )

        if finite_mids:
            picks = sorted({finite_mids[len(finite_mids) // 4].midpoint,
                            finite_mids[len(finite_mids) // 2].midpoint,
                            finite_mids[(3 * len(finite_mids)) // 4].midpoint})
            fe_rows = []
            for t in picks:
                f_vals, argmin = free_energy_curve(smoothed, t)
                for i, e in enumerate(smoothed):
                    fe_rows.append([
                        fmt(t), fmt(e.lr), fmt(float(f_vals[i])),
                        "true" if i == argmin else "false",
                    ])
            _write_csv(out / "free_energy.csv",
                       ["temperature", "lr", "free_energy", "is_argmin"], fe_rows)

    # Finite-difference temperature and gradient phase diagram for runs that
    # never reached stationarity (the converging regime).
    fd_rows, law_rows = [], []
    for idx, e in enumerate(all_estimates):
        if e.stabilized:
            continue
        series = read_series(exp / series_filename(idx, e.lr))
        has_ent = np.isfinite(series["entropy"])  # excludes the -inf collapse sentinel
        if np.count_nonzero(has_ent) > 2 * cfg.fd_dt:
            u = kernel_smooth_gaussian_logtime(
                series["iter"][has_ent], series["loss"][has_ent], cfg.smoothing_sigma
            )
            s = kernel_smooth_gaussian_logtime(
                series["iter"][has_ent], series["entropy"][has_ent], cfg.smoothing_sigma
            )
            fd_idx, fd_vals = finite_difference_temperature(u, s, cfg.fd_dt)
            iters = series["iter"][has_ent]
            for j, t in zip(fd_idx, fd_vals):
                fd_rows.append((e.lr, int(iters[j]), t))
        good = (series["full_grad_norm"] > 1e-290) & (series["mean_stoch_grad_norm"] > 1e-290)
        burn = max(1, np.count_nonzero(good) // 10)
        gx = series["full_grad_norm"][good][burn:]
        gy = series["mean_stoch_grad_norm"][good][burn:]
        if gx.size >= 3 and np.ptp(np.log(gx)) > 0:
            law = fit_power_law(gx, gy)
            law_rows.append((e.lr, law))

    if fd_rows:
        _write_csv(out / "fd_temperature.csv", ["lr", "iter", "temperature"],
                   [[fmt(lr), str(it), fmt(float(t))] for lr, it, t in fd_rows])
        report_lines.append(
            f"finite-difference temperature series written for "
            f"{len({lr for lr, _, _ in fd_rows})} non-stabilized learning rates"
        )
    if law_rows:
        _write_csv(out / "phase_law.csv", ["lr", "coefficient", "exponent", "r_squared"], [
            [fmt(lr), fmt(law.coefficient), fmt(law.exponent), fmt(law.r_squared)]
            for lr, law in law_rows
        ])
        for lr, law in law_rows:
            report_lines.append(
                f"gradient phase-diagram power law at lr={fmt(lr)}: exponent {law.exponent:.4f}"
            )
    verdicts["fd_rows"] = fd_rows
    verdicts["phase_laws"] = law_rows

    (out / "report.txt").write_text("\n".join(report_lines) + "\n", encoding="utf-8")
    for line in report_lines:
        print(line)
    return verdicts


@dataclass(frozen=True)
class OracleCheck:
    name: str
    max_residual: float
    threshold: float
    passed: bool


def verify_oracles(coefficient_shift: float = 0.0, seed: int = 20_624) -> list[OracleCheck]:
    """Run the closed-form identity suite; `coefficient_shift` is a negative-control hook."""
    rng = np.random.default_rng(seed)
    checks: list[OracleCheck] = []

    # Polynomial identity behind the radial monotonicity of the squared SNR.
    worst = 0.0
    for _ in range(10_000):
        r = rng.uniform(0.0, 0.4999)
        s = rng.uniform(0.0, r)
        worst = max(worst, abs(factorization_residual(s, r, coefficient_shift)))
    checks.append(OracleCheck("factorization-identity", worst, 1e-12, worst < 1e-12))

    # Azimuthal minimum at the central meridian.
    worst = 0.0
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
        grid = np.linspace(-alpha, alpha, 2 * round(alpha / 1e-3) + 1)
        for r in (0.2, 0.5, 0.8):
            vals = np.array([two_circle_snr_sq(r * math.sin(p), r * math.cos(p), alpha) for p in grid])
            worst = max(worst, float(vals[grid.size // 2] - vals.min()))
    checks.append(OracleCheck("central-meridian-minimum", worst, 0.0, worst <= 0.0))

    # Squared SNR nonincreasing in the squared radius.
    worst = -math.inf
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
        for phi in (0.0, alpha / 2, 0.99 * alpha):
            r = np.sqrt(np.linspace(1e-4, 0.9999, 1000))
            vals = np.array([two_circle_snr_sq(ri * math.sin(phi), ri * math.cos(phi), alpha) for ri in r])
            worst = max(worst, float(np.diff(vals).max()))
    checks.append(OracleCheck("radial-monotonicity", worst, 1e-12, worst < 1e-12))

    # Closed form equals the measured population SNR of the circle pair.
    worst = 0.0
    for alpha in (math.pi / 6, math.pi / 5):
        ens = make_circle_pair(alpha)
        for _ in range(1000):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            try:
                oracle = two_circle_snr_sq(w[0], w[1], alpha)
            except DegeneratePoint:
                continue
            stats = gradient_stats(ens, w)
            if stats.snr is None:
                continue
            worst = max(worst, abs(stats.snr**2 - oracle))
    checks.append(OracleCheck("two-circle-snr-oracle", worst, 1e-10, worst < 1e-10))

    # Meridian limit consistency with the closed form at azimuth zero.
    worst = 0.0
    for r in np.linspace(0.05, 0.95, 19):
        a = central_meridian_snr(r, math.pi / 6)
        b = math.sqrt(two_circle_snr_sq(0.0, r, math.pi / 6))
        worst = max(worst, abs(a - b))
    checks.append(OracleCheck("meridian-limit-consistency", worst, 1e-12, worst < 1e-12))

    # Direction-wise SNR of quadratic ensembles is displacement-independent.
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 11))
        m = int(rng.integers(2, 9))
        ens = random_quadratic_ensemble(d, m, seed=int(rng.integers(1 << 31)))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        closed = hessian_ensemble_snr(ens.hessians, direction)
        if closed is None:
            continue
        for delta in (1e-1, 1e-3, 1e-6):
            stats = gradient_stats(ens, ens.optimum + delta * direction)
            worst = max(worst, abs(stats.snr - closed))
    checks.append(OracleCheck("hessian-snr-delta-independence", worst, 1e-10, worst < 1e-10))

    # Measured SNR depends on (x, y) only.
    worst = 0.0
    ens = make_toy_op()
    for _ in range(200):
        x, y = rng.uniform(-0.7, 0.7, size=2)
        z_sq = 1.0 - x * x - y * y
        if z_sq <= 1e-3:
            continue
        z = math.sqrt(z_sq)
        up = gradient_stats(ens, np.array([x, y, z]))
        down = gradient_stats(ens, np.array([x, y, -z]))
        if up.snr is None or down.snr is None:
            continue
        worst = max(worst, abs(up.snr - down.snr))
    checks.append(OracleCheck("z-independence", worst, 1e-10, worst < 1e-10))
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


def _cmd_baseline(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rows = _baseline_rows(cfg, cfg.ensemble())
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "baseline.csv", ["seed", "U", "S"],
               [[str(seed), fmt(u), fmt(s)] for seed, u, s in rows])
    us = np.array([r[1] for r in rows])
    ss = np.array([r[2] for r in rows])
    print(f"uniform-sphere baseline over {len(rows)} seeds (n={cfg.window}, k={cfg.k}):")
    print(f"  loss    {fmt(us.mean())} +- {fmt(us.std(ddof=1))}")
    print(f"  entropy {fmt(ss.mean())} +- {fmt(ss.std(ddof=1))}")
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

    p_base = sub.add_parser("baseline", help="uniform-sphere loss/entropy baseline")
    p_base.add_argument("--config", required=True)
    p_base.add_argument("--out", default=None)
    p_base.add_argument("--seed", type=int, default=None)
    p_base.set_defaults(func=_cmd_baseline)

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


if __name__ == "__main__":
    sys.exit(main())
