#!/usr/bin/env python3
"""sgdtherm benchmark: a grid of SGD runs followed by `analyze`, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload up_grid --seed 1 --seconds 40 --trace 0

Each workload writes an INI config generated from `--seed` and drives it
through `cli.load_config` -> `cfg.ensemble()` -> `cli.run_grid` ->
`cli.analyze`, the path `sgdtherm run` / `sgdtherm analyze` take.  The load
is one closed-loop client with one grid in flight, at `--jobs 1`: the next
repetition starts when the previous one has finished.  Repetitions run until
`--seconds` is used up (at least three), and every timing is the median over
them.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced repetitions, prints the per-layer metrics of the traced ones
(see tracing.py), times one extra grid at `--jobs 2`, and writes the spans
to perfbench/.work/.  Every repetition is checked by check.py.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
ANALYZE_CALLS = 5  # analyze takes ~0.1 s, so each repetition times it several times
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s", "run_s": "s", "analyze_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter, so it pays the imports a user of `sgdtherm run` pays.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sgdtherm import cli
cfg = cli.load_config(sys.argv[2])
cfg.ensemble()
print(repr(time.perf_counter() - t0))
"""


def environment() -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "threads": None,
        "loadavg": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                env["threads"] = int(line.split()[1])
        env["loadavg"] = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        pass
    return env


def measure_setup(ini: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(ini)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Bench:
    """One workload at one seed: repetitions, their checks and their timings."""

    def __init__(self, workload, seed: int, work: Path):
        from sgdtherm import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.ini = work / "experiment.ini"
        self.ini.write_text(workload.config_text(seed, str(work / "exp")), encoding="utf-8")
        self.cfg = cli.load_config(self.ini)
        self.cfg.ensemble()
        self.lrs = list(self.cfg.lr_grid)
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.expected = reference.get(workload.name, {}).get(str(seed))
        self.has_reference = self.expected is not None
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.gate_ok = True
        self.controls_done = False

    def exp_dir(self, tag: str) -> Path:
        out = self.work / f"exp_{tag}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _fail(self, what: str, errs: list[str]) -> None:
        if len(self.messages) < 20:
            self.messages.append(f"{what}: {'; '.join(errs)}")

    def run_grid(self, out: Path, jobs: int = 1):
        """(run_s, cpu_s, path); a grid that raises counts every chain as failed."""
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            path = self.cli.run_grid(self.cfg, out, jobs=jobs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.attempted += len(self.lrs)
            self.failed += len(self.lrs)
            self._fail("run_grid", [repr(exc)])
            return None
        return time.perf_counter() - t0, time.process_time() - c0, path

    def analyze(self, path: Path):
        """(analyze_s, cpu_s, canonical verdicts or None)."""
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                verdicts = self.cli.analyze(path)
        except Exception as exc:
            self.attempted += 1
            self.failed += 1
            self._fail("analyze", [repr(exc)])
            return None
        return time.perf_counter() - t0, time.process_time() - c0, check.canonical_verdicts(verdicts)

    def check_grid(self, path: Path) -> tuple[list[dict], list, bool]:
        """Check every chain of a finished grid; returns (summary rows, series, all passed)."""
        rows = check.read_summary(path / "summary.csv") if (path / "summary.csv").exists() else []
        series = []
        for i, lr in enumerate(self.lrs):
            f = path / check.series_filename(i, lr)
            series.append(check.read_series(f) if f.exists() else None)
        errors = check.check_chains(self.workload, self.lrs, rows, series, self.expected)
        digests = [s.digest if s else None for s in series]
        if self.first_digests is not None:
            for i, (a, b) in enumerate(zip(digests, self.first_digests)):
                if a != b:
                    errors[i].append("series file differs from the first repetition")
        for i, errs in enumerate(errors):
            if errs:
                self._fail(f"chain lr={self.lrs[i]}", errs)
        self.attempted += len(self.lrs)
        self.failed += sum(1 for e in errors if e)
        passed = not any(errors)
        if passed and self.first_digests is None:
            self.first_digests = digests
        return rows, series, passed

    def check_analyze(self, rows, verdicts, chains_passed: bool) -> None:
        if self.expected is None and chains_passed and not check.verdict_invariant_errors(
            self.lrs, rows, verdicts
        ):
            # No stored reference: later repetitions must reproduce the first.
            self.expected = check.expected_record(rows, verdicts)
        errs = check.check_verdicts(self.lrs, rows, verdicts, self.expected)
        self.attempted += 1
        if errs:
            self.failed += 1
            self._fail("analyze", errs)

    def negative_control(self, rows, series) -> None:
        """Once per run: the gate must reject an output perturbed past the tolerance."""
        if self.controls_done or self.expected is None or not rows:
            return
        self.controls_done = True
        problems = check.negative_control(self.workload, self.lrs, rows, series, self.expected)
        if problems:
            self.gate_ok = False
            self.messages.extend(f"negative control: {p}" for p in problems)

    def repetition(self, tag: str, jobs: int = 1, analyze_calls: int = ANALYZE_CALLS):
        """One checked grid plus its analyze calls.

        Returns (run_s, cpu_run_s, [(analyze_s, analyze_cpu_s), ...]), or None
        when the grid raised.
        """
        grid = self.run_grid(self.exp_dir(tag), jobs)
        if grid is None:
            return None
        run_s, cpu_run, path = grid
        rows, series, passed = self.check_grid(path)
        analyses = []
        for _ in range(analyze_calls):
            res = self.analyze(path)
            if res is not None:
                self.check_analyze(rows, res[2], passed)
                analyses.append(res[:2])
        self.negative_control(rows, series)
        return run_s, cpu_run, analyses

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.gate_ok and self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def output_counts(path: Path, lrs: list[float], cap: int) -> dict:
    """Exact work counts read back from the series files of one grid."""
    steps = checkpoints = early = windows = collapsed = 0
    for i, lr in enumerate(lrs):
        s = check.read_series(path / check.series_filename(i, lr))
        steps += s.iters[-1]
        checkpoints += len(s.iters)
        early += s.iters[-1] < cap
        ents = [e for e in s.entropies if e is not None]
        windows += len(ents)
        collapsed += sum(1 for e in ents if e == float("-inf"))
    files = [f for f in path.iterdir() if f.is_file()]
    return {
        "steps": steps, "checkpoints": checkpoints, "early_stops": early,
        "windows": windows, "collapsed": collapsed,
        "files": len(files), "bytes": sum(f.stat().st_size for f in files),
    }


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else float("nan")


def _keep_going(n: int, elapsed: float, seconds: float, minimum: int) -> bool:
    """Start another repetition unless its expected end falls past `seconds`."""
    return n < minimum or elapsed + elapsed / max(n, 1) <= seconds


def untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(bench.ini)
    runs, cpus, analyses = [], [], []
    start = time.perf_counter()
    n = 0
    while _keep_going(n, time.perf_counter() - start, seconds, MIN_REPS):
        n += 1
        rep = bench.repetition("untraced")
        if rep is None:
            continue
        run_s, cpu_run, an = rep
        runs.append(run_s)
        analyses.extend(an)
        if an:
            cpus.append(cpu_run + _median(c for _, c in an))
    an_s = [a for a, _ in analyses]
    metrics = {
        "setup_s": _median(setup),
        "run_s": _median(runs),
        "analyze_s": _median(an_s),
        "cpu_s": _median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"setup_s": setup, "run_s": runs, "analyze_s": an_s, "cpu_s": cpus}


def traced_repetition(bench: Bench, targets):
    """One grid and one analyze call under the tracer: (tracer, root spans, counts)."""
    from tracing import Tracer

    tracer = Tracer(targets)
    out = bench.exp_dir("traced")
    with tracer:
        run_root = tracer.open("cli.run_grid")
        grid = bench.run_grid(out)
        tracer.close(run_root)
        an_root = tracer.open("cli.analyze")
        res = bench.analyze(out) if grid is not None else None
        tracer.close(an_root)
    if grid is None:
        return None
    rows, _, passed = bench.check_grid(out)
    if res is not None:
        bench.check_analyze(rows, res[2], passed)
    counts = output_counts(out, bench.lrs, bench.workload.total_iters)
    counts.update({name: stat[0] for name, stat in tracer.hot.items()})
    counts["gradients.calls"] = sum(1 for s in tracer.spans if s[0] == "gradients.gradient_stats")
    return tracer, run_root, an_root, counts


def traced(bench: Bench, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    from sgdtherm import analysis, cli, ensembles, sphere

    from tracing import patch_targets

    targets = patch_targets(cli, sphere, analysis, ensembles)
    plain, reps = [], []
    start = time.perf_counter()
    n = 0
    # Untraced and traced repetitions alternate, so both see the same load.
    while _keep_going(n, time.perf_counter() - start, seconds, 2):
        n += 1
        rep = bench.repetition("untraced", analyze_calls=1)
        if rep is not None:
            plain.append(rep[0])
        rep = traced_repetition(bench, targets)
        if rep is not None:
            reps.append(rep)
    if not reps or not plain:
        return {}, {}
    counts = reps[0][3]
    if any(r[3] != counts for r in reps[1:]):
        bench.gate_ok = False
        bench.messages.append("count metrics differ between traced repetitions")
    reps[0][0].write(trace_path)
    jobs2 = bench.repetition("jobs2", jobs=2, analyze_calls=0)

    layers = [layer_metrics(t, run_root, an_root) for t, run_root, an_root, _ in reps]
    metrics = {k: _median(m[k] for m in layers) for k in layers[0]}
    plain_run = _median(plain)
    jobs2_run = jobs2[0] if jobs2 else float("nan")
    windows, calls = counts["windows"], counts["gradients.calls"]
    metrics.update({
        "sphere.steps": counts["steps"],
        "sphere.checkpoints": counts["checkpoints"],
        "sphere.early_stops": counts["early_stops"],
        "sphere.us_per_step": plain_run / counts["steps"] * 1e6,
        "ensembles.batch_grad_calls": counts.get("ensembles.batch_grad", 0),
        "ensembles.full_loss_calls": counts.get("ensembles.full_loss", 0),
        "entropy.windows": windows,
        "entropy.collapsed": counts["collapsed"],
        "entropy.ms_per_window": metrics["entropy.busy_s"] / windows * 1e3 if windows else 0.0,
        "gradients.calls": calls,
        "gradients.us_per_call": metrics["gradients.busy_s"] / calls * 1e6 if calls else 0.0,
        "cli.files_written": counts["files"],
        "cli.bytes_written": counts["bytes"],
        "cli.jobs1_run_s": plain_run,
        "cli.jobs2_run_s": jobs2_run,
        "cli.jobs2_speedup": plain_run / jobs2_run,
        "trace.overhead_s": metrics.pop("traced_run_s") - plain_run,
    })
    samples = {"untraced_run_s": plain, "traced_run_s": [layer["traced_run_s"] for layer in layers],
               "jobs2_run_s": jobs2_run, "counts": counts}
    return metrics, samples


def layer_metrics(tracer, run_root: int, an_root: int) -> dict:
    """Per-layer times of one traced repetition (its counts come from the outputs)."""
    selfs = tracer.self_times()
    in_run = tracer.descendants(run_root)
    in_an = tracer.descendants(an_root)
    spans = tracer.spans
    run_s = spans[run_root][2] - spans[run_root][1]

    def busy(names, ids, own=False) -> float:
        return sum(selfs[i] if own else spans[i][2] - spans[i][1]
                   for i in ids if spans[i][0] in names)

    def hot_s(name: str) -> float:
        return tracer.hot.get(name, [0, 0.0])[1]

    shapes = [spans[i][6] for i in in_run
              if spans[i][0] == "entropy.knn_entropy" and spans[i][6] and "n" in spans[i][6]]
    n_win = max(len(shapes), 1)
    hot_in_run = spans[run_root][5] - spans[run_root][4]
    ent_busy = busy({"entropy.knn_entropy"}, in_run)
    return {
        "traced_run_s": run_s,
        "sphere.self_s": busy({"sphere.run_seeded"}, in_run, own=True),
        "sphere.sample_batch_s": hot_s("sphere.sample_batch"),
        "ensembles.batch_grad_s": hot_s("ensembles.batch_grad"),
        "ensembles.full_loss_s": hot_s("ensembles.full_loss"),
        "entropy.busy_s": ent_busy,
        "entropy.share": ent_busy / run_s,
        # Computed from array sizes, not measured: the N x N x D Gram product
        # and one float64 pass over the N x N distance matrix per window.
        "entropy.gram_flops": sum(s["n"] ** 2 * s["d"] for s in shapes) / n_win,
        "entropy.bytes_computed": sum(s["n"] ** 2 * 8 for s in shapes) / n_win,
        "gradients.busy_s": busy({"gradients.gradient_stats"}, in_run),
        "analysis.extract_s": busy({"analysis.extract_stationary"}, in_run),
        "analysis.baseline_s": busy({"analysis.uniform_sphere_baseline"}, in_an),
        "analysis.temperature_s": busy({"analysis.temperature_curve", "analysis.free_energy_curve",
                                        "analysis.finite_difference_temperature"}, in_an),
        "analysis.fit_s": busy({"analysis.fit_power_law", "analysis.kernel_smooth_triangular",
                                "analysis.kernel_smooth_gaussian_logtime"}, in_an),
        "cli.write_s": busy({"cli.write_series", "cli.write_summary", "cli.save_config"},
                            in_run + in_an),
        "cli.read_s": busy({"cli.read_series", "cli.read_summary", "cli.load_config"}, in_an),
        # Layer self times plus hot calls, over the grid: what the wrappers see.
        "trace.coverage": (sum(selfs[i] for i in in_run) + hot_in_run) / run_s,
    }


PER_LAYER_UNITS = {
    "sphere.steps": "count", "sphere.checkpoints": "count", "sphere.early_stops": "count",
    "sphere.self_s": "s", "sphere.us_per_step": "us", "sphere.sample_batch_s": "s",
    "ensembles.batch_grad_calls": "count", "ensembles.batch_grad_s": "s",
    "ensembles.full_loss_calls": "count", "ensembles.full_loss_s": "s",
    "entropy.windows": "count", "entropy.collapsed": "count", "entropy.busy_s": "s",
    "entropy.ms_per_window": "ms", "entropy.share": "fraction",
    "entropy.gram_flops": "flop/window", "entropy.bytes_computed": "B/window",
    "gradients.calls": "count", "gradients.busy_s": "s", "gradients.us_per_call": "us",
    "analysis.extract_s": "s", "analysis.baseline_s": "s", "analysis.temperature_s": "s",
    "analysis.fit_s": "s",
    "cli.write_s": "s", "cli.files_written": "count", "cli.bytes_written": "B",
    "cli.read_s": "s", "cli.jobs1_run_s": "s", "cli.jobs2_run_s": "s",
    "cli.jobs2_speedup": "ratio",
    "trace.overhead_s": "s", "trace.coverage": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgdtherm" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    work = WORK / tag
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, args.seed, work)
    if args.trace:
        metrics, samples = traced(bench, args.seconds, WORK / f"spans_{tag}.json")
        units = PER_LAYER_UNITS
    else:
        metrics, samples = untraced(bench, args.seconds)
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    result = bench.result({k: {"value": metrics[k], "unit": u}
                           for k, u in units.items() if math.isfinite(metrics.get(k, math.nan))})
    if set(result["metrics"]) != set(units):
        result["correct"] = False
        bench.messages.append("some metrics could not be measured")
    env.update({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "reference": bench.has_reference,
                "tolerance": {"rtol": check.RTOL, "atol": check.ATOL},
                "loop": "closed, 1 client, 1 grid in flight, --jobs 1"})
    (WORK / f"result_{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, "samples": samples, "messages": bench.messages},
        indent=1), encoding="utf-8")

    for msg in bench.messages:
        print(f"check: {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} fail_frac {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed}/{bench.attempted} operations)")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
