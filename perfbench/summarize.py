#!/usr/bin/env python3
"""Summarize result files written by run.py: medians, quartiles and spreads.

    python3 perfbench/summarize.py [--write-baseline] [RESULT.json ...]

With no file arguments it reads every perfbench/.work/result_*.json.  For each
workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median, next to a third of the
metric's bound from BENCHMARK.json.  It also reports any count metric that
did not repeat exactly between runs of the same workload and seed, and any
run whose correctness gate failed.  `--write-baseline` also stores the
medians in perfbench/baseline.json, the baseline later changes compare with.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = ("sphere.steps", "sphere.checkpoints", "sphere.early_stops", "entropy.windows",
          "entropy.collapsed", "gradients.calls", "ensembles.batch_grad_calls",
          "ensembles.full_loss_calls", "cli.files_written", "cli.bytes_written")


def main(argv: list[str]) -> int:
    write_baseline = "--write-baseline" in argv
    argv = [a for a in argv if a != "--write-baseline"]
    files = [Path(a) for a in argv] or sorted((HERE / ".work").glob("result_*.json"))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(set)
    envs = {}
    bad = 0
    for f in files:
        rec = json.loads(f.read_text())
        env, res = rec["env"], rec["result"]
        if not res["correct"] or res["failed"]:
            bad += 1
            print(f"{f.name}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  f"{rec['messages'][:3]}")
        key = (env["workload"], env["trace"])
        envs.setdefault(key, env)
        for name, m in res["metrics"].items():
            values[key][name].append(m["value"])
            if name in COUNTS:
                counts[(env["workload"], env["seed"], name)].add(m["value"])
    for (workload, trace), metrics in sorted(values.items()):
        print(f"== {workload} trace={trace}")
        for name, vals in metrics.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            limit = f"  (bound/3 {bounds[name] / 3:.3f})" if name in bounds and not trace else ""
            print(f"  {name:28s} n={len(vals):2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f}{limit}")
    for (workload, seed, name), seen in sorted(counts.items()):
        if len(seen) > 1:
            bad += 1
            print(f"count {name} of {workload} seed {seed} did not repeat: {sorted(seen)}")
    if write_baseline:
        baseline = defaultdict(dict)
        for (workload, trace), metrics in sorted(values.items()):
            env = envs[(workload, trace)]
            baseline[workload]["per_layer" if trace else "end_to_end"] = {
                "runs": len(next(iter(metrics.values()))),
                "env": {k: env[k] for k in ("nproc", "python", "numpy", "blas", "blas_env")},
                "median": {name: statistics.median(v) for name, v in metrics.items()},
            }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                            encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
