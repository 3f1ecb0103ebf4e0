#!/usr/bin/env python3
"""Store the reference outputs that check.py compares each run against.

    python3 perfbench/make_reference.py 0 1 2 ...

runs one grid and one `analyze` per workload for each seed given and writes
their summary (U, S, stabilized) and verdicts into perfbench/reference.json,
keeping the entries of seeds not given.  A seed is stored only if its
outputs pass every invariant of check.py.  Rerun it only when a change is
meant to alter the numeric results, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv]
    if not seeds or min(seeds) < 0:
        print("usage: make_reference.py SEED [SEED ...]  (seeds >= 0)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            work = run.WORK / f"reference_{workload.name}_{seed}"
            work.mkdir(parents=True, exist_ok=True)
            bench = run.Bench(workload, seed, work)
            bench.expected = None  # judge by the invariants alone
            bench.repetition("ref", analyze_calls=1)
            shutil.rmtree(work, ignore_errors=True)
            if bench.failed or bench.expected is None or not bench.gate_ok:
                print(f"{workload.name} seed {seed}: not stored: {bench.messages}", file=sys.stderr)
                return 1
            reference.setdefault(workload.name, {})[str(seed)] = bench.expected
            print(f"{workload.name} seed {seed}: stored", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
