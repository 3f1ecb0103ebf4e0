"""Correctness gate for one experiment directory written by `run_grid` + `analyze`.

An operation is one learning-rate chain or one `analyze` call.  A chain
fails when its series file or summary row breaks an invariant, or when its
(U, S, stabilized) differs from the expected values beyond the tolerance.
An `analyze` call fails when its verdicts break an invariant or differ from
the expected verdicts.

The expected values are the stored reference for the seed when
`reference.json` has one, and otherwise the first repetition of the same
run (which must itself pass the invariants).

Invariants hold for every seed.  The strongest ones recompute U and S from
the series file independently of the package: U is the mean checkpoint loss
over the last half of the executed iterations, S the mean of the entropy
windows logged there, and a chain has no estimate exactly when either has
fewer than two points.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Tolerance of the reference comparison: relative 1e-6 (absolute 1e-6 for
# entropies and temperatures, which are O(1) and can be 0).  The recomputed
# invariants hold to 1e-9 relative, the rounding of 17-digit CSV values.
RTOL = 1e-6
ATOL = 1e-6
RECOMPUTE_RTOL = 1e-9
TAIL_FRACTION = 0.5  # [analysis] tail_fraction of every workload config


def series_filename(index: int, lr: float) -> str:
    return f"series_{index:02d}_lr_{lr:.6g}.csv"


def _float(raw: str) -> float:
    return math.nan if raw == "" else float(raw)


@dataclass
class Series:
    iters: list[int]
    losses: list[float]
    entropies: list[float | None]  # None where the cell is blank
    digest: str


def read_series(path: Path) -> Series:
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    return Series(
        iters=[int(r["iter"]) for r in rows],
        losses=[float(r["loss"]) for r in rows],
        entropies=[None if r["entropy"] == "" else float(r["entropy"]) for r in rows],
        digest=hashlib.sha256(data).hexdigest(),
    )


def read_summary(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {"lr": float(r["lr"]), "U": _float(r["U"]), "U_std": _float(r["U_std"]),
             "S": _float(r["S"]), "S_std": _float(r["S_std"]),
             "stabilized": r["stabilized"] == "true"}
            for r in csv.DictReader(fh)
        ]


def canonical_verdicts(verdicts: dict) -> dict:
    """JSON-ready form of the dict `analyze` returns."""
    curve = verdicts.get("temperature_curve")
    fe = verdicts.get("free_energy_consistent")
    return {
        "monotone": None if curve is None else bool(curve.monotone),
        "intervals": None if curve is None else [
            [iv.lr, iv.t_lo, iv.t_hi, iv.bound_only, iv.empty] for iv in curve.intervals
        ],
        "free_energy_consistent": None if fe is None else list(fe),
        "exclusions": sorted([float(lr), reason] for lr, reason in verdicts["exclusions"]),
        "fd_lrs": sorted({float(r[0]) for r in verdicts["fd_rows"]}),
        "phase_laws": [[float(lr), law.exponent] for lr, law in verdicts["phase_laws"]],
    }


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def chain_invariant_errors(workload, lr: float, row: dict, series: Series) -> list[str]:
    """Seed-independent checks on one chain's series file and summary row."""
    errs = []
    cap = workload.total_iters
    its, losses = series.iters, series.losses
    if abs(row["lr"] - lr) > 1e-12 * lr:
        errs.append(f"summary lr {row['lr']} != grid lr {lr}")
    if not its or its[0] != 1 or any(b <= a for a, b in zip(its, its[1:])):
        errs.append("checkpoint iterations are not 1, then strictly increasing")
        return errs
    final = its[-1]
    if final > cap:
        errs.append(f"final iteration {final} exceeds the cap {cap}")
    if workload.loss_stop_threshold == 0.0 and final != cap:
        errs.append(f"stopped at {final} without an early-stop rule")
    if final < cap and not losses[-1] < workload.loss_stop_threshold:
        errs.append(f"stopped at {final} with loss {losses[-1]} above the threshold")
    if not all(0.0 <= x <= 0.5 for x in losses):
        errs.append("a checkpoint loss lies outside [0, 1/2]")
    for it, ent in zip(its, series.entropies):
        if (ent is not None) != (it >= 1000):
            errs.append(f"entropy cell at iteration {it} does not match a full 1000-point window")
            break
        if ent is not None and (math.isnan(ent) or ent == math.inf):
            errs.append(f"entropy at iteration {it} is {ent}")
            break

    cutoff = (1.0 - TAIL_FRACTION) * final
    tail_losses = [x for it, x in zip(its, losses) if it > cutoff]
    tail_ents = [e for it, e in zip(its, series.entropies) if it > cutoff and e is not None]
    has_estimate = len(tail_losses) >= 2 and len(tail_ents) >= 2
    if has_estimate != math.isfinite(row["U"]):
        errs.append(f"estimate present={math.isfinite(row['U'])}, expected {has_estimate}")
    elif has_estimate:
        u = _mean(tail_losses)
        s = -math.inf if -math.inf in tail_ents else _mean(tail_ents)
        if not _close(row["U"], u, RECOMPUTE_RTOL, 1e-300):
            errs.append(f"U {row['U']!r} != tail mean {u!r}")
        if not _close(row["S"], s, RECOMPUTE_RTOL, RECOMPUTE_RTOL):
            errs.append(f"S {row['S']!r} != tail mean {s!r}")
        if not (row["U_std"] >= 0.0 and row["S_std"] >= 0.0 or math.isinf(s)):
            errs.append("negative dispersion")
    elif row["stabilized"]:
        errs.append("stabilized without an estimate")
    if workload.kind != "toy_op" and not (math.isfinite(row["U"]) and row["U"] > 0.0):
        errs.append(f"non-interpolating ensemble without a positive U ({row['U']})")
    return errs


def verdict_invariant_errors(workload_lrs: list[float], rows: list[dict], v: dict) -> list[str]:
    """Seed-independent checks on the verdicts of one `analyze` call."""
    errs = []
    excluded = [lr for lr, _ in v["exclusions"]]
    if len(set(excluded)) != len(excluded) or not set(excluded) <= set(workload_lrs):
        errs.append("exclusions are not a set of grid learning rates")
    kept = sorted(set(workload_lrs) - set(excluded))
    unstable = {r["lr"] for r in rows if not r["stabilized"]}
    if v["intervals"] is None:
        if len(kept) >= 3:
            errs.append(f"no temperature curve with {len(kept)} retained learning rates")
    else:
        if [iv[0] for iv in v["intervals"]] != kept:
            errs.append("temperature intervals do not cover exactly the retained lrs")
        for i, (lr, lo, hi, bound_only, empty) in enumerate(v["intervals"]):
            if bound_only != (i in (0, len(v["intervals"]) - 1)):
                errs.append(f"bound_only flag wrong at lr={lr}")
            if not empty and not (0.0 <= lo <= hi):
                errs.append(f"interval at lr={lr} is not 0 <= t_lo <= t_hi")
        fe = v["free_energy_consistent"]
        if fe is None or not 0 <= fe[0] <= fe[1]:
            errs.append(f"free-energy consistency count {fe} is not c/n with c <= n")
    if not set(v["fd_lrs"]) <= unstable:
        errs.append("FD temperature written for a stabilized lr")
    if not {lr for lr, _ in v["phase_laws"]} <= unstable:
        errs.append("phase law fitted for a stabilized lr")
    return errs


def row_differences(row: dict, ref: dict) -> list[str]:
    errs = []
    if not _close(row["U"], ref["U"], RTOL, 1e-300):
        errs.append(f"U {row['U']!r} vs expected {ref['U']!r}")
    if not _close(row["S"], ref["S"], RTOL, ATOL):
        errs.append(f"S {row['S']!r} vs expected {ref['S']!r}")
    if row["stabilized"] != ref["stabilized"]:
        errs.append(f"stabilized {row['stabilized']} vs expected {ref['stabilized']}")
    return errs


def verdict_differences(v: dict, ref: dict) -> list[str]:
    errs = []
    for key in ("monotone", "free_energy_consistent", "exclusions", "fd_lrs"):
        if v[key] != ref[key]:
            errs.append(f"{key} {v[key]} vs expected {ref[key]}")
    for key in ("intervals", "phase_laws"):
        a, b = v[key], ref[key]
        if (a is None) != (b is None) or (a is not None and len(a) != len(b)):
            errs.append(f"{key} differ in shape")
            continue
        for x, y in zip(a or [], b or []):
            # Flags compare as 0.0/1.0, so a flipped flag is always rejected.
            if not all(_close(float(p), float(q), RTOL, ATOL) for p, q in zip(x, y)):
                errs.append(f"{key} entry {x} vs expected {y}")
    return errs


def expected_record(rows: list[dict], verdicts: dict) -> dict:
    """What the reference stores for one seed: summary (U, S, stabilized) and verdicts."""
    return {
        "summary": [{k: r[k] for k in ("lr", "U", "S", "stabilized")} for r in rows],
        "verdicts": verdicts,
    }


def check_chains(workload, lrs, rows, series_list, expected) -> list[list[str]]:
    """Per-chain error lists (empty list: the chain passed)."""
    out = []
    for i, lr in enumerate(lrs):
        if i >= len(rows) or series_list[i] is None:
            out.append(["missing summary row or series file"])
            continue
        errs = chain_invariant_errors(workload, lr, rows[i], series_list[i])
        if expected is not None:
            errs += row_differences(rows[i], expected["summary"][i])
        out.append(errs)
    return out


def check_verdicts(lrs, rows, verdicts, expected) -> list[str]:
    errs = verdict_invariant_errors(lrs, rows, verdicts)
    if expected is not None:
        errs += verdict_differences(verdicts, expected["verdicts"])
    return errs


def negative_control(workload, lrs, rows, series_list, expected) -> list[str]:
    """Perturb one U past the tolerance; both gates must reject exactly that chain.

    Returns a list of problems with the gate itself (empty: the gate works).
    """
    target = next(i for i, r in enumerate(rows) if math.isfinite(r["U"]) and r["U"] > 0.0)
    perturbed = [dict(r) for r in rows]
    perturbed[target]["U"] *= 1.0 + 100.0 * RTOL
    problems = []
    inv = [chain_invariant_errors(workload, lr, perturbed[i], series_list[i])
           for i, lr in enumerate(lrs)]
    if [i for i, e in enumerate(inv) if e] != [target]:
        problems.append("invariant gate did not reject exactly the perturbed chain")
    diff = [row_differences(perturbed[i], expected["summary"][i]) for i in range(len(lrs))]
    if [i for i, e in enumerate(diff) if e] != [target]:
        problems.append("reference gate did not reject exactly the perturbed chain")
    return problems
