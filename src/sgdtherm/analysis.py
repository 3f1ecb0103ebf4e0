"""Stationary-state analysis: smoothing, temperature intervals, free energy, power laws.

The pipeline runs a grid of learning rates, reduces each trajectory to a
stationary (loss, entropy) pair, and asks for which temperatures T the free
energy  F(lr) = loss(lr) - T * entropy(lr)  is minimized (up to a slack
epsilon) at a given learning rate.  Each other learning rate contributes one
half-line constraint on T, so the answer is an exact interval computed in
closed form.  A finite-difference temperature over training time covers the
converging (non-stationary) runs, where the interval protocol does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import knn_entropy
from .errors import InvalidConfig
from .sphere import TrajectoryLog


@dataclass(frozen=True)
class StationaryEstimate:
    """Tail-window reduction of one trajectory at a fixed learning rate."""

    lr: float
    loss_mean: float
    entropy_mean: float
    loss_std: float
    entropy_std: float
    stabilized: bool


@dataclass(frozen=True)
class TemperatureInterval:
    """Temperatures at which the free energy is epsilon-minimized at this lr.

    `t_hi` may be +inf (no upper constraint); an empty interval means no
    temperature satisfies every constraint at this epsilon, i.e. the
    free-energy description fails at this learning rate.
    """

    lr: float
    t_lo: float
    t_hi: float
    epsilon: float
    bound_only: bool = False
    empty: bool = False

    @property
    def midpoint(self) -> float:
        if self.empty:
            return math.nan
        return 0.5 * (self.t_lo + self.t_hi)


@dataclass(frozen=True)
class TemperatureCurve:
    intervals: list[TemperatureInterval]
    monotone: bool


@dataclass(frozen=True)
class PowerLawFit:
    """y ~ coefficient * x**exponent, fitted by least squares in log-log space."""

    coefficient: float
    exponent: float
    r_squared: float


def kernel_smooth_triangular(log_xs, ys, h: float) -> np.ndarray:
    """Triangular-kernel smoothing on a log axis; endpoint values are preserved.

    Weight of x_j at x_i is max(h - |log_x_i - log_x_j|, 0); the first and
    last outputs are pinned to the raw inputs to avoid boundary artifacts.
    An h so large that the weighted sums overflow raises InvalidConfig.
    """
    log_xs = np.asarray(log_xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if log_xs.size == 0:
        raise InvalidConfig("no points to smooth")
    if log_xs.shape != ys.shape:
        raise InvalidConfig("log_xs and ys must have equal length")
    if log_xs.size > 1 and not np.all(np.diff(log_xs) > 0):
        raise InvalidConfig("log_xs must be strictly increasing")
    if not 0 < h < math.inf:
        raise InvalidConfig("h must be finite and positive")
    weights = np.maximum(h - np.abs(log_xs[:, None] - log_xs[None, :]), 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _normalized_smooth(weights, ys, "h", h)
    out[0] = ys[0]
    out[-1] = ys[-1]
    return out


def _normalized_smooth(weights, ys, name: str, bandwidth: float) -> np.ndarray:
    """`weights` @ `ys` over row sums, under the caller's np.errstate; InvalidConfig if not finite."""
    norm = weights.sum(axis=1)
    out = weights @ ys / norm
    if not (np.isfinite(norm).all() and np.isfinite(out).all()):
        raise InvalidConfig(f"smoothing bandwidth {name} = {bandwidth:g} gives non-finite smoothed values")
    return out


def kernel_smooth_gaussian_logtime(ts, ys, sigma: float) -> np.ndarray:
    """Gaussian-kernel smoothing in log-time: weight exp(-(log t_i - log t_j)^2 / 2 sigma^2).

    A sigma whose 2 sigma^2 underflows to 0 raises InvalidConfig.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size == 0:
        raise InvalidConfig("no points to smooth")
    if ts.shape != ys.shape:
        raise InvalidConfig("ts and ys must have equal length")
    if np.any(ts <= 0):
        raise InvalidConfig("ts must be positive")
    if ts.size > 1 and not np.all(np.diff(ts) > 0):
        raise InvalidConfig("ts must be strictly increasing")
    if not 0 < sigma < math.inf:
        raise InvalidConfig("sigma must be finite and positive")
    log_t = np.log(ts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = np.exp(-((log_t[:, None] - log_t[None, :]) ** 2) / (2.0 * sigma * sigma))
        return _normalized_smooth(weights, ys, "sigma", sigma)


def extract_stationary(log: TrajectoryLog, tail_fraction: float) -> StationaryEstimate:
    """Reduce a trajectory to tail means/dispersions of loss and entropy.

    The tail is the last `tail_fraction` of executed iterations.  The run is
    flagged stabilized when the two halves of the tail agree: relative loss
    difference below 5% and entropy difference within one window-level
    standard deviation (the dispersion of the tail's window estimates).  A
    tail holding a collapsed (-inf) window has entropy mean -inf, no entropy
    dispersion (NaN) and is not stabilized; its loss statistics are as usual.
    A tail with fewer than 2 checkpoints or 2 entropy windows has no estimate:
    every statistic is NaN and the run is not stabilized.
    """
    if not 0.0 < tail_fraction <= 0.5:
        raise InvalidConfig("tail_fraction must lie in (0, 0.5]")
    ent_iters, ent_vals = log.entropy_iters, log.entropies

    final = log.final_iter
    cutoff = (1.0 - tail_fraction) * final
    mid = (1.0 - 0.5 * tail_fraction) * final

    tail_mask = log.iters > cutoff
    ent_mask = ent_iters > cutoff
    if np.count_nonzero(tail_mask) < 2 or np.count_nonzero(ent_mask) < 2:
        nan = math.nan
        return StationaryEstimate(log.learning_rate, nan, nan, nan, nan, False)

    tail_losses = log.losses[tail_mask]
    tail_iters = log.iters[tail_mask]
    tail_ents = ent_vals[ent_mask]
    tail_ent_iters = ent_iters[ent_mask]

    loss_mean = float(tail_losses.mean())
    loss_std = float(tail_losses.std(ddof=1))
    collapsed = np.isneginf(tail_ents).any()
    ent_mean = -math.inf if collapsed else float(tail_ents.mean())
    ent_std = math.nan if collapsed else float(tail_ents.std(ddof=1))

    first, second = tail_iters <= mid, tail_iters > mid
    efirst, esecond = tail_ent_iters <= mid, tail_ent_iters > mid
    stabilized = False
    if not collapsed and first.any() and second.any() and efirst.any() and esecond.any():
        l1 = tail_losses[first].mean()
        l2 = tail_losses[second].mean()
        loss_ok = abs(l1 - l2) < 0.05 * max(abs(l2), 1e-300)
        e1 = tail_ents[efirst].mean()
        e2 = tail_ents[esecond].mean()
        ent_ok = abs(e1 - e2) <= ent_std
        stabilized = bool(loss_ok and ent_ok)

    return StationaryEstimate(
        lr=log.learning_rate,
        loss_mean=loss_mean,
        entropy_mean=ent_mean,
        loss_std=loss_std,
        entropy_std=ent_std,
        stabilized=stabilized,
    )


def _check_sorted_by_lr(estimates) -> None:
    lrs = [e.lr for e in estimates]
    if any(b <= a for a, b in zip(lrs, lrs[1:])):
        raise InvalidConfig("estimates must be sorted by strictly increasing lr")


def estimate_temperature_interval(
    estimates, target_index: int, epsilon: float
) -> TemperatureInterval:
    """Exact interval of T >= 0 with loss* - T*S* <= loss(lr) - T*S(lr) + epsilon for all lr.

    Each learning rate contributes a half-line bound:
    T >= (loss*-loss-eps)/(S*-S) when S* > S, the mirrored upper bound when
    S* < S, and a pure feasibility check when the entropies tie.  The result
    is the intersection, clipped to [0, +inf); infeasible constraint sets
    yield an interval flagged empty (a reportable value, not an error).
    """
    _check_sorted_by_lr(estimates)
    if epsilon < 0:
        raise InvalidConfig("epsilon must be >= 0")
    if not 0 <= target_index < len(estimates):
        raise InvalidConfig(f"target_index {target_index} out of range")
    tgt = estimates[target_index]
    t_lo, t_hi = 0.0, math.inf
    feasible = True
    for j, other in enumerate(estimates):
        if j == target_index:
            continue
        d_loss = tgt.loss_mean - other.loss_mean - epsilon
        d_ent = tgt.entropy_mean - other.entropy_mean
        if d_ent > 0:
            t_lo = max(t_lo, d_loss / d_ent)
        elif d_ent < 0:
            t_hi = min(t_hi, d_loss / d_ent)
        elif d_loss > 0:
            feasible = False
            break
    if not feasible or t_lo > t_hi:
        return TemperatureInterval(tgt.lr, math.nan, math.nan, epsilon, empty=True)
    return TemperatureInterval(tgt.lr, t_lo, t_hi, epsilon)


def temperature_curve(estimates, epsilon: float) -> TemperatureCurve:
    """Per-lr temperature intervals with a monotonicity verdict.

    The first and last learning rates only admit one-sided bounds and are
    flagged bound-only; the verdict covers the interior: true iff every
    interior interval is nonempty, midpoints are nondecreasing, and lower
    endpoints are nondecreasing.
    """
    if len(estimates) < 3:
        raise InvalidConfig(f"need >= 3 estimates, got {len(estimates)}")
    intervals = []
    for i in range(len(estimates)):
        iv = estimate_temperature_interval(estimates, i, epsilon)
        if i in (0, len(estimates) - 1):
            iv = TemperatureInterval(
                iv.lr, iv.t_lo, iv.t_hi, iv.epsilon, bound_only=True, empty=iv.empty
            )
        intervals.append(iv)

    interior = intervals[1:-1]
    monotone = all(not iv.empty for iv in interior)
    if monotone:
        mids = [iv.midpoint for iv in interior if math.isfinite(iv.midpoint)]
        los = [iv.t_lo for iv in interior]
        monotone = all(b >= a for a, b in zip(mids, mids[1:])) and all(
            b >= a for a, b in zip(los, los[1:])
        )
    return TemperatureCurve(intervals=intervals, monotone=monotone)


def finite_difference_temperature(u_series, s_series, dt: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered-difference temperature (u[i+dt]-u[i-dt])/(s[i+dt]-s[i-dt]).

    Operates on series aligned to the same (log-spaced) checkpoint index;
    returns (interior indices, values) with NaN where |delta s| < 1e-12.
    """
    u = np.asarray(u_series, dtype=float)
    s = np.asarray(s_series, dtype=float)
    if u.shape != s.shape:
        raise InvalidConfig("series must have equal length")
    if dt < 1:
        raise InvalidConfig("dt must be >= 1")
    n = u.size
    if n <= 2 * dt:
        raise InvalidConfig(f"need more than {2 * dt} points, got {n}")
    idx = np.arange(dt, n - dt)
    du = u[idx + dt] - u[idx - dt]
    ds = s[idx + dt] - s[idx - dt]
    undefined = np.abs(ds) < 1e-12
    values = np.where(undefined, np.nan, du / np.where(undefined, 1.0, ds))
    return idx, values


def free_energy_curve(estimates, temperature: float) -> tuple[np.ndarray, int]:
    """F(lr) = loss(lr) - T * entropy(lr) and its argmin (ties -> smaller lr)."""
    if len(estimates) == 0:
        raise InvalidConfig("no estimates")
    if temperature < 0:
        raise InvalidConfig("temperature must be >= 0")
    f = np.array([e.loss_mean - temperature * e.entropy_mean for e in estimates])
    return f, int(np.argmin(f))


def fit_power_law(xs, ys) -> PowerLawFit:
    """Ordinary least squares of log y on log x: y ~ coefficient * x**exponent."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise InvalidConfig("xs and ys must have equal length")
    if xs.size < 3:
        raise InvalidConfig(f"need >= 3 points, got {xs.size}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise InvalidConfig("power-law fit requires strictly positive coordinates")
    lx = np.log(xs)
    ly = np.log(ys)
    var_x = float(((lx - lx.mean()) ** 2).sum())
    if var_x == 0.0:
        raise InvalidConfig("all x values coincide")
    slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum()) / var_x
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return PowerLawFit(coefficient=math.exp(intercept), exponent=slope, r_squared=r_sq)


def uniform_sphere_samples(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim) i.i.d. uniform points on the unit sphere (normal sample, normalized)."""
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def uniform_sphere_baseline(
    ensemble, n_samples: int, k: int, seed: int = 0
) -> tuple[float, float]:
    """Mean full loss and k-NN entropy of a uniform cloud on the ensemble's sphere.

    This is the regime where the iterate distribution forgets the loss
    altogether; stationary tails are compared against it to detect
    saturation.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    samples = uniform_sphere_samples(ensemble.dim, n_samples, rng)
    return float(ensemble.full_loss(samples).mean()), knn_entropy(samples, k)


def select_stationary_range(
    estimates,
    baseline_entropy: float,
    baseline_sigma: float = 0.0,
    lr_range: tuple[float, float] | None = None,
) -> tuple[list[int], list[tuple[float, str]]]:
    """Indices retained for temperature estimation, plus (lr, reason) exclusions.

    Default heuristic: drop runs that never stabilized, and drop the top of
    the grid from the first learning rate whose tail entropy is within one
    combined standard deviation of the uniform-sphere baseline (saturation).
    An explicit lr_range overrides the heuristic entirely.
    """
    _check_sorted_by_lr(estimates)
    excluded: list[tuple[float, str]] = []
    if lr_range is not None:
        lo, hi = lr_range
        kept = []
        for i, e in enumerate(estimates):
            if lo <= e.lr <= hi:
                kept.append(i)
            else:
                excluded.append((e.lr, "outside configured lr range"))
        return kept, excluded

    saturated_from = len(estimates)
    for i, e in enumerate(estimates):
        sigma = math.sqrt(e.entropy_std**2 + baseline_sigma**2)
        if abs(e.entropy_mean - baseline_entropy) <= sigma:
            saturated_from = i
            break
    kept = []
    for i, e in enumerate(estimates):
        if i >= saturated_from:
            excluded.append((e.lr, "entropy saturated at the uniform-sphere baseline"))
        elif not e.stabilized:
            excluded.append((e.lr, "not stabilized"))
        else:
            kept.append(i)
    return kept, excluded
