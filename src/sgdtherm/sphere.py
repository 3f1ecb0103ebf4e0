"""Projected SGD on the unit sphere, many chains in lockstep, with log-spaced checkpoint logging.

A trajectory is a sequence of weight vectors w_t with ||w_t|| = 1, produced
by w <- normalize(w - lr * g) where g is the mean gradient of a uniformly
sampled batch of loss components; this projected step is the only update
rule.  Metrics (full loss, gradient norms, SNR, and a trailing-window
entropy estimate) are logged at iterations spaced uniformly in log scale,
plus iteration 1 and the final iteration.

`run_seeded` advances a set of chains that share every setting but the
learning rate and the seed as one (L, D) array.  Each row gets the same
BLAS kernels on the same shapes as a chain run alone, so a chain's log does
not depend on which chains run beside it.

The k-NN entropy windows of the chains are independent and take most of a
run's time, so a checkpoint's windows run on a pool of one thread per CPU
the process may run on, at most one per chain.  Every window runs the same
code on the same data, whichever thread takes it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .entropy import knn_entropy
from .errors import (
    BatchTooLarge,
    DimensionMismatch,
    InvalidConfig,
    NonFinite,
    NonPositiveEdgeLength,
    ZeroVector,
)
from .gradients import gradient_stats

# Below this norm a vector is treated as numerically collapsed.
_NORM_FLOOR = 1e-300

# Steps of batch indices each chain draws at once.  For 12 chains with
# batch 8 of M = 30 components, a block's keys and indices take about 0.25 MB.
_BLOCK_STEPS = 64


def project_to_sphere(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||.  Idempotent on unit vectors.

    Raises ZeroVector when the norm underflows and DimensionMismatch for
    vectors with fewer than 2 components.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise DimensionMismatch(f"expected a vector of dimension >= 2, got shape {v.shape}")
    norm = np.sqrt(v @ v)  # the same dot kernel as the simulation step, bit for bit
    if norm < _NORM_FLOOR:
        raise ZeroVector("cannot project a (numerically) zero vector onto the sphere")
    return v / norm


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere: standard normal sample, projected."""
    return project_to_sphere(rng.standard_normal(dim))


def sample_batch(ensemble_size: int, batch_size: int, rng: np.random.Generator,
                 steps: int) -> np.ndarray:
    """(steps, batch_size) indices: row j is step j's batch of distinct, uniform indices.

    Successive rows are independent (no epoch structure); the block is a
    deterministic function of the generator state, and a block of n steps
    consumes the stream exactly as n blocks of one step do.  A single index
    is one `integers` draw per step; a larger batch is the argpartition of
    i.i.d. uniform keys, one row of keys per step; the full ensemble draws
    nothing.
    """
    if batch_size > ensemble_size:
        raise BatchTooLarge(f"batch_size {batch_size} > ensemble size {ensemble_size}")
    if batch_size < 1:
        raise InvalidConfig("batch_size must be >= 1")
    if batch_size == ensemble_size:
        return np.broadcast_to(np.arange(ensemble_size), (steps, ensemble_size))
    if batch_size == 1:
        return rng.integers(ensemble_size, size=(steps, 1))
    keys = rng.random((steps, ensemble_size))
    return np.argpartition(keys, batch_size, axis=1)[:, :batch_size]


@dataclass(frozen=True)
class SgdConfig:
    """Everything that defines one fixed-learning-rate chain.

    The k-NN entropy is read over the trailing `window` iterates with `k`
    neighbors, at each checkpoint once that many have been taken.
    """

    learning_rate: float
    batch_size: int = 1
    total_iters: int = 50_000
    seed: int = 0
    checkpoints_per_decade: int = 20
    loss_stop_threshold: float = 0.0  # 0 disables early stopping
    k: int = 50
    window: int = 1000

    def __post_init__(self):
        # Each message starts with the field's name: ExperimentConfig turns
        # it into the `[section] key` of the INI file.
        if not 0 < self.learning_rate < np.inf:
            raise InvalidConfig("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if self.total_iters < 1:
            raise InvalidConfig("total_iters must be >= 1")
        if self.checkpoints_per_decade < 1:
            raise InvalidConfig("checkpoints_per_decade must be >= 1")
        if not 0 <= self.loss_stop_threshold < np.inf:
            raise InvalidConfig("loss_stop_threshold must be finite and >= 0")
        if self.seed < 0:
            raise InvalidConfig("seed must be unsigned")
        if self.k < 1:
            raise InvalidConfig("k must be >= 1")
        if self.window <= self.k:
            raise InvalidConfig("window must exceed k")


def checkpoint_schedule(total_iters: int, per_decade: int) -> np.ndarray:
    """Iterations spaced uniformly in log10, always containing 1 and total_iters."""
    if total_iters < 1:
        raise InvalidConfig("total_iters must be >= 1")
    n_exps = int(np.ceil(per_decade * np.log10(max(total_iters, 1)))) + 1
    raw = np.round(10.0 ** (np.arange(n_exps + 1) / per_decade)).astype(np.int64)
    iters = np.unique(raw)
    iters = iters[(iters >= 1) & (iters <= total_iters)]
    if iters.size == 0 or iters[-1] != total_iters:
        iters = np.append(iters, np.int64(total_iters))
    return iters


@dataclass(eq=False)
class TrajectoryLog:
    """Per-checkpoint metrics plus the last entropy window of the run.

    `config` is the chain's SgdConfig, its window and k included.
    `entropies[j]` is the k-NN entropy of the trailing `config.window`
    iterates at checkpoint `entropy_iters[j]`; checkpoints before the window
    has filled have no entropy.  `snapshots` holds the trailing iterates (at
    most `config.window`) at the final iteration, so its last row is
    iteration `final_iter`.  `snrs` holds NaN where the SNR is undefined (zero
    gradient variance); `entropies` holds -inf where a window collapsed to
    identical points.  Checkpoint iterations are strictly increasing and
    include the final executed iteration.
    """

    iters: np.ndarray
    losses: np.ndarray
    full_grad_norms: np.ndarray
    stoch_grad_norms: np.ndarray
    snrs: np.ndarray
    entropy_iters: np.ndarray
    entropies: np.ndarray
    snapshots: np.ndarray
    stopped_early: bool
    config: SgdConfig

    @property
    def final_iter(self) -> int:
        return int(self.iters[-1])

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def _ring_window(ring_row: np.ndarray, t: int) -> np.ndarray:
    """A copy of the iterates a ring row holds after step t, oldest first.

    Step t sits in slot (t - 1) % window, so the oldest held step is in slot
    t % window once the ring has filled.
    """
    return np.roll(ring_row[:t], -t, axis=0)


def _window_entropy(ring_row: np.ndarray, t: int, k: int) -> float:
    """k-NN entropy of a ring row's window after step t; -inf for a collapsed window."""
    try:
        return knn_entropy(_ring_window(ring_row, t), k)
    except NonPositiveEdgeLength:
        return -np.inf  # collapsed (delta-like) window


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trajectory_log(cfg: SgdConfig, points: list[tuple], entropies: list[tuple],
                    snapshots: np.ndarray, stopped: bool) -> TrajectoryLog:
    """One chain's log from its checkpoint rows (t, loss, |g|, mean |g_i|, snr) and (t, entropy) pairs."""
    iters, losses, g_norms, s_norms, snrs = zip(*points)
    ent_iters, ent_vals = zip(*entropies) if entropies else ((), ())
    return TrajectoryLog(
        iters=np.asarray(iters, dtype=np.int64),
        losses=np.asarray(losses, dtype=float),
        full_grad_norms=np.asarray(g_norms, dtype=float),
        stoch_grad_norms=np.asarray(s_norms, dtype=float),
        snrs=np.asarray(snrs, dtype=float),
        entropy_iters=np.asarray(ent_iters, dtype=np.int64),
        entropies=np.asarray(ent_vals, dtype=float),
        snapshots=snapshots,
        stopped_early=stopped,
        config=cfg,
    )


def run_seeded(ensemble, cfgs, inits=None) -> list[TrajectoryLog]:
    """Run projected SGD chains on a hyperplane ensemble in lockstep; one log per config, in order.

    The chains may differ only in `learning_rate` and `seed` (anything else
    raises InvalidConfig), and each one's log is bit for bit what it is when
    the chain runs alone.  Without an init, a chain's uniform-sphere start is
    drawn from its seed and batch sampling continues on the same stream; a
    given init is projected, and batches come from a fresh generator seeded
    with the seed.  Each chain draws its batches `_BLOCK_STEPS` steps at a
    time.

    The active chains step as one (L, D) array, w <- (w - lr * g) / ||w - lr * g||
    row by row, with numpy's overflow and invalid-value warnings off: a
    diverging chain surfaces only as ZeroVector (a result of numerically zero
    norm) or NonFinite (a non-finite logged loss or gradient).  A
    chain whose full-ensemble loss falls below `loss_stop_threshold` (when
    nonzero) stops and leaves the active rows.  The trailing `window` weights
    of the chains sit in one (L, window, D) ring buffer, the only entropy
    window: at every checkpoint with a full ring, a chain's window is put in
    chronological order and its k-NN entropy logged at that iteration, and
    the window at the final iteration is returned as `snapshots`.

    A checkpoint's windows (and those of a loss-stop step) run on a thread
    pool of min(cpus, chains) threads, which start on the first window and
    are joined before this returns or raises.  The calling thread waits once
    for all of a checkpoint's windows, then reads them in order, so a window
    that raises does so only after the others have finished.  The logs do not
    depend on the number of threads.
    """
    cfgs = list(cfgs)
    inits = [None] * len(cfgs) if inits is None else list(inits)
    if len(inits) != len(cfgs):
        raise DimensionMismatch(f"{len(inits)} inits for {len(cfgs)} chains")
    if len({replace(c, learning_rate=1.0, seed=0) for c in cfgs}) > 1:
        raise InvalidConfig("chains run together may differ only in learning_rate and seed")
    if not cfgs:
        return []
    cfg = cfgs[0]
    m, dim = len(ensemble), ensemble.dim

    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    w = np.empty((len(cfgs), dim))
    for i, (rng, init) in enumerate(zip(rngs, inits)):
        start = random_unit_vector(dim, rng) if init is None else np.asarray(init, dtype=float)
        if start.shape != (dim,):
            raise DimensionMismatch(f"init has shape {start.shape}, ensemble dimension is {dim}")
        w[i] = project_to_sphere(start)

    schedule = checkpoint_schedule(cfg.total_iters, cfg.checkpoints_per_decade).tolist()
    next_cp = 0
    threshold = cfg.loss_stop_threshold
    rows = list(range(len(cfgs)))  # the chain of each active row
    lr = np.array([[c.learning_rate] for c in cfgs])
    ring = np.empty((len(cfgs), cfg.window, dim))
    points: list[list[tuple]] = [[] for _ in cfgs]
    entropies: list[list[tuple]] = [[] for _ in cfgs]
    logs: list[TrajectoryLog | None] = [None] * len(cfgs)

    batch_grad, full_loss = ensemble.batch_grad, ensemble.full_loss
    with ThreadPoolExecutor(min(_cpus(), len(cfgs))) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        t = 0
        while rows and t < cfg.total_iters:
            steps = min(_BLOCK_STEPS, cfg.total_iters - t)
            batches = np.stack([sample_batch(m, cfg.batch_size, rngs[c], steps) for c in rows])
            for j in range(steps):
                t += 1
                v = w - lr * batch_grad(batches[:, j], w)
                nrm = np.sqrt(np.vecdot(v, v))
                if np.any(nrm < _NORM_FLOOR):
                    raise ZeroVector(f"weights collapsed to zero at iteration {t}")
                w = v / nrm[:, None]
                ring[:, (t - 1) % cfg.window] = w

                at_checkpoint = t == schedule[next_cp]
                if at_checkpoint:
                    next_cp += 1
                loss = full_loss(w) if threshold > 0 else None
                stop = None if loss is None else loss < threshold
                stopping = stop is not None and stop.any()
                if not (at_checkpoint or stopping):
                    continue
                if loss is None:
                    loss = full_loss(w)
                due = list(range(len(rows))) if at_checkpoint else np.flatnonzero(stop).tolist()
                for r in due:
                    stats = gradient_stats(ensemble, w[r])
                    if not (np.isfinite(loss[r]) and np.isfinite(stats.full_grad_norm)):
                        raise NonFinite(f"non-finite loss or gradient at iteration {t}")
                    points[rows[r]].append(
                        (t, loss[r], stats.full_grad_norm, stats.mean_stoch_norm, stats.snr_or_nan))
                if t >= cfg.window:
                    windows = [pool.submit(_window_entropy, ring[r], t, cfg.k) for r in due]
                    wait(windows)  # one wake-up per checkpoint, not one per window
                    for r, window in zip(due, windows):
                        entropies[rows[r]].append((t, window.result()))
                if stopping:
                    for r in np.flatnonzero(stop):
                        c = rows[r]
                        logs[c] = _trajectory_log(cfgs[c], points[c], entropies[c],
                                                  _ring_window(ring[r], t), stopped=True)
                    keep = ~stop
                    w, lr, ring, batches = w[keep], lr[keep], ring[keep], batches[keep]
                    rows = [c for c, k in zip(rows, keep) if k]
                    if not rows:
                        break
    for r, c in enumerate(rows):
        logs[c] = _trajectory_log(cfgs[c], points[c], entropies[c], _ring_window(ring[r], t),
                                  stopped=False)
    return logs
