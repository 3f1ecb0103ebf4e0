"""Projected SGD on the unit sphere, many chains in lockstep, with log-spaced checkpoint logging.

A trajectory is a sequence of weight vectors w_t with ||w_t|| = 1, produced
by w <- normalize(w - lr * g) where g is the mean gradient of a uniformly
sampled batch of loss components; this projected step is the only update
rule.  Metrics (full loss, gradient norms, SNR, and a trailing-window
entropy estimate) are logged at iterations spaced uniformly in log scale,
plus iteration 1 and the final iteration.

`run_seeded` advances the chains of a grid, which share one SgdConfig and
each own a learning rate and a seed, as one (L, D) array.  Each row gets the
same BLAS kernels on the same shapes as a chain run alone, so a chain's log
does not depend on which chains run beside it.

The k-NN entropy windows take most of a run's time.  They run in chain
order on the calling thread: each numpy call of a window takes only tens
of microseconds, too short for threads to overlap under the interpreter
lock, so a thread pool costs more CPU than it saves in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import knn_entropy
from .errors import InvalidConfig, NonFinite, ZeroVector
from .gradients import gradient_stats

# Below this norm a vector is treated as numerically collapsed.
_NORM_FLOOR = 1e-300

# Steps of batch indices each chain draws at once.  For 12 chains with
# batch 8 of M = 30 components, a block's keys and indices take about 0.25 MB.
_BLOCK_STEPS = 64


def project_to_sphere(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||.  Idempotent on unit vectors.

    Raises ZeroVector when the norm underflows and InvalidConfig for
    vectors with fewer than 2 components.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise InvalidConfig(f"expected a vector of dimension >= 2, got shape {v.shape}")
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
        raise InvalidConfig(f"batch_size {batch_size} > ensemble size {ensemble_size}")
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
    """The settings every chain of a grid shares; each chain owns its learning rate and seed.

    The k-NN entropy is read over the trailing `window` iterates with `k`
    neighbors, at each checkpoint once that many have been taken.
    """

    batch_size: int = 1
    total_iters: int = 50_000
    checkpoints_per_decade: int = 20
    loss_stop_threshold: float = 0.0  # 0 disables early stopping
    k: int = 50
    window: int = 1000

    def __post_init__(self):
        # Each message starts with the field's name: ExperimentConfig turns
        # it into the `[section] key` of the INI file.
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if self.total_iters < 1:
            raise InvalidConfig("total_iters must be >= 1")
        if self.checkpoints_per_decade < 1:
            raise InvalidConfig("checkpoints_per_decade must be >= 1")
        if not 0 <= self.loss_stop_threshold < np.inf:
            raise InvalidConfig("loss_stop_threshold must be finite and >= 0")
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

    `learning_rate` is the chain's own.  `entropies[j]` is the k-NN entropy
    of the trailing `window` iterates at checkpoint `entropy_iters[j]`;
    checkpoints before the window has filled have no entropy.  `snapshots`
    holds the trailing iterates (at most `window`) at the final iteration,
    so its last row is iteration `final_iter`.  `snrs` holds NaN where the
    SNR is undefined (zero gradient variance); `entropies` holds -inf where a
    window collapsed to identical points.  Checkpoint iterations are
    strictly increasing and include the final executed iteration.
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
    learning_rate: float

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


def _trajectory_log(lr: float, points: list[tuple], entropies: list[tuple],
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
        learning_rate=lr,
    )


def run_seeded(ensemble, cfg: SgdConfig, lrs, seeds, inits=None) -> list[TrajectoryLog]:
    """Run projected SGD chains on a hyperplane ensemble in lockstep; one log per chain, in order.

    Chain i has learning rate `lrs[i]`, seed `seeds[i]` and (if given) start
    `inits[i]`; every other setting comes from `cfg`.  Sequences of unequal
    length, a non-finite or non-positive learning rate and a negative seed
    raise InvalidConfig.  Each chain's log is bit for bit what it is when the
    chain runs alone.  Without an init, a chain's uniform-sphere start is
    drawn from its seed and batch sampling continues on the same stream; a
    given init is projected, and batches come from a fresh generator seeded
    with the seed.  Each chain draws its batches `_BLOCK_STEPS` steps at a
    time.

    The active chains step as one (L, D) array, w <- (w - lr * g) / ||w - lr * g||
    row by row, with numpy's overflow and invalid-value warnings off: a
    diverging chain surfaces only as ZeroVector (a result of numerically zero
    norm) or NonFinite (a non-finite logged loss or gradient norm).  A
    chain whose full-ensemble loss falls below `loss_stop_threshold` (when
    nonzero) stops and leaves the active rows.  The gradient statistics of
    the rows logged at a checkpoint or a loss-stop step come from one
    `gradient_stats` call on their (L, D) stack.  The trailing `window` weights
    of the chains sit in one (L, window, D) ring buffer, the only entropy
    window: at every checkpoint with a full ring, a chain's window is put in
    chronological order and its k-NN entropy logged at that iteration (-inf
    for a window collapsed to one point), and the window at the final
    iteration is returned as `snapshots`.

    A checkpoint's windows (and those of a loss-stop step) run in chain
    order on the calling thread, one `knn_entropy` call per window, so the
    first window that raises does so before any later one runs.
    """
    lrs, seeds = list(lrs), list(seeds)
    inits = [None] * len(lrs) if inits is None else list(inits)
    if not len(lrs) == len(seeds) == len(inits):
        raise InvalidConfig(f"unequal counts: {len(lrs)} lrs, {len(seeds)} seeds, {len(inits)} inits")
    if not all(0 < lr < np.inf for lr in lrs):
        raise InvalidConfig("learning rates must be finite and positive")
    if any(seed < 0 for seed in seeds):
        raise InvalidConfig("seeds must be >= 0")
    if not lrs:
        return []
    m, dim = len(ensemble), ensemble.dim

    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = np.empty((len(lrs), dim))
    for i, (rng, init) in enumerate(zip(rngs, inits)):
        start = random_unit_vector(dim, rng) if init is None else np.asarray(init, dtype=float)
        if start.shape != (dim,):
            raise InvalidConfig(f"init has shape {start.shape}, ensemble dimension is {dim}")
        w[i] = project_to_sphere(start)

    schedule = checkpoint_schedule(cfg.total_iters, cfg.checkpoints_per_decade).tolist()
    next_cp = 0
    threshold = cfg.loss_stop_threshold
    rows = list(range(len(lrs)))  # the chain of each active row
    lr = np.array([[rate] for rate in lrs])
    ring = np.empty((len(lrs), cfg.window, dim))
    points: list[list[tuple]] = [[] for _ in lrs]
    entropies: list[list[tuple]] = [[] for _ in lrs]
    ends: list[tuple | None] = [None] * len(lrs)  # each chain's (final window, stopped early)

    batch_grad, full_loss = ensemble.batch_grad, ensemble.full_loss
    with np.errstate(over="ignore", invalid="ignore"):
        t = 0
        while rows and t < cfg.total_iters:
            steps = min(_BLOCK_STEPS, cfg.total_iters - t)
            batches = np.stack([sample_batch(m, cfg.batch_size, rngs[c], steps) for c in rows])
            for j in range(steps):
                t += 1
                v = w - lr * batch_grad(batches[:, j], w)
                nrm = np.sqrt(np.vecdot(v, v))
                if (nrm < _NORM_FLOOR).any():
                    raise ZeroVector(f"weights collapsed to zero at iteration {t}")
                w = v / nrm[:, None]
                ring[:, (t - 1) % cfg.window] = w

                at_checkpoint = t == schedule[next_cp]
                if at_checkpoint:
                    next_cp += 1
                elif threshold == 0:
                    continue
                loss = full_loss(w)
                stop = loss < threshold  # never true at threshold 0, as no loss is negative
                due = list(range(len(rows))) if at_checkpoint else np.flatnonzero(stop).tolist()
                if not due:
                    continue
                stats = gradient_stats(ensemble, w[due])
                if not np.isfinite([loss[due], stats.full_grad_norm, stats.mean_stoch_norm]).all():
                    raise NonFinite(f"non-finite loss or gradient at iteration {t}")
                for r, *row in zip(due, loss[due], stats.full_grad_norm, stats.mean_stoch_norm, stats.snr):
                    points[rows[r]].append((t, *row))
                if t >= cfg.window:
                    for r in due:
                        entropies[rows[r]].append((t, knn_entropy(_ring_window(ring[r], t), cfg.k)))
                if stop.any():
                    for r in np.flatnonzero(stop):
                        ends[rows[r]] = (_ring_window(ring[r], t), True)
                    keep = ~stop
                    w, lr, ring, batches = w[keep], lr[keep], ring[keep], batches[keep]
                    rows = [c for c, k in zip(rows, keep) if k]
                    if not rows:
                        break
    for r, c in enumerate(rows):
        ends[c] = (_ring_window(ring[r], t), False)
    return [_trajectory_log(lr_c, points[c], entropies[c], *ends[c]) for c, lr_c in enumerate(lrs)]
