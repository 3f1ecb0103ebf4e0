"""Projected SGD on the unit sphere with log-spaced checkpoint logging.

A trajectory is a sequence of weight vectors w_t with ||w_t|| = 1, produced
by w <- normalize(w - lr * g) where g is the mean gradient of a uniformly
sampled batch of loss components; this projected step is the only update
rule.  Metrics (full loss, gradient norms, SNR, and a trailing-window
entropy estimate) are logged at iterations spaced uniformly in log scale,
plus iteration 1 and the final iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


def project_to_sphere(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||.  Idempotent on unit vectors.

    Raises ZeroVector when the norm underflows and DimensionMismatch for
    vectors with fewer than 2 components.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise DimensionMismatch(f"expected a vector of dimension >= 2, got shape {v.shape}")
    norm = np.sqrt(v @ v)  # same expression as the simulation loop, bit for bit
    if norm < _NORM_FLOOR:
        raise ZeroVector("cannot project a (numerically) zero vector onto the sphere")
    return v / norm


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere: standard normal sample, projected."""
    return project_to_sphere(rng.standard_normal(dim))


def sample_batch(ensemble_size: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `batch_size` distinct indices uniformly, without replacement.

    Successive calls are independent (no epoch structure); the result is a
    deterministic function of the generator state.  Implementation: the
    batch is the argpartition of i.i.d. uniform keys, with single-index and
    full-ensemble fast paths.
    """
    if batch_size > ensemble_size:
        raise BatchTooLarge(f"batch_size {batch_size} > ensemble size {ensemble_size}")
    if batch_size < 1:
        raise InvalidConfig("batch_size must be >= 1")
    if batch_size == ensemble_size:
        return np.arange(ensemble_size)
    if batch_size == 1:
        return np.array([int(rng.integers(ensemble_size))])
    keys = rng.random(ensemble_size)
    return np.argpartition(keys, batch_size)[:batch_size]


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


def run_seeded(ensemble, cfg: SgdConfig, init: np.ndarray | None = None) -> TrajectoryLog:
    """Run projected SGD on a hyperplane ensemble; the whole run is a pure function of its inputs.

    Without `init`, a uniform-sphere start is drawn from `cfg.seed` and batch
    sampling continues on the same stream.  A given `init` is projected, and
    batches come from a fresh generator seeded with `cfg.seed`.  Every step is
    w <- (w - lr * g) / ||w - lr * g||; a step whose result has (numerically)
    zero norm raises ZeroVector.

    The trailing `cfg.window` weights are kept in a ring buffer; at every
    checkpoint with a full buffer the k-NN entropy of the buffer is logged,
    anchored to the checkpoint iteration.  This ring is the only entropy
    window; its contents at the final iteration are returned as `snapshots`.
    Stops early once the full-ensemble loss falls below
    `cfg.loss_stop_threshold` (when nonzero).
    """
    rng = np.random.default_rng(cfg.seed)
    w = random_unit_vector(ensemble.dim, rng) if init is None else np.asarray(init, dtype=float)
    if w.shape != (ensemble.dim,):
        raise DimensionMismatch(
            f"init has shape {w.shape}, ensemble dimension is {ensemble.dim}"
        )
    if cfg.batch_size > len(ensemble):
        raise BatchTooLarge(
            f"batch_size {cfg.batch_size} > ensemble size {len(ensemble)}"
        )
    w = project_to_sphere(w)

    schedule = checkpoint_schedule(cfg.total_iters, cfg.checkpoints_per_decade).tolist()
    n_schedule = len(schedule)
    next_cp = 0

    ring: deque[np.ndarray] = deque(maxlen=cfg.window)

    iters, losses, g_norms, s_norms, snrs = [], [], [], [], []
    ent_iters, ent_vals = [], []
    stopped = False

    check_loss = cfg.loss_stop_threshold > 0
    m = len(ensemble)
    lr = cfg.learning_rate

    def log_checkpoint(t: int) -> None:
        stats = gradient_stats(ensemble, w)
        loss = ensemble.full_loss(w)
        if not (np.isfinite(loss) and np.isfinite(stats.full_grad_norm)):
            raise NonFinite(f"non-finite loss or gradient at iteration {t}")
        iters.append(t)
        losses.append(loss)
        g_norms.append(stats.full_grad_norm)
        s_norms.append(stats.mean_stoch_norm)
        snrs.append(stats.snr_or_nan)
        if len(ring) == cfg.window:
            try:
                s = knn_entropy(np.asarray(ring), cfg.k)
            except NonPositiveEdgeLength:
                s = -np.inf  # collapsed (delta-like) window
            ent_iters.append(t)
            ent_vals.append(s)

    batch_grad = ensemble.batch_grad
    full_loss = ensemble.full_loss
    batch_size = cfg.batch_size
    ring_append = ring.append

    for t in range(1, cfg.total_iters + 1):
        idx = sample_batch(m, batch_size, rng)
        g = batch_grad(idx, w)
        v = w - lr * g
        nrm = np.sqrt(v @ v)
        if nrm < _NORM_FLOOR:
            raise ZeroVector(f"weights collapsed to zero at iteration {t}")
        w = v / nrm
        ring_append(w)  # no copy: w is a fresh array each step and is never written in place

        at_checkpoint = next_cp < n_schedule and t == schedule[next_cp]
        if at_checkpoint:
            next_cp += 1
        stop_now = check_loss and full_loss(w) < cfg.loss_stop_threshold
        if at_checkpoint or stop_now:
            log_checkpoint(t)
        if stop_now:
            stopped = True
            break

    return TrajectoryLog(
        iters=np.asarray(iters, dtype=np.int64),
        losses=np.asarray(losses, dtype=float),
        full_grad_norms=np.asarray(g_norms, dtype=float),
        stoch_grad_norms=np.asarray(s_norms, dtype=float),
        snrs=np.asarray(snrs, dtype=float),
        entropy_iters=np.asarray(ent_iters, dtype=np.int64),
        entropies=np.asarray(ent_vals, dtype=float),
        snapshots=np.asarray(ring),
        stopped_early=stopped,
        config=cfg,
    )
