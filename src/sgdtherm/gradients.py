"""Population gradient statistics: full/stochastic gradient norms and SNR.

SNR = ||mean gradient|| / sqrt(E ||g_i - mean||^2), computed exactly over
all ensemble components (no subsampling).  When every component gradient
coincides the deviation term is zero and the SNR is undefined; that is a
legitimate state (e.g. an interpolating ensemble at its optimum), so it is
reported as NaN rather than raised.

Both functions take one point or a stack of them, one per chain: each
statistic is a float for (M, D) component gradients and an (L,) array for an
(L, M, D) stack.  They are built from `np.vecdot` and reductions along one
axis, so row i of a stacked result is bit for bit the result for row i alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradientStats:
    full_grad_norm: float | np.ndarray
    mean_stoch_norm: float | np.ndarray
    snr: float | np.ndarray  # NaN where the SNR is undefined


def snr_from_gradients(grads: np.ndarray) -> GradientStats:
    """Exact population statistics of (M, D) component gradients, or of an (L, M, D) stack."""
    grads = np.asarray(grads, dtype=float)
    mean = grads.mean(axis=-2)
    dev = grads - mean[..., None, :]
    mean_sq_dev = np.vecdot(dev, dev).mean(axis=-1)
    full_norm = np.sqrt(np.vecdot(mean, mean))
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(mean_sq_dev == 0.0, np.nan, full_norm / np.sqrt(mean_sq_dev))
    return GradientStats(
        full_grad_norm=full_norm,
        mean_stoch_norm=np.linalg.norm(grads, axis=-1).mean(axis=-1),
        snr=snr[()],
    )


def gradient_stats(ensemble, w: np.ndarray) -> GradientStats:
    """Gradient statistics of an ensemble at w, or at each row of stacked (L, D) weights."""
    return snr_from_gradients(ensemble.component_grads(w))
