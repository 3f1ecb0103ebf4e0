"""Population gradient statistics: full/stochastic gradient norms and SNR.

SNR = ||mean gradient|| / sqrt(E ||g_i - mean||^2), computed exactly over
all ensemble components (no subsampling).  When every component gradient
coincides the deviation term is zero and the SNR is undefined; that is a
legitimate state (e.g. an interpolating ensemble at its optimum), so it is
reported as None rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradientStats:
    full_grad_norm: float
    mean_sq_deviation: float
    mean_stoch_norm: float
    snr: float | None

    @property
    def snr_or_nan(self) -> float:
        return np.nan if self.snr is None else self.snr


def snr_from_gradients(grads: np.ndarray) -> GradientStats:
    """Exact population statistics of a (M, D) stack of component gradients."""
    grads = np.asarray(grads, dtype=float)
    mean = grads.mean(axis=0)
    dev = grads - mean[None, :]
    mean_sq_dev = float(np.einsum("md,md->", dev, dev) / grads.shape[0])
    full_norm = float(np.linalg.norm(mean))
    stoch_norm = float(np.linalg.norm(grads, axis=1).mean())
    snr = None if mean_sq_dev == 0.0 else full_norm / np.sqrt(mean_sq_dev)
    return GradientStats(
        full_grad_norm=full_norm,
        mean_sq_deviation=mean_sq_dev,
        mean_stoch_norm=stoch_norm,
        snr=snr,
    )


def gradient_stats(ensemble, w: np.ndarray) -> GradientStats:
    """Gradient statistics of an ensemble at w, over all components."""
    return snr_from_gradients(ensemble.component_grads(w))

