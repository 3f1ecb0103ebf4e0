"""Differential entropy estimation from the k-nearest-neighbor graph.

The estimate is S = D * (log L_k - ((D-1)/D) * log N), where L_k is the
total edge length of the directed k-NN graph over N samples in R^D (each
point contributes the distances to its k nearest neighbors).  The value is
defined up to an additive constant that does not depend on the sampled
distribution, which is all the downstream temperature analysis needs: only
entropy differences enter there.

Neighbor search is exact brute force.  Pairwise squared distances are
computed on mean-centered samples via the Gram matrix, which keeps the
computation O(N^2 D), deterministic, and numerically stable even for
windows concentrated in a tiny region far from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonPositiveEdgeLength, TooFewSamples

_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class EntropyConfig:
    """k-NN entropy settings: `k` neighbors over a window of `window` iterates.

    A trajectory's entropy window is the trailing `window` iterates, read at
    each checkpoint once that many have been taken (see
    `sphere.run_trajectory`).
    """

    k: int = 50
    window: int = 1000

    def __post_init__(self):
        if self.k < 1:
            raise InvalidConfig("k must be >= 1")
        if self.window <= self.k:
            raise InvalidConfig("window must exceed k")


def _as_sample_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise InvalidConfig(f"samples must be a 2-D array, got shape {x.shape}")
    return x


def knn_total_edge_length(samples, k: int) -> float:
    """Total edge length of the directed k-NN graph (N*k edges).

    Each point contributes the distances to its k nearest neighbors, the
    exact smallest multiset: a tie at the k-th distance contributes the tied
    value, so the sum is unambiguous.
    """
    x = _as_sample_matrix(samples)
    n = x.shape[0]
    if n <= k:
        raise TooFewSamples(f"need more than k={k} samples, got {n}")
    centered = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    out = np.empty((n, k))
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (centered[start:stop] @ centered.T)
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        out[start:stop] = np.partition(d2, k - 1, axis=1)[:, :k]
    return float(np.sqrt(out).sum())


def knn_entropy(samples, k: int, dim: int | None = None) -> float:
    """Entropy estimate D * (log L_k - ((D-1)/D) * log N), up to an additive constant.

    Scaling all samples by c > 0 shifts the estimate by exactly D * log c;
    translations and rotations leave it unchanged.  Raises
    NonPositiveEdgeLength when every sample coincides (L_k = 0).
    """
    x = _as_sample_matrix(samples)
    n = x.shape[0]
    d = x.shape[1] if dim is None else dim
    total = knn_total_edge_length(x, k)
    if total <= 0.0:
        raise NonPositiveEdgeLength("all samples identical: entropy estimate is -inf")
    return float(d * np.log(total) - (d - 1) * np.log(n))

