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

The N x N distance matrix is never formed.  It is walked in tiles of 32
rows, which stay in L2 cache, through one distance buffer and one Gram
buffer that every tile reuses.  At the default window a tile's Gram product
is small enough that OpenBLAS runs it single-threaded on whichever thread
calls the estimator (`sphere.run_seeded` calls it from several threads at
once), so a window's result does not depend on the thread.  The
arithmetic is the same as on the whole matrix:
sq_i + sq_j - 2.0 * G in that order, clamped at 0, partitioned per row,
then the square roots of the (N, k) neighbor block taken in place and
summed in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig, NonPositiveEdgeLength, TooFewSamples

# 32 rows of N = 1000 doubles are 256 KB, so a tile stays in L2, and a
# 32 x D x 1000 product with D < 16 is below the size at which OpenBLAS
# splits a GEMM across threads.
_TILE_ROWS = 32


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
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    x = _as_sample_matrix(samples)
    n = x.shape[0]
    if n <= k:
        raise TooFewSamples(f"need more than k={k} samples, got {n}")
    centered = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    out = np.empty((n, k))
    rows = min(_TILE_ROWS, n)
    d2_tile = np.empty((rows, n))
    gram_tile = np.empty((rows, n))
    bounds = list(range(0, n, rows)) + [n]
    if bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1  # numpy takes a one-row product by gemv, which rounds unlike gemm
    for start, stop in zip(bounds[:-1], bounds[1:]):
        m = stop - start
        d2, g = d2_tile[:m], gram_tile[:m]
        # Same operations, in the same order, as sq_i + sq_j - 2.0 * G.
        np.add(sq[start:stop, None], sq[None, :], out=d2)
        np.matmul(centered[start:stop], centered.T, out=g)
        g *= 2.0
        np.subtract(d2, g, out=d2)
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(m), np.arange(start, stop)] = np.inf
        d2.partition(k - 1, axis=1)
        out[start:stop] = d2[:, :k]
    np.sqrt(out, out=out)
    return float(out.sum())


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

