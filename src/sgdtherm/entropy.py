"""Differential entropy estimation from the k-nearest-neighbor graph.

The estimate is S = D * (log L_k - ((D-1)/D) * log N), where L_k is the
total edge length of the directed k-NN graph over N samples in R^D (each
point contributes the distances to its k nearest neighbors).  The value is
defined up to an additive constant that does not depend on the sampled
distribution, which is all the downstream temperature analysis needs: only
entropy differences enter there.  A sample whose points all coincide has
L_k = 0 and the estimate -inf, the entropy of a point mass: the window of a
chain that has settled on a single point.

Neighbor search is exact brute force.  Pairwise squared distances are
computed on mean-centered samples c as one matrix product: the rows
[|c_i|^2, 1, c_i] times the columns [1, |c_j|^2, -2 c_j] give
|c_i|^2 + |c_j|^2 - 2 c_i . c_j.  This keeps the computation O(N^2 D),
deterministic, and numerically stable even for windows concentrated in a
tiny region far from the origin.

The N x N distance matrix is never formed.  It is walked in tiles of 32
rows, which stay in L2 cache: each tile is one product of 32 left rows
with the whole right factor, written into one buffer that every tile
reuses.  At the default window that product is small enough that OpenBLAS
runs it single-threaded on whichever thread calls the estimator
(`sphere.run_seeded` calls it from several threads at once), so a window's
result does not depend on the thread.  Each row gets an `inf` diagonal and
is partitioned at k - 1.  The (N, k) neighbor block is then clamped at 0
(rounding can put near-coincident rows below it; the clamp is monotone, so
the neighbors are the same), square-rooted in place and summed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig, NonFinite

# 32 rows of N = 1000 doubles are 256 KB, so a tile stays in L2, and a
# 32 x (D + 2) x 1000 product with D < 16 is below the size at which
# OpenBLAS splits a GEMM across threads (128-row tiles at D = 10 are not).
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
    value, so the sum is unambiguous.  N must exceed k: fewer samples, like
    k < 1, raise InvalidConfig.
    """
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    x = _as_sample_matrix(samples)
    n = x.shape[0]
    if n <= k:
        raise InvalidConfig(f"need more than k={k} samples, got {n}")
    if not np.isfinite(x).all():
        raise NonFinite("samples contain NaN or inf")
    centered = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    ones = np.ones(n)
    left = np.column_stack((sq, ones, centered))
    right = np.vstack((ones, sq, -2.0 * centered.T))
    out = np.empty((n, k))
    rows = min(_TILE_ROWS, n)
    d2_tile = np.empty((rows, n))
    bounds = list(range(0, n, rows)) + [n]
    if bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1  # numpy takes a one-row product by gemv, which rounds unlike gemm
    for start, stop in zip(bounds[:-1], bounds[1:]):
        d2 = np.matmul(left[start:stop], right, out=d2_tile[: stop - start])
        d2.ravel()[start :: n + 1] = np.inf  # entries (i, i); d2 is contiguous, so ravel is a view
        d2.partition(k - 1, axis=1)
        out[start:stop] = d2[:, :k]
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    return float(out.sum())


def knn_entropy(samples, k: int, dim: int | None = None) -> float:
    """Entropy estimate D * (log L_k - ((D-1)/D) * log N), up to an additive constant.

    Scaling all samples by c > 0 shifts the estimate by exactly D * log c;
    translations and rotations leave it unchanged.  A sample whose points all
    coincide (L_k = 0) gives -inf, the entropy of a point mass.
    """
    x = _as_sample_matrix(samples)
    n = x.shape[0]
    d = x.shape[1] if dim is None else dim
    total = knn_total_edge_length(x, k)
    if total == 0.0:
        return -np.inf
    return float(d * np.log(total) - (d - 1) * np.log(n))

