"""Differential entropy estimation from the k-nearest-neighbor graph.

The estimate is S = D * (log L_k - ((D-1)/D) * log N), where L_k is the
total edge length of the directed k-NN graph over N samples in R^D (each
point contributes the distances to its k nearest neighbors).  The value is
defined up to an additive constant that does not depend on the sampled
distribution, which is all the downstream temperature analysis needs: only
entropy differences enter there.  A sample whose points all coincide has
L_k = 0 and the estimate -inf, the entropy of a point mass: the window of a
chain that has settled on a single point.

Neighbor search is exact.  Pairwise squared distances are computed on
mean-centered samples c as one matrix product: the rows [|c_i|^2, 1, c_i]
times the columns [1, |c_j|^2, -2 c_j] give |c_i|^2 + |c_j|^2 - 2 c_i . c_j.
This keeps the computation deterministic and numerically stable even for
windows concentrated in a tiny region far from the origin.

The points are first put in order along the window's principal axis, found
by a few power-iteration steps on the D x D scatter (a window whose points
are all equal has no axis and keeps its order).  The N x N distance matrix
is never formed.  It is walked in tiles of 32 rows, which stay in L2 cache:
each tile is one product of 32 left rows with the whole right factor,
written into one buffer that every tile reuses.  At the default window that
product is small enough that OpenBLAS runs it single-threaded, so a
window's result does not depend on the BLAS thread count.  Each row gets an
`inf` diagonal.

Selection is pruned to a slab.  A stretch of trajectory has each point's
neighbors close to it along the axis, so a tile first selects from only the
columns within k places of it in axis order.  Two points at
distance d lie at most d apart along the axis, so no point further along
the axis than the tile's largest k-th distance plus a rounding slack can
be a neighbor (the slack bounds the product's and the projections' rounding;
see `knn_total_edge_length`).  If some point within that reach lies outside
the slab, the tile widens to it and selects again.  Once a slab would
cover more than half the window, that tile and the window's later tiles
select from whole rows, as a cloud with no long axis needs.  Every distance
keeps the bits of the full-row product, so the neighbors are the ones the
whole rows give.  Each row's k values come out in ascending order (a slab
is sorted, a whole row partitioned at k - 1 and its first k sorted), so
the sum does not depend on where a slab ended.  The (N, k) neighbor block
is then clamped at 0 (rounding can put near-coincident rows below it; the
clamp is monotone, so the neighbors are the same), square-rooted in place
and summed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig, NonFinite

# 32 rows of N = 1000 doubles are 256 KB, so a tile stays in L2, and a
# 32 x (D + 2) x 1000 product with D < 16 is below the size at which
# OpenBLAS splits a GEMM across threads (128-row tiles at D = 10 are not).
_TILE_ROWS = 32
# Power-iteration steps toward the principal axis.  The axis only decides
# how much a slab saves, never which neighbors are found, so a rough one
# is enough.
_POWER_STEPS = 4


def _as_sample_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise InvalidConfig(f"samples must be a 2-D array, got shape {x.shape}")
    return x


def _principal_projections(centered: np.ndarray) -> np.ndarray | None:
    """Projections of the centered points on their principal axis, or None for a zero scatter.

    The axis comes from a few power-iteration steps on the D x D scatter,
    started at the scatter's row of largest variance and normalized after
    each step.  The scatter is first divided by its largest variance, so
    its entries lie in [-1, 1] and, as a positive semidefinite matrix, it
    never shrinks an iterate below 1/sqrt(D): no step underflows, however
    small the window.
    """
    scatter = centered.T @ centered
    top = scatter.diagonal().argmax()
    scale = float(scatter[top, top])
    if not 0.0 < scale < np.inf:
        return None  # every point equal (or squares beyond double range): no axis
    scatter /= scale
    axis = scatter[top]
    for _ in range(_POWER_STEPS):
        axis = scatter @ axis
        axis /= np.linalg.norm(axis)
    return centered @ axis


def _select(block: np.ndarray, k: int) -> np.ndarray:
    """The k smallest values of each row of `block`, in ascending order.

    `block` is reordered in place.  A slab of up to 8k columns is sorted
    whole, which costs less than a partition at k - 1 and a sort of the
    first k; a wider block is partitioned first.
    """
    if block.shape[1] > 8 * k:
        block.partition(k - 1, axis=1)
        block = block[:, :k]
    block.sort(axis=1)
    return block[:, :k]


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
    n, dim = x.shape
    if n <= k:
        raise InvalidConfig(f"need more than k={k} samples, got {n}")
    if not np.isfinite(x).all():
        raise NonFinite("samples contain NaN or inf")
    centered = x - x.mean(axis=0)
    proj = _principal_projections(centered)
    pruning = proj is not None
    if pruning:
        order = np.argsort(proj)
        centered, proj = centered[order], proj[order]
    sq = np.einsum("ij,ij->i", centered, centered)
    ones = np.ones(n)
    left = np.column_stack((sq, ones, centered))
    right = np.vstack((ones, sq, -2.0 * centered.T))
    # A point j outside the slab may be skipped when its computed squared
    # distance d2_ij cannot fall below v_i, the k-th smallest value row i
    # found inside the slab.  With M^2 = max sq and eps = 2^-52:
    #   * d2_ij is a sum of D + 2 products, and sq carries D products, so
    #     |d2_ij - |c_i - c_j|^2| <= 4 (D + 2) eps M^2 + 2 D eps M^2
    #     < 8 (D + 2) eps M^2 = gemm_slack;
    #   * for the stored axis a (|a| = 1 within (D + 2) eps) the computed
    #     projections p_j carry at most 2 D eps M each, and
    #     |c_i - c_j| >= |(c_i - c_j) . a| / |a|.
    # So |p_i - p_j| > sqrt(max(v_i, 0) + gemm_slack) + 8 (D + 2) eps M, which
    # also covers the rounding of the sqrt and of the thresholds below (all
    # O(D eps M), as every distance here is at most 2 M), implies
    # |c_i - c_j|^2 >= v_i + gemm_slack, hence d2_ij >= v_i.  Each rounding
    # that underflows adds at most the smallest subnormal instead, so both
    # slacks get 8 (D + 2) of it: a window can shrink that far onto a point.
    big = float(sq.max())
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    gemm_slack = 8 * (dim + 2) * (eps * big + tiny)
    proj_slack = 8 * (dim + 2) * (eps * math.sqrt(big) + tiny)
    out = np.empty((n, k))
    rows = min(_TILE_ROWS, n)
    d2_tile = np.empty((rows, n))
    bounds = list(range(0, n, rows)) + [n]
    if bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1  # numpy takes a one-row product by gemv, which rounds unlike gemm
    for start, stop in zip(bounds[:-1], bounds[1:]):
        d2 = np.matmul(left[start:stop], right, out=d2_tile[: stop - start])
        d2.ravel()[start :: n + 1] = np.inf  # entries (i, i); d2 is contiguous, so ravel is a view
        lo, hi = max(start - k, 0), min(stop + k, n)
        while pruning:
            if 2 * (hi - lo) > n:
                pruning = False  # this tile and every later one select from whole rows
                break
            block = _select(d2[:, lo:hi], k)
            reach = math.sqrt(max(float(block[:, k - 1].max()), 0.0) + gemm_slack) + proj_slack
            first = proj.searchsorted(proj[start] - reach, "left")
            last = proj.searchsorted(proj[stop - 1] + reach, "right")
            if lo <= first and last <= hi:
                break  # every point within reach was in the slab: the selection is exact
            # Widening can only lower each row's k-th value, so one pass suffices.
            lo, hi = min(lo, first), max(hi, last)
        if not pruning:
            block = _select(d2, k)
        out[start:stop] = block
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

