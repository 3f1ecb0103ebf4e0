"""Loss ensembles: collections of per-example loss components sharing a minimizer structure.

Hyperplane ensembles are scale-invariant and live on the unit sphere:
component i is half the squared distance to a hyperplane through the origin,
normalized by ||w||^2.  In 3D each zero set is a great circle, as in the toy
ensembles `make_toy_op`, `make_toy_up` and `make_circle_pair`.  They are the
only ensembles `sphere.run_seeded` simulates; their `full_loss`,
`batch_grad` and `component_grads` take one weight vector or a stack of
them, one per chain.
Whether every per-example loss can vanish simultaneously distinguishes the
overparameterized (OP) regime from the underparameterized (UP) one: OP holds
exactly when the normals do not span the full space.

The quadratic ensemble (per-component Hessians around a shared optimum) is
an oracle model only: it provides the component gradients (at one point or
a stack of them) behind the closed-form check that its SNR does not depend
on the displacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ZeroVector

_UNIT_TOL = 1e-12


def _check_unit_rows(normals: np.ndarray) -> None:
    norms = np.linalg.norm(normals, axis=1)
    if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
        raise InvalidConfig("ensemble normals must have unit norm (within 1e-12)")


class HyperplaneEnsemble:
    """M unit normals in D dimensions; component i is (a_i . w)^2 / (2 ||w||^2).

    On the unit sphere the component gradient is (a_i . w) a_i - (a_i . w)^2 w.
    Regime: OP when the normals span a proper subspace (their common zero set
    on the sphere is nonempty), UP when they span all of R^D.
    """

    def __init__(self, normals: np.ndarray):
        normals = np.asarray(normals, dtype=float)
        if normals.ndim != 2 or normals.shape[0] < 2 or normals.shape[1] < 2:
            raise InvalidConfig("need at least 2 normals of dimension >= 2")
        _check_unit_rows(normals)
        self.normals = normals

    def __len__(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def regime(self) -> str:
        rank = np.linalg.matrix_rank(self.normals)
        return "OP" if rank < self.dim else "UP"

    def full_loss(self, w: np.ndarray):
        """Full loss at w, or one loss per row of stacked (L, D) weights."""
        a = np.matvec(self.normals, w)
        sq = np.vecdot(w, w)
        if (sq < 1e-300).any():
            raise ZeroVector("loss undefined at the origin")
        return np.vecdot(a, a) / (2.0 * sq * len(self))

    def component_grads(self, w: np.ndarray) -> np.ndarray:
        """(M, D) gradients at a unit vector w, or (L, M, D) at stacked (L, D) weights."""
        a = np.matvec(self.normals, w)[..., None]
        return a * self.normals - (a * a) * w[..., None, :]

    def batch_grad(self, indices: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Mean gradient over the indexed components at w.

        Stacked: row i of (L, batch) indices at row i of (L, D) weights.
        `np.matvec`, `np.vecmat` and `np.vecdot` run each row through the
        same BLAS gemv and dot kernels as a single chain's `@`, so a row's
        result does not depend on the rows beside it.
        """
        sub = self.normals[indices]
        a = np.matvec(sub, w)
        inv = 1.0 / a.shape[-1]
        return inv * np.vecmat(a, sub) - (inv * np.vecdot(a, a))[..., None] * w


def make_toy_op() -> HyperplaneEnsemble:
    """Two great circles intersecting at (0, 0, +-1): the interpolating (OP) toy.

    Normals (sqrt(3)/2, 1/2, 0) and (sqrt(3)/2, -1/2, 0); the full loss is
    zero exactly at the poles.
    """
    s3 = np.sqrt(3.0) / 2.0
    return HyperplaneEnsemble(np.array([[s3, 0.5, 0.0], [s3, -0.5, 0.0]]))


def make_toy_up() -> HyperplaneEnsemble:
    """Three great circles with no common point: the non-interpolating (UP) toy.

    Raw normals (1, 0, 0.2), (-1/2, sqrt(3)/2, 0.2), (-1/2, -sqrt(3)/2, 0.2),
    normalized to unit length.  The circles sit at equal distance from
    (0, 0, 1) and the normals have equal pairwise angles; the full loss is
    strictly positive everywhere on the sphere.
    """
    h = np.sqrt(3.0) / 2.0
    raw = np.array([
        [1.0, 0.0, 0.2],
        [-0.5, h, 0.2],
        [-0.5, -h, 0.2],
    ])
    return HyperplaneEnsemble(raw / np.linalg.norm(raw, axis=1, keepdims=True))


def make_circle_pair(half_angle: float) -> HyperplaneEnsemble:
    """Two circles with normals (cos a, +-sin a, 0); make_toy_op() is a = pi/6."""
    c, s = np.cos(half_angle), np.sin(half_angle)
    return HyperplaneEnsemble(np.array([[c, s, 0.0], [c, -s, 0.0]]))


def random_hyperplane_ensemble(
    dim: int, components: int, seed: int
) -> HyperplaneEnsemble:
    """Ensemble of `components` uniform-random unit normals in `dim` dimensions."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((components, dim))
    return HyperplaneEnsemble(raw / np.linalg.norm(raw, axis=1, keepdims=True))


@dataclass(eq=False)
class QuadraticEnsemble:
    """Per-component quadratics around a shared optimum (unconstrained).

    Component i is 0.5 (w - optimum)^T H_i (w - optimum) with symmetric PSD
    H_i.  An oracle model for direction-wise SNR identities: it has component
    gradients but no loss or batch gradient, so it cannot be simulated.
    """

    optimum: np.ndarray
    hessians: np.ndarray  # (M, D, D)

    def __post_init__(self):
        self.optimum = np.asarray(self.optimum, dtype=float)
        self.hessians = np.asarray(self.hessians, dtype=float)
        d = self.optimum.shape[0]
        if self.hessians.ndim != 3 or self.hessians.shape[1:] != (d, d):
            raise InvalidConfig("hessians must have shape (M, D, D) matching the optimum")
        if not np.allclose(self.hessians, np.swapaxes(self.hessians, 1, 2), atol=1e-12):
            raise InvalidConfig("component Hessians must be symmetric within 1e-12")

    def component_grads(self, w: np.ndarray) -> np.ndarray:
        """(M, D) gradients at w, or (L, M, D) at stacked (L, D) points."""
        d = np.asarray(w, dtype=float) - self.optimum
        return np.matvec(self.hessians, d[..., None, :])


def random_quadratic_ensemble(dim: int, components: int, seed: int) -> QuadraticEnsemble:
    """Random PSD quadratic ensemble: H_i = G_i^T G_i / dim, optimum at the origin.

    Every stochastic gradient vanishes at the optimum (the interpolation property).
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((components, dim, dim))
    hessians = np.einsum("mki,mkj->mij", g, g) / dim
    hessians = 0.5 * (hessians + np.swapaxes(hessians, 1, 2))
    return QuadraticEnsemble(optimum=np.zeros(dim), hessians=hessians)
