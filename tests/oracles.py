"""Reference formulas that the tests check the package against.

Nothing in `sgdtherm` uses these: each one restates a loss, a gradient or a
closed form in a second way (per component, in polar coordinates, by brute
force), so that a test can compare it with the package's own computation,
or perturbs one, so that a test can show a check rejecting it.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from sgdtherm import (
    TemperatureInterval,
    TrajectoryLog,
    central_meridian_snr,
    checkpoint_schedule,
    factorization_residual,
    gradient_stats,
    hessian_ensemble_snr,
    knn_entropy,
    make_circle_pair,
    make_toy_op,
    project_to_sphere,
    random_quadratic_ensemble,
    random_unit_vector,
    two_circle_snr_sq,
)
from sgdtherm.cli import OracleCheck
from sgdtherm.entropy import _TILE_ROWS, _principal_projections
from sgdtherm.errors import InvalidConfig, MissingData, NonFinite, ZeroVector


def sgd_step(w: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One projected update: normalize(w - lr * grad)."""
    return project_to_sphere(w - lr * np.asarray(grad, dtype=float))


def circle_loss(normal: np.ndarray, w: np.ndarray) -> float:
    """Half squared plane distance, normalized: (normal . w)^2 / (2 ||w||^2).

    Scale-invariant by construction: identical for w and c*w, c != 0.
    """
    w = np.asarray(w, dtype=float)
    sq = float(w @ w)
    if sq < 1e-300:
        raise ZeroVector("loss undefined at the origin")
    a = float(np.asarray(normal, dtype=float) @ w)
    return a * a / (2.0 * sq)


def circle_grad(normal: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of circle_loss at a unit vector w: a*normal - a^2*w with a = normal . w.

    Tangent to the sphere: grad . w = 0 up to rounding.
    """
    normal = np.asarray(normal, dtype=float)
    w = np.asarray(w, dtype=float)
    a = float(normal @ w)
    return a * normal - (a * a) * w


def hyperplane_loss_and_grad(ensemble, index: int, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Single-component loss and gradient of a HyperplaneEnsemble at a unit vector w."""
    if not 0 <= index < len(ensemble):
        raise IndexError(f"component index {index} out of range [0, {len(ensemble)})")
    normal = ensemble.normals[index]
    return circle_loss(normal, w), circle_grad(normal, w)


def full_grad(ensemble, w: np.ndarray) -> np.ndarray:
    """Full-ensemble gradient: the mean of the component gradients."""
    return ensemble.component_grads(w).mean(axis=0)


def full_hessian(ensemble) -> np.ndarray:
    """Full Hessian of a QuadraticEnsemble: the mean of the component Hessians."""
    return ensemble.hessians.mean(axis=0)


def quadratic_full_loss(ensemble, w: np.ndarray) -> float:
    """Full loss of a QuadraticEnsemble: mean of 0.5 (w - optimum)^T H_i (w - optimum)."""
    d = np.asarray(w, dtype=float) - ensemble.optimum
    return float((0.5 * np.einsum("mij,i,j->m", ensemble.hessians, d, d)).mean())


def quadratic_loss_and_grad(ensemble, index: int, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Single-component quadratic loss and gradient H_i (w - optimum)."""
    size = ensemble.hessians.shape[0]
    if not 0 <= index < size:
        raise IndexError(f"component index {index} out of range [0, {size})")
    d = np.asarray(w, dtype=float) - ensemble.optimum
    h = ensemble.hessians[index]
    loss = float(0.5 * d @ h @ d)
    return loss, h @ d


def snr_two_component(g1: np.ndarray, g2: np.ndarray) -> float:
    """Two-component SNR: ||g1 + g2|| / ||g1 - g2||, NaN when g1 = g2.

    Agrees with gradient_stats on any two-component ensemble: with M = 2 the
    deviation of each component from the mean is (g1 - g2) / 2.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape:
        raise InvalidConfig(f"shapes {g1.shape} and {g2.shape} differ")
    denom = float(np.linalg.norm(g1 - g2))
    if denom == 0.0:
        return math.nan
    return float(np.linalg.norm(g1 + g2)) / denom


@dataclass(frozen=True)
class PolarParams:
    """Polar coordinates (x, y) = (radial*sin(azimuth), radial*cos(azimuth)).

    The azimuth is measured from the central meridian (the great circle
    halfway between the two loss circles); the domain keeps the point in
    the wedge between the circles.
    """

    half_angle: float
    radial: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 < self.half_angle < math.pi / 4:
            raise InvalidConfig(
                f"half_angle must lie strictly inside (0, pi/4), got {self.half_angle}"
            )
        if not 0.0 < self.radial <= 1.0:
            raise InvalidConfig("radial must lie in (0, 1]")
        if abs(self.azimuth) > self.half_angle:
            raise InvalidConfig("azimuth must lie in [-half_angle, half_angle]")

    def to_xy(self) -> tuple[float, float]:
        return (
            self.radial * math.sin(self.azimuth),
            self.radial * math.cos(self.azimuth),
        )


def two_circle_snr_sq_polar(radial: float, azimuth: float, half_angle: float) -> float:
    """two_circle_snr_sq at (x, y) = (radial*sin(azimuth), radial*cos(azimuth))."""
    x, y = PolarParams(half_angle=half_angle, radial=radial, azimuth=azimuth).to_xy()
    return two_circle_snr_sq(x, y, half_angle)


def factorization_residual_shifted(sin_sq_azimuth, sin_sq_half_angle, shift: float = 1e-6):
    """`factorization_residual` with the linear coefficient 3 of its factored side moved by `shift`.

    A negative control: the identity holds only at shift 0, so an identity
    check must fail on this residual at any other shift.  Like the package's
    residual it takes scalars or broadcastable arrays.
    """
    s = np.asarray(sin_sq_azimuth, dtype=float)
    r = np.asarray(sin_sq_half_angle, dtype=float)
    if not np.all((0.0 <= s) & (s <= r) & (r < 0.5)):
        raise InvalidConfig(f"need 0 <= S <= R < 1/2, got S={s}, R={r}")
    one_r = 1.0 - r
    mixed = s * one_r + (1.0 - s) * r
    m = s * (one_r * one_r) + (1.0 - s) * r * r
    p = mixed * mixed
    q = 4.0 * s * (1.0 - s)
    factored = (s - r) * (8.0 * r * s * s - 8.0 * r * s + r - 4.0 * s * s + (3.0 + shift) * s)
    return ((m * q - p) - factored)[()]


def verify_oracles_reference() -> list[OracleCheck]:
    """The closed-form identity suite one point at a time, with scalar closed-form calls.

    The reference for `cli.verify_oracles`, which must return equal checks:
    the same names, thresholds and verdicts, and equal maximum residuals.
    A point where the closed form is NaN is skipped.
    """
    rng = np.random.default_rng(20_624)
    checks: list[OracleCheck] = []

    # Polynomial identity behind the radial monotonicity of the squared SNR.
    worst = 0.0
    for _ in range(10_000):
        r = rng.uniform(0.0, 0.4999)
        s = rng.uniform(0.0, r)
        worst = max(worst, abs(factorization_residual(s, r)))
    checks.append(OracleCheck("factorization-identity", worst, 1e-12, worst < 1e-12))

    # Azimuthal minimum at the central meridian.
    worst = 0.0
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
        grid = np.linspace(-alpha, alpha, 2 * round(alpha / 1e-3) + 1)
        for r in (0.2, 0.5, 0.8):
            vals = np.array([two_circle_snr_sq(r * math.sin(p), r * math.cos(p), alpha) for p in grid])
            worst = max(worst, float(vals[grid.size // 2] - vals.min()))
    checks.append(OracleCheck("central-meridian-minimum", worst, 0.0, worst <= 0.0))

    # Squared SNR nonincreasing in the squared radius.
    worst = -math.inf
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
        for phi in (0.0, alpha / 2, 0.99 * alpha):
            r = np.sqrt(np.linspace(1e-4, 0.9999, 1000))
            vals = np.array([two_circle_snr_sq(ri * math.sin(phi), ri * math.cos(phi), alpha) for ri in r])
            worst = max(worst, float(np.diff(vals).max()))
    checks.append(OracleCheck("radial-monotonicity", worst, 1e-12, worst < 1e-12))

    # Closed form equals the measured population SNR of the circle pair.  The
    # SNR checks keep their maximum with np.maximum, which carries an
    # undefined (NaN) SNR through to a failed check.
    worst = 0.0
    for alpha in (math.pi / 6, math.pi / 5):
        ens = make_circle_pair(alpha)
        for _ in range(1000):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            oracle = two_circle_snr_sq(w[0], w[1], alpha)
            if math.isnan(oracle):
                continue
            worst = np.maximum(worst, abs(gradient_stats(ens, w).snr**2 - oracle))
    checks.append(OracleCheck("two-circle-snr-oracle", worst, 1e-10, worst < 1e-10))

    # Meridian limit consistency with the closed form at azimuth zero.
    worst = 0.0
    for r in np.linspace(0.05, 0.95, 19):
        a = central_meridian_snr(r, math.pi / 6)
        b = math.sqrt(two_circle_snr_sq(0.0, r, math.pi / 6))
        worst = max(worst, abs(a - b))
    checks.append(OracleCheck("meridian-limit-consistency", worst, 1e-12, worst < 1e-12))

    # Direction-wise SNR of quadratic ensembles is displacement-independent.
    worst = 0.0
    deltas = np.array([1e-1, 1e-3, 1e-6])[:, None]
    for trial in range(20):
        d = int(rng.integers(2, 11))
        m = int(rng.integers(2, 9))
        ens = random_quadratic_ensemble(d, m, seed=int(rng.integers(1 << 31)))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        closed = hessian_ensemble_snr(ens.hessians, direction)
        snr = gradient_stats(ens, ens.optimum + deltas * direction).snr
        worst = np.maximum(worst, np.abs(snr - closed).max())
    checks.append(OracleCheck("hessian-snr-delta-independence", worst, 1e-10, worst < 1e-10))

    # Measured SNR depends on (x, y) only.
    worst = 0.0
    ens = make_toy_op()
    for _ in range(200):
        x, y = rng.uniform(-0.7, 0.7, size=2)
        z_sq = 1.0 - x * x - y * y
        if z_sq <= 1e-3:
            continue
        z = math.sqrt(z_sq)
        up, down = gradient_stats(ens, np.array([[x, y, z], [x, y, -z]])).snr
        worst = np.maximum(worst, abs(up - down))
    checks.append(OracleCheck("z-independence", worst, 1e-10, worst < 1e-10))
    return checks


def degenerate_edge_count(samples, k: int) -> int:
    """Number of zero-length edges in the directed k-NN graph, by brute force.

    A point with c coincident partners has min(c, k) of them among its k
    nearest neighbors.
    """
    x = np.asarray(samples, dtype=float)
    dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    return int(np.minimum(np.count_nonzero(dist == 0.0, axis=1), k).sum())


def squared_distances_one_block(samples) -> np.ndarray:
    """The whole N x N squared-distance matrix as the package's row tiles compute it.

    The mean-centered samples c are put in the kernel's point order (by
    projection on their principal axis, unless every point is equal), and
    with squared row norms sq each block of 32 rows is one product of the
    rows [sq_i, 1, c_i] with the columns [1, sq_j, -2 c_j], not clamped, with
    an `inf` diagonal.  The blocks are the kernel's: a one-row last block
    joins the block before it.  Rows and columns stay in that point order.
    """
    x = np.asarray(samples, dtype=float)
    centered = x - x.mean(axis=0)
    proj = _principal_projections(centered)
    if proj is not None:
        centered = centered[np.argsort(proj)]
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", centered, centered)
    ones = np.ones(n)
    left = np.column_stack((sq, ones, centered))
    right = np.vstack((ones, sq, -2.0 * centered.T))
    bounds = list(range(0, n, min(_TILE_ROWS, n))) + [n]
    if bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    d2 = np.vstack([left[start:stop] @ right for start, stop in zip(bounds[:-1], bounds[1:])])
    np.fill_diagonal(d2, np.inf)
    return d2


def knn_edge_length_one_block(samples, k: int) -> float:
    """k-NN total edge length from the whole N x N squared-distance matrix, without pruning.

    Every row of `squared_distances_one_block` is partitioned whole at
    k - 1; each row's k smallest values are sorted, clamped at 0 and
    square-rooted, and the (N, k) block is summed: the package's canonical
    sum, so its slab-pruned kernel must give the same bits.
    """
    block = np.partition(squared_distances_one_block(samples), k - 1, axis=1)[:, :k]
    return float(np.sqrt(np.maximum(np.sort(block, axis=1), 0.0)).sum())


def knn_edge_length_brute_force(samples, k: int) -> float:
    """k-NN total edge length from the norms of pairwise differences, row by row."""
    x = np.asarray(samples, dtype=float)
    total = 0.0
    for i in range(x.shape[0]):
        dist = np.linalg.norm(x - x[i], axis=1)
        dist[i] = np.inf
        total += np.sort(dist)[:k].sum()
    return total


def sample_batch_one_step(ensemble_size: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """One step's batch, drawn on its own: an `integers` draw, argpartition keys, or every index."""
    if batch_size == ensemble_size:
        return np.arange(ensemble_size)
    if batch_size == 1:
        return np.array([int(rng.integers(ensemble_size))])
    keys = rng.random(ensemble_size)
    return np.argpartition(keys, batch_size)[:batch_size]


def batch_grad_one_chain(normals: np.ndarray, indices: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mean hyperplane gradient over the indexed components at one w, with `@` on 1-D operands."""
    if len(indices) == 1:
        n = normals[indices[0]]
        a = n @ w
        return a * n - (a * a) * w
    sub = normals[indices]
    a = sub @ w
    inv = 1.0 / a.size
    return inv * (a @ sub) - (inv * (a @ a)) * w


def full_loss_one_chain(normals: np.ndarray, w: np.ndarray) -> float:
    """Full hyperplane loss at one w, with `@` on 1-D operands."""
    a = normals @ w
    sq = w @ w
    if sq < 1e-300:
        raise ZeroVector("loss undefined at the origin")
    return float((a @ a) / (2.0 * sq * a.size))


def run_chain_reference(ensemble, cfg, lr: float, seed: int,
                        init: np.ndarray | None = None) -> TrajectoryLog:
    """One chain stepped on its own, one draw and one 1-D update per step.

    The reference for `run_seeded(ensemble, cfg, lrs, seeds, inits)`, which
    must give the chain of `lr`, `seed` and `init` this log field for field:
    the same start, batches, steps, checkpoints, entropy windows, early stop
    and snapshots.
    """
    rng = np.random.default_rng(seed)
    w = random_unit_vector(ensemble.dim, rng) if init is None else np.asarray(init, dtype=float)
    if w.shape != (ensemble.dim,):
        raise InvalidConfig(
            f"init has shape {w.shape}, ensemble dimension is {ensemble.dim}"
        )
    if cfg.batch_size > len(ensemble):
        raise InvalidConfig(
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
    normals = ensemble.normals

    def log_checkpoint(t: int) -> None:
        stats = gradient_stats(ensemble, w)
        loss = full_loss_one_chain(normals, w)
        if not (np.isfinite(loss) and np.isfinite(stats.full_grad_norm)):
            raise NonFinite(f"non-finite loss or gradient at iteration {t}")
        iters.append(t)
        losses.append(loss)
        g_norms.append(stats.full_grad_norm)
        s_norms.append(stats.mean_stoch_norm)
        snrs.append(stats.snr)
        if len(ring) == cfg.window:
            ent_iters.append(t)
            ent_vals.append(knn_entropy(np.asarray(ring), cfg.k))

    for t in range(1, cfg.total_iters + 1):
        idx = sample_batch_one_step(m, cfg.batch_size, rng)
        g = batch_grad_one_chain(normals, idx, w)
        v = w - lr * g
        nrm = np.sqrt(v @ v)
        if nrm < 1e-300:
            raise ZeroVector(f"weights collapsed to zero at iteration {t}")
        w = v / nrm
        ring.append(w)  # no copy: w is a fresh array each step and is never written in place

        at_checkpoint = next_cp < n_schedule and t == schedule[next_cp]
        if at_checkpoint:
            next_cp += 1
        stop_now = check_loss and full_loss_one_chain(normals, w) < cfg.loss_stop_threshold
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
        learning_rate=lr,
    )


def circle_stationary_law(ensemble, lr: float, cells: int) -> tuple[float, float]:
    """Exact stationary (U, S) of batch-1 projected SGD on a D = 2 hyperplane ensemble.

    Ulam's method: on the circle the iterate is one angle, and each step
    applies one of the M component maps, each with probability 1/M.  The
    maps commute with w -> -w, so angles are folded to [0, pi), cut into
    `cells` cells of width delta.  Each cell sends 8 evenly spaced points
    through every map, and p <- bincount(dest, p[src]) / (M * 8) is
    iterated from the uniform law until its L1 change is below 1e-14.
    U is the full loss at the cell centres weighted by p, and
    S = -sum p log(p / delta) is the entropy of the folded density.
    """
    normals, sub, max_iter = ensemble.normals, 8, 100_000
    m = len(normals)
    delta = math.pi / cells
    theta = (np.arange(cells * sub) + 0.5) * (delta / sub)
    w = np.column_stack((np.cos(theta), np.sin(theta)))
    src = np.tile(np.repeat(np.arange(cells), sub), m)
    dest = []
    for normal in normals:
        a = (w @ normal)[:, None]
        v = w - lr * (a * normal - a * a * w)
        angle = np.mod(np.arctan2(v[:, 1], v[:, 0]), math.pi)
        dest.append(np.minimum((angle / delta).astype(np.int64), cells - 1))
    dest = np.concatenate(dest)
    p = np.full(cells, 1.0 / cells)
    for _ in range(max_iter):
        p, old = np.bincount(dest, weights=p[src], minlength=cells) / (m * sub), p
        if np.abs(p - old).sum() < 1e-14:
            break
    else:
        raise RuntimeError(f"no stationary law within {max_iter} iterations at lr {lr}")
    centres = (np.arange(cells) + 0.5) * delta
    loss = ((np.column_stack((np.cos(centres), np.sin(centres))) @ normals.T) ** 2).mean(axis=1) / 2
    mass = p[p > 0]
    return float(p @ loss), float(-(mass * np.log(mass / delta)).sum())


def read_csv_reference(path, columns) -> dict[str, list]:
    """The named columns of a CSV file, one `csv.DictReader` row and one parse per cell.

    The reference for `cli._read_csv`, which must return the same values or
    raise MissingData with the same message.  "stabilized" is the boolean
    column (true/false); every other column holds floats, blank for NaN.
    """
    def parse_cell(column, raw):
        if column == "stabilized":
            return {"true": True, "false": False}[raw]
        return math.nan if raw == "" else float(raw)

    cols = {c: [] for c in columns}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or [])]
            if missing:
                raise MissingData(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                for c in columns:
                    try:  # a short row holds None
                        cols[c].append(parse_cell(c, row[c]))
                    except (KeyError, TypeError, ValueError) as exc:
                        raise MissingData(
                            f"{path}, line {reader.line_num}: missing or unreadable {c!r} cell"
                        ) from exc
    except FileNotFoundError as exc:
        raise MissingData(f"file not found: {path}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MissingData(f"{path}: {exc}") from exc
    return cols


def write_csv_reference(path, header, rows) -> None:
    """A CSV file written by `csv.writer`, one `cell` string per value.

    The reference for `cli._write_csv`, which must write the same bytes.
    """
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


def cell(value) -> str:
    """One CSV cell, tested type by type: None blank, booleans true/false, ints in full,
    anything else with 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{value:.17g}"


def temperature_interval_reference(estimates, target_index: int, epsilon: float) -> TemperatureInterval:
    """Exact interval of T >= 0 with loss* - T*S* <= loss(lr) - T*S(lr) + epsilon for all lr.

    The reference for `analysis.temperature_curve`, one target and one
    constraint at a time.  Each learning rate contributes a half-line bound:
    T >= (loss*-loss-eps)/(S*-S) when S* > S, the mirrored upper bound when
    S* < S, and a pure feasibility check when the entropies tie.  The result
    is the intersection, clipped to [0, +inf); infeasible constraint sets
    yield an interval flagged empty.
    """
    tgt = estimates[target_index]
    t_lo, t_hi = 0.0, math.inf
    feasible = True
    for j, other in enumerate(estimates):
        if j == target_index:
            continue
        d_loss = tgt.loss_mean - other.loss_mean - epsilon
        d_ent = tgt.entropy_mean - other.entropy_mean
        if d_ent > 0:
            t_lo = max(t_lo, d_loss / d_ent)
        elif d_ent < 0:
            t_hi = min(t_hi, d_loss / d_ent)
        elif d_loss > 0:
            feasible = False
            break
    if not feasible or t_lo > t_hi:
        return TemperatureInterval(tgt.lr, math.nan, math.nan, empty=True)
    return TemperatureInterval(tgt.lr, t_lo, t_hi)


def temperature_intervals_reference(estimates, epsilon: float) -> list[TemperatureInterval]:
    """`temperature_interval_reference` at every target, the first and last flagged bound-only."""
    edges = (0, len(estimates) - 1)
    return [replace(temperature_interval_reference(estimates, i, epsilon), bound_only=i in edges)
            for i in range(len(estimates))]


def select_stationary_range_reference(estimates, baseline_entropy: float, baseline_sigma: float,
                                      lr_range=None):
    """(retained estimates, (lr, reason) exclusions), in two passes.

    The reference for `analysis.select_stationary_range`.  The first pass
    sets aside every estimate without a finite U and S; the second applies
    the lr range, or else the saturation scan and the stabilized flag, to the
    rest alone.  The exclusions of the first pass come last.
    """
    usable = [e for e in estimates if math.isfinite(e.loss_mean) and math.isfinite(e.entropy_mean)]
    kept_idx, exclusions = _select_usable_reference(usable, baseline_entropy, baseline_sigma, lr_range)
    # A finite U with S = -inf is a run that settled on one point: zero temperature.
    collapsed = [math.isfinite(e.loss_mean) and e.entropy_mean == -math.inf for e in estimates]
    exclusions += [(e.lr, "collapsed to a point (S = -inf)" if c else "no stationary estimate")
                   for e, c in zip(estimates, collapsed) if e not in usable]
    return [usable[i] for i in kept_idx], exclusions


def _select_usable_reference(estimates, baseline_entropy, baseline_sigma, lr_range):
    """The second pass of `select_stationary_range_reference`, on finite estimates only."""
    excluded: list[tuple[float, str]] = []
    if lr_range is not None:
        lo, hi = lr_range
        kept = []
        for i, e in enumerate(estimates):
            if lo <= e.lr <= hi:
                kept.append(i)
            else:
                excluded.append((e.lr, "outside configured lr range"))
        return kept, excluded

    saturated_from = len(estimates)
    for i, e in enumerate(estimates):
        sigma = math.sqrt(e.entropy_std**2 + baseline_sigma**2)
        if abs(e.entropy_mean - baseline_entropy) <= sigma:
            saturated_from = i
            break
    kept = []
    for i, e in enumerate(estimates):
        if i >= saturated_from:
            excluded.append((e.lr, "entropy saturated at the uniform-sphere baseline"))
        elif not e.stabilized:
            excluded.append((e.lr, "not stabilized"))
        else:
            kept.append(i)
    return kept, excluded
