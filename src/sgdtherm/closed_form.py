"""Closed-form SNR expressions used as ground truth in property tests.

Two settings admit exact formulas:

* a pair of great-circle losses in 3D whose normals make angles +-alpha
  with the x-axis in the xy-plane (0 < alpha < pi/4), where the squared
  population SNR at a sphere point depends only on (x, y);
* a quadratic ensemble near its shared optimum, where along the ray
  w = optimum + delta * r the SNR depends only on the direction r through
  the component Hessians.

Both are independent of the simulation path and serve as oracles for the
measured gradient statistics.  The scalar closed forms also take broadcastable
arrays and then return an array, each element bit for bit the scalar result;
a value that does not exist (a vanishing denominator) is NaN, not an error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig

_DENOM_FLOOR = 1e-14
# A normalized sphere point can read x^2 + y^2 = 1 + a few ulp.
_SPHERE_SLACK = 1e-12

# The closed forms square arrays with products, not ** 2: a NumPy scalar
# squares through pow, which can round unlike x * x, and each element of an
# array result must equal the scalar result.


def _check_half_angle(half_angle: float) -> None:
    if not 0.0 < half_angle < math.pi / 4:
        raise InvalidConfig(f"half_angle must lie strictly inside (0, pi/4), got {half_angle}")


def two_circle_snr_sq(x, y, half_angle: float) -> float | np.ndarray:
    """Squared SNR of the symmetric two-circle ensemble at a sphere point (x, y, z).

    (x^2 cos^4 a + y^2 sin^4 a - (x^2 cos^2 a + y^2 sin^2 a)^2)
    / (sin^2 a cos^2 a (x^2 + y^2 - 4 x^2 y^2)); independent of z because
    the gradients of scale-invariant losses are tangential.  NaN where the
    denominator vanishes, e.g. at x = y = 0.  A point with x^2 + y^2 > 1 is
    off the sphere and raises InvalidConfig.
    """
    _check_half_angle(half_angle)
    c2 = math.cos(half_angle) ** 2
    s2 = math.sin(half_angle) ** 2
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x2 = x * x
    y2 = y * y
    r2 = x2 + y2
    if np.any(r2 > 1.0 + _SPHERE_SLACK):
        raise InvalidConfig(f"(x, y) must lie on the unit sphere, got x^2 + y^2 = {np.max(r2)}")
    denom = s2 * c2 * (r2 - 4.0 * x2 * y2)
    mixed = x2 * c2 + y2 * s2
    num = x2 * c2 * c2 + y2 * s2 * s2 - mixed * mixed
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(denom) < _DENOM_FLOOR, np.nan, num / denom)[()]


def central_meridian_snr(radial, half_angle: float) -> float | np.ndarray:
    """SNR limit along the central meridian: sqrt(1 - radial^2) * tan(half_angle).

    Strictly positive for radial < 1; the infimum over meridians of the
    small-radial limits, approached from below as radial -> 0.
    """
    _check_half_angle(half_angle)
    radial = np.asarray(radial, dtype=float)
    if not np.all((0.0 <= radial) & (radial <= 1.0)):
        raise InvalidConfig("radial must lie in [0, 1]")
    return (np.sqrt(1.0 - radial * radial) * math.tan(half_angle))[()]


def hessian_ensemble_snr(hessians: np.ndarray, direction: np.ndarray) -> float:
    """SNR of a quadratic ensemble along a unit direction from the optimum.

    ||H r|| / sqrt(E ||H_i r||^2 - ||H r||^2) with H the mean Hessian; the
    displacement magnitude cancels, so this is the delta-independent value of
    the measured SNR at optimum + delta * r.  NaN when the variance term is
    (numerically) zero, e.g. a single component or identical Hessians.
    """
    hessians = np.asarray(hessians, dtype=float)
    r = np.asarray(direction, dtype=float)
    if hessians.ndim != 3 or hessians.shape[1] != hessians.shape[2]:
        raise InvalidConfig("hessians must have shape (M, D, D)")
    if r.shape != (hessians.shape[1],):
        raise InvalidConfig("direction dimension must match the Hessians")
    hr = hessians @ r  # (M, D)
    mean_hr = hr.mean(axis=0)
    mean_sq = float(np.einsum("md,md->", hr, hr) / hr.shape[0])
    full_sq = float(mean_hr @ mean_hr)
    variance = mean_sq - full_sq
    if variance < _DENOM_FLOOR:
        return math.nan
    return math.sqrt(full_sq) / math.sqrt(variance)


def factorization_residual(sin_sq_azimuth, sin_sq_half_angle) -> float | np.ndarray:
    """Residual of the polynomial identity behind the radial SNR monotonicity.

    With S = sin^2(azimuth), R = sin^2(half_angle), 0 <= S <= R < 1/2, and

        M = S (1-R)^2 + (1-S) R^2
        P = (S (1-R) + (1-S) R)^2
        Q = 4 S (1-S)

    the identity M*Q - P = (S - R) (8 R S^2 - 8 R S + R - 4 S^2 + 3 S) holds;
    the returned residual (left minus right) should vanish to rounding.
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
    factored = (s - r) * (8.0 * r * s * s - 8.0 * r * s + r - 4.0 * s * s + 3.0 * s)
    return ((m * q - p) - factored)[()]
