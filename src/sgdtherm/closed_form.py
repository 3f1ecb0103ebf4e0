"""Closed-form SNR expressions used as ground truth in property tests.

Two settings admit exact formulas:

* a pair of great-circle losses in 3D whose normals make angles +-alpha
  with the x-axis in the xy-plane (0 < alpha < pi/4), where the squared
  population SNR at a sphere point depends only on (x, y);
* a quadratic ensemble near its shared optimum, where along the ray
  w = optimum + delta * r the SNR depends only on the direction r through
  the component Hessians.

Both are independent of the simulation path and serve as oracles for the
measured gradient statistics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePoint, InvalidConfig

_DENOM_FLOOR = 1e-14


def _check_half_angle(half_angle: float) -> None:
    if not 0.0 < half_angle < math.pi / 4:
        raise InvalidConfig(f"half_angle must lie strictly inside (0, pi/4), got {half_angle}")


def two_circle_snr_sq(x: float, y: float, half_angle: float) -> float:
    """Squared SNR of the symmetric two-circle ensemble at a sphere point (x, y, z).

    (x^2 cos^4 a + y^2 sin^4 a - (x^2 cos^2 a + y^2 sin^2 a)^2)
    / (sin^2 a cos^2 a (x^2 + y^2 - 4 x^2 y^2)); independent of z because
    the gradients of scale-invariant losses are tangential.
    """
    _check_half_angle(half_angle)
    c2 = math.cos(half_angle) ** 2
    s2 = math.sin(half_angle) ** 2
    x2 = x * x
    y2 = y * y
    denom = s2 * c2 * (x2 + y2 - 4.0 * x2 * y2)
    if abs(denom) < _DENOM_FLOOR:
        raise DegeneratePoint(f"SNR denominator vanishes at (x={x}, y={y})")
    num = x2 * c2 * c2 + y2 * s2 * s2 - (x2 * c2 + y2 * s2) ** 2
    return num / denom


def central_meridian_snr(radial: float, half_angle: float) -> float:
    """SNR limit along the central meridian: sqrt(1 - radial^2) * tan(half_angle).

    Strictly positive for radial < 1; the infimum over meridians of the
    small-radial limits, approached from below as radial -> 0.
    """
    _check_half_angle(half_angle)
    if not 0.0 <= radial <= 1.0:
        raise InvalidConfig("radial must lie in [0, 1]")
    return math.sqrt(1.0 - radial * radial) * math.tan(half_angle)


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


def factorization_residual(sin_sq_azimuth: float, sin_sq_half_angle: float) -> float:
    """Residual of the polynomial identity behind the radial SNR monotonicity.

    With S = sin^2(azimuth), R = sin^2(half_angle), 0 <= S <= R < 1/2, and

        M = S (1-R)^2 + (1-S) R^2
        P = (S (1-R) + (1-S) R)^2
        Q = 4 S (1-S)

    the identity M*Q - P = (S - R) (8 R S^2 - 8 R S + R - 4 S^2 + 3 S) holds;
    the returned residual (left minus right) should vanish to rounding.
    """
    s = float(sin_sq_azimuth)
    r = float(sin_sq_half_angle)
    if not (0.0 <= s <= r < 0.5):
        raise InvalidConfig(f"need 0 <= S <= R < 1/2, got S={s}, R={r}")
    m = s * (1.0 - r) ** 2 + (1.0 - s) * r * r
    p = (s * (1.0 - r) + (1.0 - s) * r) ** 2
    q = 4.0 * s * (1.0 - s)
    factored = (s - r) * (8.0 * r * s * s - 8.0 * r * s + r - 4.0 * s * s + 3.0 * s)
    return (m * q - p) - factored
