import math

import numpy as np
import pytest

import oracles
import sgdtherm as st
from sgdtherm.errors import InvalidConfig


class TestTwoCircleSnrSq:
    def test_central_meridian_point(self):
        """x=0, y=0.6: (1 - 0.36) * tan^2(pi/6) = 0.64/3."""
        np.testing.assert_allclose(
            st.two_circle_snr_sq(0.0, 0.6, math.pi / 6), 0.64 / 3, rtol=1e-14
        )

    def test_equator_x_axis_is_zero(self):
        for alpha in (0.2, math.pi / 6, 0.7):
            np.testing.assert_allclose(st.two_circle_snr_sq(1.0, 0.0, alpha), 0.0, atol=1e-15)

    def test_degenerate_denominator(self):
        assert math.isnan(st.two_circle_snr_sq(0.0, 0.0, math.pi / 6))

    def test_off_sphere_point_rejected(self):
        with pytest.raises(InvalidConfig, match="must lie on the unit sphere"):
            st.two_circle_snr_sq(0.9, 0.9, math.pi / 6)
        with pytest.raises(InvalidConfig, match="must lie on the unit sphere"):
            st.two_circle_snr_sq(np.array([0.0, 0.9, 0.6]), np.array([0.6, 0.9, 0.0]), math.pi / 6)

    def test_points_on_the_unit_circle_accepted(self):
        """(1, 0) and a normalized point whose x^2 + y^2 reads a few ulp above 1."""
        assert st.two_circle_snr_sq(1.0, 0.0, math.pi / 6) == 0.0
        x = math.nextafter(1.0, 2.0)
        assert x * x > 1.0
        assert math.isfinite(st.two_circle_snr_sq(x, 0.0, math.pi / 6))
        assert np.isfinite(st.two_circle_snr_sq(np.array([x, 0.6]), np.array([0.0, 0.8]), math.pi / 6)).all()

    def test_half_angle_domain(self):
        with pytest.raises(InvalidConfig, match="half_angle must lie strictly inside"):
            st.two_circle_snr_sq(0.1, 0.2, math.pi / 4)

    def test_matches_measured_snr_on_random_sphere_points(self, toy_op):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(1000):
            w = st.project_to_sphere(rng.standard_normal(3))
            stats = st.gradient_stats(toy_op, w)
            if math.isnan(stats.snr):
                continue
            oracle = st.two_circle_snr_sq(w[0], w[1], math.pi / 6)
            assert abs(stats.snr**2 - oracle) < 1e-10
            checked += 1
        assert checked >= 990

    def test_measured_snr_independent_of_z_sign(self, toy_op):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, y = rng.uniform(-0.6, 0.6, size=2)
            z = math.sqrt(max(1.0 - x * x - y * y, 0.0))
            if z < 0.05:
                continue
            up = st.gradient_stats(toy_op, np.array([x, y, z])).snr
            down = st.gradient_stats(toy_op, np.array([x, y, -z])).snr
            assert abs(up - down) < 1e-10


class TestMeridianSnrLimit:
    def test_small_radius_limit(self):
        np.testing.assert_allclose(
            st.central_meridian_snr(1e-12, math.pi / 6), math.tan(math.pi / 6), rtol=1e-12
        )
        np.testing.assert_allclose(math.tan(math.pi / 6), 1 / math.sqrt(3), rtol=1e-15)

    def test_boundary_radius(self):
        assert st.central_meridian_snr(1.0, math.pi / 6) == 0.0

    def test_consistent_with_full_formula(self):
        for r in np.linspace(0.05, 0.95, 19):
            direct = st.central_meridian_snr(r, math.pi / 6)
            via_formula = math.sqrt(st.two_circle_snr_sq(0.0, r, math.pi / 6))
            assert abs(direct - via_formula) < 1e-12


class TestAzimuthalMinimum:
    @pytest.mark.parametrize("alpha", [math.pi / 12, math.pi / 6, math.pi / 5])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_minimum_at_central_meridian(self, alpha, r):
        grid = np.linspace(-alpha, alpha, 2 * round(alpha / 1e-3) + 1)
        vals = np.array([oracles.two_circle_snr_sq_polar(r, p, alpha) for p in grid])
        center = grid.size // 2
        assert grid[center] == 0.0
        assert np.argmin(vals) == center


class TestRadialMonotonicity:
    @pytest.mark.parametrize("alpha", [math.pi / 12, math.pi / 6, math.pi / 5])
    def test_nonincreasing_in_squared_radius(self, alpha):
        for phi in (0.0, alpha / 2, 0.99 * alpha):
            radii = np.sqrt(np.linspace(1e-4, 0.9999, 1000))
            vals = np.array([oracles.two_circle_snr_sq_polar(r, phi, alpha) for r in radii])
            assert np.all(np.diff(vals) < 1e-12)

    def test_limit_approached_from_below(self):
        alpha = math.pi / 6
        limit = math.tan(alpha) ** 2
        for r in (0.3, 0.1, 0.01):
            assert oracles.two_circle_snr_sq_polar(r, 0.0, alpha) < limit


class TestHessianEnsembleSnr:
    def test_identical_hessians_undefined(self):
        h = np.stack([np.eye(3), np.eye(3)])
        assert math.isnan(st.hessian_ensemble_snr(h, np.array([1.0, 0.0, 0.0])))

    def test_hand_example(self):
        """diag(1,0), diag(0,1) at r=(1,0): 0.5 / sqrt(0.5 - 0.25) = 1."""
        h = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        np.testing.assert_allclose(
            st.hessian_ensemble_snr(h, np.array([1.0, 0.0])), 1.0, rtol=1e-15
        )

    def test_matches_measured_snr_at_any_displacement(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            d = int(rng.integers(2, 11))
            m = int(rng.integers(2, 9))
            ens = st.random_quadratic_ensemble(d, m, seed=trial)
            r = st.project_to_sphere(rng.standard_normal(d))
            closed = st.hessian_ensemble_snr(ens.hessians, r)
            if math.isnan(closed):
                continue
            for delta in (1e-1, 1e-3, 1e-6):
                stats = st.gradient_stats(ens, ens.optimum + delta * r)
                assert abs(stats.snr - closed) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidConfig, match="direction dimension must match"):
            st.hessian_ensemble_snr(np.zeros((2, 3, 3)), np.zeros(4))


class TestFactorizationResidual:
    def test_zero_on_the_diagonal(self):
        assert st.factorization_residual(0.3, 0.3) == 0.0
        assert st.factorization_residual(0.0, 0.0) == 0.0

    def test_tiny_over_random_domain(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10_000):
            r = rng.uniform(0.0, 0.4999)
            s = rng.uniform(0.0, r)
            worst = max(worst, abs(st.factorization_residual(s, r)))
        assert worst < 1e-12

    def test_domain_enforced(self):
        with pytest.raises(InvalidConfig, match="need 0 <= S <= R < 1/2"):
            st.factorization_residual(0.4, 0.3)  # S > R
        with pytest.raises(InvalidConfig, match="need 0 <= S <= R < 1/2"):
            st.factorization_residual(0.1, 0.6)  # R >= 1/2

    def test_perturbation_hook_breaks_identity(self):
        """The negative control's residual is the package's at shift 0, and breaks at 1e-6."""
        assert oracles.factorization_residual_shifted(0.1, 0.3, 0.0) == st.factorization_residual(0.1, 0.3)
        assert abs(oracles.factorization_residual_shifted(0.1, 0.3)) > 1e-12


class TestPolarParams:
    def test_domain_validation(self):
        with pytest.raises(InvalidConfig, match="half_angle must lie strictly inside"):
            oracles.PolarParams(half_angle=math.pi / 3, radial=0.5, azimuth=0.0)
        with pytest.raises(InvalidConfig, match="radial must lie in"):
            oracles.PolarParams(half_angle=math.pi / 6, radial=0.0, azimuth=0.0)
        with pytest.raises(InvalidConfig, match="azimuth must lie in"):
            oracles.PolarParams(half_angle=math.pi / 6, radial=0.5, azimuth=1.0)

    def test_xy_conversion(self):
        p = oracles.PolarParams(half_angle=math.pi / 6, radial=0.6, azimuth=0.0)
        assert p.to_xy() == (0.0, 0.6)


class TestArrayArguments:
    """Each closed form on arrays equals its scalar calls element by element, bit for bit."""

    def test_two_circle_on_a_grid(self):
        xs = np.linspace(-0.7, 0.7, 15)
        ys = np.linspace(-0.7, 0.7, 15)[:, None]  # holds 0, so the grid holds x = y = 0
        for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
            got = st.two_circle_snr_sq(xs, ys, alpha)
            assert got.shape == (15, 15)
            want = np.array([[st.two_circle_snr_sq(x, y, alpha) for x in xs] for y in ys[:, 0]])
            np.testing.assert_array_equal(got, want)
            assert math.isnan(got[7, 7])

    def test_two_circle_on_random_sphere_points(self):
        w = np.random.default_rng(4).standard_normal((1000, 3))
        w /= np.sqrt(np.vecdot(w, w))[:, None]
        got = st.two_circle_snr_sq(w[:, 0], w[:, 1], math.pi / 6)
        want = [st.two_circle_snr_sq(x, y, math.pi / 6) for x, y in w[:, :2]]
        assert (got == want).all()

    def test_scalar_call_returns_a_float(self):
        assert isinstance(st.two_circle_snr_sq(0.1, 0.2, math.pi / 6), float)
        assert isinstance(st.central_meridian_snr(0.5, math.pi / 6), float)
        assert isinstance(st.factorization_residual(0.1, 0.3), float)

    def test_central_meridian(self):
        radii = np.linspace(0.0, 1.0, 101).reshape(101, 1) * np.ones(3)
        got = st.central_meridian_snr(radii, math.pi / 6)
        assert got.shape == (101, 3)
        assert (got == np.array([[st.central_meridian_snr(r, math.pi / 6) for r in row]
                                 for row in radii])).all()
        with pytest.raises(InvalidConfig, match="radial must lie in"):
            st.central_meridian_snr(np.array([0.5, 1.5]), math.pi / 6)

    def test_factorization_residual(self):
        u = np.random.default_rng(3).random((2000, 2))
        r = 0.4999 * u[:, 0]
        s = r * u[:, 1]
        got = st.factorization_residual(s, r)
        assert (got == [st.factorization_residual(a, b) for a, b in zip(s, r)]).all()
        grid = st.factorization_residual(np.array([0.0, 0.1, 0.2]), np.array([[0.2], [0.3]]))
        assert grid.shape == (2, 3)
        assert grid[0, 2] == 0.0
        with pytest.raises(InvalidConfig, match="need 0 <= S <= R < 1/2"):
            st.factorization_residual(np.array([0.1, 0.4]), 0.3)

    def test_negative_control_on_arrays(self):
        s, r = np.array([0.0, 0.1, 0.2]), np.array([0.2, 0.3, 0.4])
        np.testing.assert_array_equal(oracles.factorization_residual_shifted(s, r, 0.0),
                                      st.factorization_residual(s, r))
        assert (np.abs(oracles.factorization_residual_shifted(s[1:], r[1:])) > 1e-12).all()
