import numpy as np
import pytest

import oracles
import sgdtherm as st
from sgdtherm.errors import InvalidConfig


class TestGradientStats:
    def test_antisymmetric_pair_gives_zero_snr(self):
        stats = st.snr_from_gradients(np.array([[1.0, 2.0], [-1.0, -2.0]]))
        assert stats.full_grad_norm == 0.0
        assert stats.snr == 0.0
        assert stats.mean_stoch_norm > 0

    def test_identical_components_undefined(self):
        stats = st.snr_from_gradients(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        assert stats.mean_sq_deviation == 0.0
        assert stats.snr is None

    def test_central_meridian_value(self, toy_op):
        """At (0, 0.6, 0.8): snr^2 = (1 - 0.36) * tan^2(pi/6) = 0.64/3."""
        stats = st.gradient_stats(toy_op, np.array([0.0, 0.6, 0.8]))
        np.testing.assert_allclose(stats.snr**2, 0.64 / 3, rtol=1e-12)
        np.testing.assert_allclose(stats.snr, 0.46188021535170054, rtol=1e-12)

    def test_variance_identity(self):
        """mean squared deviation equals E||g||^2 - ||mean g||^2."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            grads = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 9)))
            stats = st.snr_from_gradients(grads)
            direct = np.mean(np.sum(grads**2, axis=1)) - np.sum(grads.mean(axis=0) ** 2)
            assert abs(stats.mean_sq_deviation - direct) < 1e-10

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        grads = rng.standard_normal((6, 4))
        base = st.snr_from_gradients(grads).snr
        assert st.snr_from_gradients(2.0 * grads).snr == base
        assert st.snr_from_gradients(0.25 * grads).snr == base
        np.testing.assert_allclose(st.snr_from_gradients(3.1 * grads).snr, base, rtol=1e-12)

    def test_up_toy_at_its_minimizer(self, toy_up):
        """Full gradient vanishes at the pole while stochastic gradients do not."""
        stats = st.gradient_stats(toy_up, np.array([0.0, 0.0, 1.0]))
        assert stats.full_grad_norm < 1e-10
        assert stats.mean_stoch_norm > 0.1
        assert stats.snr is not None and stats.snr < 1e-9

    def test_op_toy_at_its_minimizer_undefined(self, toy_op):
        stats = st.gradient_stats(toy_op, np.array([0.0, 0.0, 1.0]))
        assert stats.snr is None
        assert stats.mean_stoch_norm == 0.0


class TestSnrTwoComponent:
    def test_orthogonal_equal_norm(self):
        assert oracles.snr_two_component(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_opposite_gradients(self):
        assert oracles.snr_two_component(np.array([2.0, 1.0]), np.array([-2.0, -1.0])) == 0.0

    def test_equal_gradients_undefined(self):
        g = np.array([0.3, -0.4])
        assert oracles.snr_two_component(g, g.copy()) is None

    def test_matches_population_stats_on_two_components(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g1, g2 = rng.standard_normal((2, 5))
            two = oracles.snr_two_component(g1, g2)
            full = st.snr_from_gradients(np.stack([g1, g2])).snr
            assert abs(two - full) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidConfig, match=r"shapes \(2,\) and \(3,\) differ"):
            oracles.snr_two_component(np.zeros(2), np.zeros(3))


class TestQuadraticRatios:
    def test_component_to_full_ratio_is_displacement_free(self):
        """||H_i r|| / ||H r|| is the same for every displacement delta > 0."""
        ens = st.random_quadratic_ensemble(6, 4, seed=3)
        rng = np.random.default_rng(4)
        r = st.project_to_sphere(rng.standard_normal(6))
        h_full = oracles.full_hessian(ens)
        expected = np.linalg.norm(ens.hessians[2] @ r) / np.linalg.norm(h_full @ r)
        for delta in (1e-1, 1e-3, 1e-6):
            w = ens.optimum + delta * r
            _, gi = oracles.quadratic_loss_and_grad(ens, 2, w)
            gfull = oracles.full_grad(ens, w)
            ratio = np.linalg.norm(gi) / np.linalg.norm(gfull)
            np.testing.assert_allclose(ratio, expected, rtol=1e-10)

    def test_snr_delta_independent(self):
        ens = st.random_quadratic_ensemble(5, 4, seed=5)
        rng = np.random.default_rng(6)
        r = st.project_to_sphere(rng.standard_normal(5))
        values = [st.gradient_stats(ens, ens.optimum + d * r).snr for d in (1e-1, 1e-3, 1e-6)]
        assert max(values) - min(values) < 1e-10
