import math

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
        assert stats.full_grad_norm == 1.0
        assert math.isnan(stats.snr)

    def test_undefined_row_of_a_stack(self):
        """Only the row whose components coincide has a NaN SNR, and no warning is raised."""
        grads = np.array([[[1.0, 2.0], [-1.0, -2.0]], [[1.0, 0.0], [1.0, 0.0]]])
        stats = st.snr_from_gradients(grads)
        np.testing.assert_array_equal(stats.full_grad_norm, [0.0, 1.0])
        np.testing.assert_array_equal(stats.snr, [0.0, np.nan])

    def test_central_meridian_value(self, toy_op):
        """At (0, 0.6, 0.8): snr^2 = (1 - 0.36) * tan^2(pi/6) = 0.64/3."""
        stats = st.gradient_stats(toy_op, np.array([0.0, 0.6, 0.8]))
        np.testing.assert_allclose(stats.snr**2, 0.64 / 3, rtol=1e-12)
        np.testing.assert_allclose(stats.snr, 0.46188021535170054, rtol=1e-12)

    def test_variance_identity(self):
        """The SNR's mean squared deviation equals E||g||^2 - ||mean g||^2, per row of a stack."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            grads = rng.standard_normal((rng.integers(1, 6), rng.integers(2, 12), rng.integers(2, 9)))
            stats = st.snr_from_gradients(grads)
            direct = np.mean(np.sum(grads**2, axis=-1), axis=-1) - np.sum(grads.mean(axis=-2) ** 2, axis=-1)
            np.testing.assert_allclose((stats.full_grad_norm / stats.snr) ** 2, direct, rtol=0, atol=1e-10)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        grads = rng.standard_normal((3, 6, 4))
        base = st.snr_from_gradients(grads).snr
        np.testing.assert_array_equal(st.snr_from_gradients(2.0 * grads).snr, base)
        np.testing.assert_array_equal(st.snr_from_gradients(0.25 * grads).snr, base)
        np.testing.assert_allclose(st.snr_from_gradients(3.1 * grads).snr, base, rtol=1e-12)

    def test_up_toy_at_its_minimizer(self, toy_up):
        """Full gradient vanishes at the pole while stochastic gradients do not."""
        stats = st.gradient_stats(toy_up, np.array([0.0, 0.0, 1.0]))
        assert stats.full_grad_norm < 1e-10
        assert stats.mean_stoch_norm > 0.1
        assert stats.snr < 1e-9

    def test_op_toy_at_its_minimizer_undefined(self, toy_op):
        stats = st.gradient_stats(toy_op, np.array([0.0, 0.0, 1.0]))
        assert math.isnan(stats.snr)
        assert stats.mean_stoch_norm == 0.0


def _stack(ensemble, size, seed):
    """`size` uniform sphere points of the ensemble's dimension; on toy_op the middle one is a pole."""
    w = np.random.default_rng(seed).standard_normal((size, ensemble.dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    if ensemble.regime == "OP":
        w[size // 2] = [0.0, 0.0, 1.0]
    return w


class TestStackedRows:
    """On an (L, D) stack, each row of the result is bit for bit the (D,) call on that row."""

    @pytest.mark.parametrize("size", [1, 5, 28])
    @pytest.mark.parametrize("make", [
        st.make_toy_up, st.make_toy_op, lambda: st.random_hyperplane_ensemble(10, 30, 11),
    ], ids=["toy_up", "toy_op", "d10_m30"])
    def test_rows_equal_single_calls(self, make, size):
        ens = make()
        w = _stack(ens, size, seed=size)
        grads, stats = ens.component_grads(w), st.gradient_stats(ens, w)
        assert grads.shape == (size, len(ens), ens.dim)
        for i in range(size):
            one = st.gradient_stats(ens, w[i])
            np.testing.assert_array_equal(grads[i], ens.component_grads(w[i]))
            for field in ("full_grad_norm", "mean_stoch_norm", "snr"):
                assert isinstance(getattr(one, field), float)
                np.testing.assert_array_equal(getattr(stats, field)[i], getattr(one, field))
        at_pole = (np.arange(size) == size // 2) & (ens.regime == "OP")
        np.testing.assert_array_equal(np.isnan(stats.snr), at_pole)

    def test_quadratic_rows_equal_single_calls(self):
        ens = st.random_quadratic_ensemble(6, 4, seed=3)
        w = np.random.default_rng(4).standard_normal((5, 6))
        grads, stats = ens.component_grads(w), st.gradient_stats(ens, w)
        for i in range(5):
            np.testing.assert_array_equal(grads[i], ens.component_grads(w[i]))
            np.testing.assert_array_equal(stats.snr[i], st.gradient_stats(ens, w[i]).snr)


class TestSnrTwoComponent:
    def test_orthogonal_equal_norm(self):
        assert oracles.snr_two_component(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_opposite_gradients(self):
        assert oracles.snr_two_component(np.array([2.0, 1.0]), np.array([-2.0, -1.0])) == 0.0

    def test_equal_gradients_undefined(self):
        g = np.array([0.3, -0.4])
        assert math.isnan(oracles.snr_two_component(g, g.copy()))

    def test_matches_population_stats_on_two_components(self):
        pairs = np.random.default_rng(2).standard_normal((200, 2, 5))
        full = st.snr_from_gradients(pairs).snr
        for (g1, g2), snr in zip(pairs, full):
            assert abs(oracles.snr_two_component(g1, g2) - snr) < 1e-12

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
