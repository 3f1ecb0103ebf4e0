import numpy as np
import pytest

import oracles
import sgdtherm as st
from sgdtherm.errors import InvalidConfig, ZeroVector


def fibonacci_sphere(n):
    """Quasi-uniform grid on the 2-sphere for dense landscape scans."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = np.pi * (1 + 5**0.5) * i
    return np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
    )


class TestCircleLoss:
    def test_zero_on_the_circle(self, toy_op):
        assert oracles.circle_loss(toy_op.normals[0], np.array([0.0, 0.0, 1.0])) == 0.0

    def test_hand_value(self, toy_op):
        # (cos(pi/6))^2 / 2 = 3/8 at w = (1, 0, 0)
        np.testing.assert_allclose(
            oracles.circle_loss(toy_op.normals[0], np.array([1.0, 0.0, 0.0])), 0.375, rtol=1e-15
        )

    def test_scale_invariance_exact_for_powers_of_two(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = st.project_to_sphere(rng.standard_normal(3))
            w = rng.standard_normal(3)
            base = oracles.circle_loss(n, w)
            assert oracles.circle_loss(n, 2.0 * w) == base
            assert oracles.circle_loss(n, 0.5 * w) == base

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = st.project_to_sphere(rng.standard_normal(3))
            w = rng.standard_normal(3)
            c = rng.uniform(0.1, 10)
            np.testing.assert_allclose(
                oracles.circle_loss(n, c * w), oracles.circle_loss(n, w), rtol=1e-12
            )

    def test_origin_rejected(self):
        with pytest.raises(ZeroVector):
            oracles.circle_loss(np.array([1.0, 0, 0]), np.zeros(3))


class TestCircleGrad:
    def test_zero_at_op_optimum(self, toy_op):
        for n in toy_op.normals:
            np.testing.assert_array_equal(
                oracles.circle_grad(n, np.array([0.0, 0.0, 1.0])), np.zeros(3)
            )

    def test_hand_value(self, toy_op):
        # a = cos(pi/6); a*n - a^2*w = (0, sqrt(3)/4, 0) at w = (1, 0, 0)
        grad = oracles.circle_grad(toy_op.normals[0], np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(grad, [0.0, np.sqrt(3) / 4, 0.0], atol=1e-16)

    def test_tangency(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = st.project_to_sphere(rng.standard_normal(3))
            w = st.project_to_sphere(rng.standard_normal(3))
            assert abs(oracles.circle_grad(n, w) @ w) < 1e-12


class TestToyEnsembles:
    def test_op_normals(self, toy_op):
        assert len(toy_op) == 2
        np.testing.assert_allclose(np.linalg.norm(toy_op.normals, axis=1), 1.0, atol=1e-15)
        np.testing.assert_array_equal(toy_op.normals[:, 2], [0.0, 0.0])
        np.testing.assert_allclose(toy_op.normals[0], [np.sqrt(3) / 2, 0.5, 0.0], atol=0)

    def test_op_full_loss_zero_at_poles(self, toy_op):
        assert toy_op.full_loss(np.array([0.0, 0.0, 1.0])) == 0.0
        assert toy_op.full_loss(np.array([0.0, 0.0, -1.0])) == 0.0

    def test_up_normals_unit_with_equal_pairwise_angles(self, toy_up):
        assert len(toy_up) == 3
        np.testing.assert_allclose(np.linalg.norm(toy_up.normals, axis=1), 1.0, atol=1e-15)
        cos01 = toy_up.normals[0] @ toy_up.normals[1]
        cos12 = toy_up.normals[1] @ toy_up.normals[2]
        cos02 = toy_up.normals[0] @ toy_up.normals[2]
        np.testing.assert_allclose([cos01, cos02], cos12, rtol=1e-14)

    def test_up_loss_strictly_positive_everywhere(self, toy_up):
        grid = fibonacci_sphere(20_000)
        losses = np.array([toy_up.full_loss(w) for w in grid])
        assert losses.min() > 1e-4

    def test_regimes(self, toy_op, toy_up):
        assert toy_op.regime == "OP"
        assert toy_up.regime == "UP"


class TestHyperplaneEnsemble:
    def test_orthogonal_point_gives_zero(self):
        ens = st.random_hyperplane_ensemble(5, 3, seed=0)
        a = ens.normals[0]
        w = np.zeros(5)
        w[np.argmin(np.abs(a))] = 1.0
        w = st.project_to_sphere(w - (a @ w) * a)  # force orthogonality to a
        loss, grad = oracles.hyperplane_loss_and_grad(ens, 0, w)
        assert loss < 1e-30
        np.testing.assert_allclose(grad, np.zeros(5), atol=1e-15)

    def test_at_own_normal(self):
        """w = a_i is the component maximum: loss 1/2 and zero gradient (a - w = 0)."""
        ens = st.random_hyperplane_ensemble(6, 4, seed=1)
        w = ens.normals[2]
        loss, grad = oracles.hyperplane_loss_and_grad(ens, 2, w)
        np.testing.assert_allclose(loss, 0.5, rtol=1e-14)
        np.testing.assert_allclose(grad, np.zeros(6), atol=1e-14)

    def test_reduces_to_circle_functions_in_3d(self, toy_up):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = st.project_to_sphere(rng.standard_normal(3))
            for i in range(3):
                loss, grad = oracles.hyperplane_loss_and_grad(toy_up, i, w)
                assert loss == oracles.circle_loss(toy_up.normals[i], w)
                np.testing.assert_array_equal(grad, oracles.circle_grad(toy_up.normals[i], w))

    def test_index_out_of_range(self, toy_op):
        with pytest.raises(IndexError):
            oracles.hyperplane_loss_and_grad(toy_op, 2, np.array([1.0, 0, 0]))

    def test_regime_matches_rank(self):
        op = st.random_hyperplane_ensemble(12, 5, seed=2)
        up = st.random_hyperplane_ensemble(5, 12, seed=2)
        assert op.regime == "OP" and np.linalg.matrix_rank(op.normals) < 12
        assert up.regime == "UP" and np.linalg.matrix_rank(up.normals) == 5

    def test_full_grad_is_exact_mean_of_components(self):
        ens = st.random_hyperplane_ensemble(7, 9, seed=3)
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = st.project_to_sphere(rng.standard_normal(7))
            np.testing.assert_array_equal(
                oracles.full_grad(ens, w), ens.component_grads(w).mean(axis=0)
            )

    def test_gradient_tangency(self):
        ens = st.random_hyperplane_ensemble(9, 14, seed=4)
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = st.project_to_sphere(rng.standard_normal(9))
            assert np.all(np.abs(ens.component_grads(w) @ w) < 1e-12)

    def test_batch_grad_matches_component_mean(self):
        ens = st.random_hyperplane_ensemble(6, 10, seed=5)
        rng = np.random.default_rng(9)
        w = st.project_to_sphere(rng.standard_normal(6))
        idx = np.array([1, 4, 7])
        np.testing.assert_allclose(
            ens.batch_grad(idx, w), ens.component_grads(w)[idx].mean(axis=0), atol=1e-16
        )

    def test_unit_norm_validation(self):
        with pytest.raises(InvalidConfig):
            st.HyperplaneEnsemble(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestQuadraticEnsemble:
    def test_stationary_at_optimum(self):
        ens = st.random_quadratic_ensemble(4, 3, seed=0)
        loss, grad = oracles.quadratic_loss_and_grad(ens, 1, ens.optimum)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_identity_hessian(self):
        ens = st.QuadraticEnsemble(optimum=np.zeros(3), hessians=np.eye(3)[None, :, :])
        r = st.project_to_sphere(np.array([1.0, 2.0, 2.0]))
        loss, grad = oracles.quadratic_loss_and_grad(ens, 0, r)
        np.testing.assert_allclose(loss, 0.5, rtol=1e-15)
        np.testing.assert_allclose(grad, r, rtol=1e-15)

    def test_all_stochastic_gradients_vanish_at_shared_optimum(self):
        """A shared optimum: the interpolation property."""
        ens = st.random_quadratic_ensemble(5, 6, seed=1)
        grads = ens.component_grads(ens.optimum)
        np.testing.assert_array_equal(grads, np.zeros((6, 5)))
        assert oracles.quadratic_full_loss(ens, ens.optimum) == 0.0

    def test_full_hessian_is_component_mean(self):
        ens = st.random_quadratic_ensemble(4, 5, seed=2)
        np.testing.assert_array_equal(oracles.full_hessian(ens), ens.hessians.mean(axis=0))

    def test_psd_admits_degenerate_directions(self):
        """Rank-1 components are allowed; shared nullspace gives zero loss change."""
        h = np.zeros((2, 3, 3))
        h[0, 0, 0] = 1.0
        h[1, 1, 1] = 1.0
        ens = st.QuadraticEnsemble(optimum=np.zeros(3), hessians=h)
        z = np.array([0.0, 0.0, 1.0])
        assert oracles.quadratic_full_loss(ens, z) == 0.0
        np.testing.assert_array_equal(oracles.full_grad(ens, z), np.zeros(3))

    def test_index_out_of_range(self):
        ens = st.random_quadratic_ensemble(3, 2, seed=3)
        with pytest.raises(IndexError):
            oracles.quadratic_loss_and_grad(ens, -1, np.zeros(3))

    def test_full_grad_is_exact_mean_of_components(self):
        ens = st.random_quadratic_ensemble(5, 7, seed=4)
        rng = np.random.default_rng(10)
        for _ in range(10):
            w = rng.standard_normal(5)
            np.testing.assert_array_equal(
                oracles.full_grad(ens, w), ens.component_grads(w).mean(axis=0)
            )


class TestCirclePair:
    def test_matches_toy_op_at_pi_sixth(self, toy_op):
        pair = st.make_circle_pair(np.pi / 6)
        np.testing.assert_allclose(pair.normals, toy_op.normals, atol=1e-15)
