from dataclasses import fields

import numpy as np
import pytest

import oracles
import sgdtherm as st
from sgdtherm.errors import InvalidConfig, ZeroVector


class TestProjectToSphere:
    def test_direct_normalization(self):
        np.testing.assert_allclose(
            st.project_to_sphere(np.array([3.0, 4.0, 0.0])), [0.6, 0.8, 0.0], rtol=0, atol=0
        )

    def test_identity_on_unit_vector(self):
        w = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(st.project_to_sphere(w), w)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(7)
        once = st.project_to_sphere(v)
        twice = st.project_to_sphere(once)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-16)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            st.project_to_sphere(np.zeros(3))

    def test_dimension_floor(self):
        with pytest.raises(InvalidConfig, match="expected a vector of dimension >= 2"):
            st.project_to_sphere(np.array([2.0]))


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        w = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(oracles.sgd_step(w, np.zeros(3), 0.5), w)

    def test_direct_arithmetic(self):
        out = oracles.sgd_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [0.70710678, -0.70710678], atol=1e-8)

    def test_zero_result_propagates(self):
        with pytest.raises(ZeroVector):
            oracles.sgd_step(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)

    def test_op_toy_optimum_is_fixed(self, toy_op):
        """At the pole the component gradients a*(da) - a^2*w vanish exactly."""
        w = np.array([0.0, 0.0, 1.0])
        for normal in toy_op.normals:
            a = normal @ w
            grad = a * normal - (a * a) * w  # gradient formula, evaluated directly
            assert a == 0.0
            np.testing.assert_array_equal(grad, np.zeros(3))
        np.testing.assert_array_equal(oracles.sgd_step(w, oracles.full_grad(toy_op, w), 4.8e-3), w)


class TestSampleBatch:
    def test_exhaustive_batch(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert set(st.sample_batch(2, 2, rng, 1)[0]) == {0, 1}

    def test_deterministic_given_seed(self):
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        seq1 = [st.sample_batch(5, 2, rng1, 1)[0].tolist() for _ in range(20)]
        seq2 = [st.sample_batch(5, 2, rng2, 1)[0].tolist() for _ in range(20)]
        assert seq1 == seq2
        singles1 = [int(st.sample_batch(3, 1, np.random.default_rng(42), 1)[0, 0]) for _ in range(3)]
        assert len(set(singles1)) == 1  # same seed, same draw

    def test_batch_too_large(self):
        with pytest.raises(InvalidConfig, match="batch_size 4 > ensemble size 3"):
            st.sample_batch(3, 4, np.random.default_rng(0), 1)

    def test_indices_distinct(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            idx = st.sample_batch(10, 4, rng, 1)[0]
            assert len(set(idx.tolist())) == 4

    def test_uniform_frequencies(self):
        """Each index frequency over 1e5 single draws within 3 binomial sigmas of 1/3."""
        rng = np.random.default_rng(2024)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[st.sample_batch(3, 1, rng, 1)[0, 0]] += 1
        sigma = np.sqrt(n * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - n / 3) < 3 * sigma)

    def test_uniform_pairs_without_replacement(self):
        """All 2-subsets of 4 equally likely within 3 sigma."""
        rng = np.random.default_rng(5)
        n = 30_000
        counts = {}
        for _ in range(n):
            key = tuple(sorted(st.sample_batch(4, 2, rng, 1)[0].tolist()))
            counts[key] = counts.get(key, 0) + 1
        p = 1 / 6
        sigma = np.sqrt(n * p * (1 - p))
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - n * p) < 3 * sigma


class TestCheckpointSchedule:
    def test_single_iteration(self):
        np.testing.assert_array_equal(st.checkpoint_schedule(1, 20), [1])

    def test_contains_first_and_last(self):
        sched = st.checkpoint_schedule(12345, 20)
        assert sched[0] == 1 and sched[-1] == 12345
        assert np.all(np.diff(sched) > 0)

    def test_density_about_per_decade(self):
        sched = st.checkpoint_schedule(100_000, 20)
        in_decade = np.count_nonzero((sched > 1000) & (sched <= 10_000))
        assert in_decade == 20


class TestRunTrajectory:
    """`run_seeded` on one chain: one SgdConfig, one learning rate and one seed."""

    def test_single_iteration_boundary(self, toy_op):
        cfg = st.SgdConfig(total_iters=1)
        log = st.run_seeded(toy_op, cfg, [0.1], [0])[0]
        np.testing.assert_array_equal(log.iters, [1])
        assert log.snapshots.shape == (1, 3)

    def test_unit_norm_at_every_checkpoint(self, toy_up):
        cfg = st.SgdConfig(total_iters=3000, k=10, window=3000)
        init = st.random_unit_vector(3, np.random.default_rng(4))
        log = st.run_seeded(toy_up, cfg, [0.3], [1], inits=[init])[0]
        assert log.snapshots.shape == (3000, 3)  # the ring holds every iterate
        norms = np.linalg.norm(log.snapshots, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_checkpoints_strictly_increasing_and_final_logged(self, op_run_fast):
        assert np.all(np.diff(op_run_fast.iters) > 0)
        assert op_run_fast.iters[-1] == op_run_fast.final_iter
        assert op_run_fast.stopped_early

    def test_deterministic_rerun(self, toy_up):
        cfg = st.SgdConfig(total_iters=2000)
        a = st.run_seeded(toy_up, cfg, [0.01], [33])[0]
        b = st.run_seeded(toy_up, cfg, [0.01], [33])[0]
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.snapshots, b.snapshots)
        np.testing.assert_array_equal(a.snrs, b.snrs)

    def test_zero_gradient_start_stays_constant(self, toy_op):
        cfg = st.SgdConfig(total_iters=50, k=10, window=50)
        log = st.run_seeded(toy_op, cfg, [0.05], [0], inits=[np.array([0.0, 0.0, 1.0])])[0]
        assert log.snapshots.shape == (50, 3)
        assert np.all(log.snapshots == np.array([0.0, 0.0, 1.0]))
        assert np.all(log.losses == 0.0)

    def test_op_converges_below_floor(self, op_run_fast, op_run_faster):
        for log in (op_run_fast, op_run_faster):
            assert log.stopped_early
            assert log.final_loss < 1e-16
            assert log.final_iter <= 50_000

    def test_up_loss_stabilizes_without_early_stop(self, toy_up):
        """Last-decade mean loss within 10% of the preceding decade's mean.

        Long enough that the initial transient (first few thousand steps)
        has left the preceding decade.
        """
        cfg = st.SgdConfig(total_iters=500_000)
        log = st.run_seeded(toy_up, cfg, [2.4e-3], [3])[0]
        assert not log.stopped_early
        last = log.losses[log.iters >= log.final_iter / 10]
        prev = log.losses[(log.iters >= log.final_iter / 100) & (log.iters < log.final_iter / 10)]
        assert abs(last.mean() - prev.mean()) < 0.10 * prev.mean()

    def test_snapshot_window_matches_entropy_config(self, toy_up):
        cfg = st.SgdConfig(total_iters=1500, k=10, window=200)
        log = st.run_seeded(toy_up, cfg, [0.05], [8])[0]
        assert log.snapshots.shape == (200, 3)
        assert log.final_iter == 1500  # the ring's last row is the final iterate
        # final checkpoint's entropy equals the estimate over the retained window
        assert log.entropy_iters[-1] == 1500
        np.testing.assert_allclose(
            log.entropies[-1], st.knn_entropy(log.snapshots, 10), rtol=0, atol=0
        )

    def test_collapsed_window_logs_entropy_sentinel(self, toy_op):
        """A delta-like window (constant trajectory) logs -inf, not an exception."""
        cfg = st.SgdConfig(total_iters=120, k=10, window=50)
        log = st.run_seeded(toy_op, cfg, [0.05], [0], inits=[np.array([0.0, 0.0, 1.0])])[0]
        assert log.entropies.size > 0
        assert np.all(log.entropies == -np.inf)

    def test_batch_larger_than_ensemble_rejected(self, toy_op):
        cfg = st.SgdConfig(total_iters=10, batch_size=5)
        with pytest.raises(InvalidConfig, match="batch_size 5 > ensemble size 2"):
            st.run_seeded(toy_op, cfg, [0.1], [0])

    def test_init_of_wrong_length_rejected(self, toy_op):
        cfg = st.SgdConfig(total_iters=10)
        with pytest.raises(InvalidConfig, match=r"init has shape \(2,\), ensemble dimension is 3"):
            st.run_seeded(toy_op, cfg, [0.1], [0], inits=[np.array([0.0, 1.0])])

    def test_non_unit_init_is_projected(self, toy_op):
        """[0, 0, 2] is projected to the pole, where every toy_op component vanishes."""
        cfg = st.SgdConfig(total_iters=50, k=10, window=50)
        log = st.run_seeded(toy_op, cfg, [0.05], [0], inits=[np.array([0.0, 0.0, 2.0])])[0]
        assert np.all(log.snapshots == np.array([0.0, 0.0, 1.0]))
        assert np.all(log.losses == 0.0)
        # Scaling by 4 is exact, so a projected start 4u is bit for bit the projected u.
        u = st.random_unit_vector(3, np.random.default_rng(5))
        a, b = (st.run_seeded(toy_op, cfg, [0.05], [0], inits=[x])[0] for x in (u, 4.0 * u))
        np.testing.assert_array_equal(a.snapshots, b.snapshots)
        np.testing.assert_array_equal(a.losses, b.losses)


class TestSgdConfig:
    @pytest.mark.parametrize("field, value", [
        ("loss_stop_threshold", np.nan), ("loss_stop_threshold", np.inf),
        ("loss_stop_threshold", -1.0), ("k", 0),
    ])
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(InvalidConfig):
            st.SgdConfig(**{field: value})

    def test_holds_only_the_shared_settings(self):
        """A chain's learning rate and seed are arguments of `run_seeded`, not settings."""
        assert [f.name for f in fields(st.SgdConfig)] == [
            "batch_size", "total_iters", "checkpoints_per_decade", "loss_stop_threshold", "k", "window"]
