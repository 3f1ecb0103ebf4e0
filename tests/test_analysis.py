import math

import numpy as np
import pytest

import sgdtherm as st
from sgdtherm.errors import InvalidConfig


def make_estimates(losses, entropies, lrs=None, stabilized=True):
    lrs = lrs if lrs is not None else np.geomspace(1e-3, 1e-1, len(losses))
    return [
        st.StationaryEstimate(lr=float(lr), loss_mean=float(u), entropy_mean=float(s),
                              loss_std=0.0, entropy_std=0.0, stabilized=stabilized)
        for lr, u, s in zip(lrs, losses, entropies)
    ]


class TestTriangularSmoothing:
    def test_single_point_unchanged(self):
        np.testing.assert_array_equal(st.kernel_smooth_triangular([0.0], [5.0], h=0.3), [5.0])

    def test_constant_series_unchanged(self):
        out = st.kernel_smooth_triangular(np.linspace(0, 1, 7), np.full(7, 2.5), h=0.3)
        np.testing.assert_allclose(out, 2.5, rtol=0, atol=1e-15)

    def test_hand_computed_middle_weight(self):
        """Spacing 0.1, h=0.3: middle = (0.2*0 + 0.3*1 + 0.2*0) / 0.7."""
        out = st.kernel_smooth_triangular([0.0, 0.1, 0.2], [0.0, 1.0, 0.0], h=0.3)
        np.testing.assert_allclose(out[1], 0.3 / 0.7, rtol=1e-14)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_boundaries_preserved(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 1, 9))
        ys = rng.standard_normal(9)
        out = st.kernel_smooth_triangular(xs, ys, h=0.5)
        assert out[0] == ys[0] and out[-1] == ys[-1]

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 1, 11)
        ys = rng.standard_normal(11)
        a, b = 2.7, -4.2
        direct = st.kernel_smooth_triangular(xs, a * ys + b, h=0.3)
        composed = a * st.kernel_smooth_triangular(xs, ys, h=0.3) + b
        np.testing.assert_allclose(direct, composed, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(InvalidConfig, match="no points to smooth"):
            st.kernel_smooth_triangular([], [], h=0.3)

    def test_overflowing_bandwidth_rejected(self):
        """At h = 1e308 the weight sums overflow: a U-like series would smooth to 0, an
        S-like one to NaN.  Both raise, without a numpy warning."""
        xs = np.log(np.geomspace(1e-2, 0.5, 5))
        for ys in ([0.02, 0.019, 0.018, 0.02, 0.021], [-3.0, -2.5, -2.0, -1.5, -1.0]):
            with pytest.raises(InvalidConfig, match=r"bandwidth h = 1e\+308 gives non-finite"):
                st.kernel_smooth_triangular(xs, ys, h=1e308)


class TestGaussianLogTimeSmoothing:
    def test_constant_and_single(self):
        np.testing.assert_allclose(
            st.kernel_smooth_gaussian_logtime([1, 10, 100], [3.0, 3.0, 3.0], 0.2), 3.0
        )
        np.testing.assert_array_equal(
            st.kernel_smooth_gaussian_logtime([5], [1.5], 0.1), [1.5]
        )

    def test_middle_bounded_by_kernel_positivity(self):
        """Symmetric log-spacing, ys=(0,1,0): middle strictly between 1/3 and 1."""
        out = st.kernel_smooth_gaussian_logtime([10, 100, 1000], [0.0, 1.0, 0.0], 0.4)
        assert 1 / 3 < out[1] < 1.0

    def test_underflowing_bandwidth_rejected(self):
        """At sigma = 1e-200, 2 sigma^2 underflows to 0 and every weight is 0/0 or x/0."""
        with pytest.raises(InvalidConfig, match=r"bandwidth sigma = 1e-200 gives non-finite"):
            st.kernel_smooth_gaussian_logtime([1, 10, 100], [0.5, 0.25, 0.125], 1e-200)

    def test_subnormal_bandwidth_smooths_to_the_identity(self):
        """At sigma = 1e-160, 2 sigma^2 is subnormal but nonzero: each point keeps only itself."""
        ys = [0.5, -0.25, 0.125, 4.0]
        np.testing.assert_array_equal(
            st.kernel_smooth_gaussian_logtime([1, 10, 100, 1000], ys, 1e-160), ys)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        ts = np.array([1, 3, 10, 30, 100])
        ys = rng.standard_normal(5)
        direct = st.kernel_smooth_gaussian_logtime(ts, 1.5 * ys + 2.0, 0.2)
        composed = 1.5 * st.kernel_smooth_gaussian_logtime(ts, ys, 0.2) + 2.0
        np.testing.assert_allclose(direct, composed, atol=1e-12)


class TestExtractStationary:
    def _constant_log(self, n=40, total=10_000):
        iters = np.unique(np.geomspace(1, total, n).astype(np.int64))
        k = iters.size
        return st.TrajectoryLog(
            iters=iters,
            losses=np.full(k, 0.75),
            full_grad_norms=np.zeros(k),
            stoch_grad_norms=np.ones(k),
            snrs=np.zeros(k),
            entropy_iters=iters,
            entropies=np.full(k, -3.0),
            snapshots=np.zeros((10, 3)),
            stopped_early=False,
            learning_rate=0.01,
        )

    def test_constant_series(self):
        est = st.extract_stationary(self._constant_log(), tail_fraction=0.5)
        assert est.loss_mean == 0.75
        assert est.loss_std == 0.0
        assert est.stabilized

    def test_converging_run_not_stabilized(self, op_run_fast):
        est = st.extract_stationary(op_run_fast, tail_fraction=0.5)
        assert not est.stabilized

    def test_up_run_stabilized(self, up_run_low):
        est = st.extract_stationary(up_run_low, tail_fraction=0.5)
        assert est.stabilized
        assert est.loss_mean > 0.015  # near the UP floor of ~0.0192

    def test_collapsed_tail_window(self):
        """A -inf window in the tail gives S = -inf, no S dispersion and no stability verdict."""
        log = self._constant_log()
        log.entropies[-3] = -np.inf
        est = st.extract_stationary(log, tail_fraction=0.5)
        assert est.entropy_mean == -np.inf
        assert math.isnan(est.entropy_std)
        assert not est.stabilized
        assert (est.loss_mean, est.loss_std) == (0.75, 0.0)

    def test_short_tail_has_nan_estimate(self):
        """A tail with fewer than 2 checkpoints (and windows) has every statistic NaN, not stabilized."""
        est = st.extract_stationary(self._constant_log(n=3), tail_fraction=0.5)
        assert est.lr == 0.01
        assert all(math.isnan(v) for v in (est.loss_mean, est.entropy_mean, est.loss_std, est.entropy_std))
        assert est.stabilized is False

    def test_tail_fraction_validated(self, up_run_low):
        with pytest.raises(Exception):
            st.extract_stationary(up_run_low, tail_fraction=0.9)


class TestTemperatureInterval:
    def test_hand_example_middle(self):
        ests = make_estimates([1.0, 2.0, 3.0], [-10.0, -5.0, -2.0])
        iv = st.estimate_temperature_interval(ests, 1, 0.0)
        assert not iv.empty
        assert iv.t_lo == 0.2
        assert iv.t_hi == 1 / 3

    def test_hand_example_first_is_upper_bound_only(self):
        ests = make_estimates([1.0, 2.0, 3.0], [-10.0, -5.0, -2.0])
        iv = st.estimate_temperature_interval(ests, 0, 0.0)
        assert iv.t_lo == 0.0
        assert iv.t_hi == 0.2

    def test_identical_pairs_are_unconstrained(self):
        ests = make_estimates([1.0, 1.0], [4.0, 4.0])
        for target in (0, 1):
            iv = st.estimate_temperature_interval(ests, target, 0.0)
            assert iv.t_lo == 0.0 and iv.t_hi == math.inf and not iv.empty

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_index_out_of_range_rejected(self, target):
        ests = make_estimates([1.0, 2.0, 3.0], [-10.0, -5.0, -2.0])
        with pytest.raises(InvalidConfig, match=f"target_index {target} out of range"):
            st.estimate_temperature_interval(ests, target, 0.0)

    def test_nonconvex_point_yields_empty(self):
        ests = make_estimates([0.0, 5.0, 2.0], [0.0, 1.0, 2.0])
        iv = st.estimate_temperature_interval(ests, 1, 0.1)
        assert iv.empty

    def test_randomized_soundness_and_exactness(self):
        """Any T inside a nonempty interval satisfies every constraint; nudged
        endpoints violate one."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            ests = make_estimates(rng.uniform(0, 3, n), np.sort(rng.uniform(-5, 5, n)))
            eps = float(rng.choice([0.0, 0.05, 0.3]))
            for target in range(n):
                iv = st.estimate_temperature_interval(ests, target, eps)
                if iv.empty:
                    continue
                candidates = [iv.t_lo, iv.midpoint, iv.t_hi]
                for t in candidates:
                    if not math.isfinite(t):
                        continue
                    f = [e.loss_mean - t * e.entropy_mean for e in ests]
                    assert f[target] <= min(f) + eps + 1e-9 * max(1.0, abs(min(f)))
                delta = 1e-9 * max(1.0, iv.t_hi if math.isfinite(iv.t_hi) else 1.0)

                def violated(t):
                    f = [e.loss_mean - t * e.entropy_mean for e in ests]
                    return f[target] > min(f) + eps
                if iv.t_lo > 0:
                    assert violated(iv.t_lo - delta)
                if math.isfinite(iv.t_hi):
                    assert violated(iv.t_hi + delta)


class TestTemperatureCurve:
    def test_convex_synthetic_midpoints_track_slope(self):
        """U = S^2 on S = 1..6: interval [2S-1, 2S+1], midpoint 2S, increasing."""
        s = np.arange(1.0, 7.0)
        curve = st.temperature_curve(make_estimates(s**2, s), epsilon=0.0)
        assert curve.monotone
        interior = [iv for iv in curve.intervals if not iv.bound_only]
        np.testing.assert_allclose([iv.t_lo for iv in interior], [3.0, 5.0, 7.0, 9.0])
        np.testing.assert_allclose([iv.t_hi for iv in interior], [5.0, 7.0, 9.0, 11.0])
        np.testing.assert_allclose([iv.midpoint for iv in interior], [4.0, 6.0, 8.0, 10.0])

    def test_linear_relation_contains_slope_everywhere(self):
        s = np.linspace(-4.0, 2.0, 5)  # exactly representable grid
        curve = st.temperature_curve(make_estimates(2.0 * s + 0.5, s), epsilon=0.0)
        assert curve.monotone
        for iv in curve.intervals:
            assert iv.t_lo <= 2.0 <= iv.t_hi

    def test_nonconvex_interior_breaks_verdict(self):
        curve = st.temperature_curve(
            make_estimates([0.0, 5.0, 2.0], [0.0, 1.0, 2.0]), epsilon=0.1
        )
        assert curve.intervals[1].empty
        assert not curve.monotone

    def test_boundary_flags(self):
        s = np.arange(1.0, 5.0)
        curve = st.temperature_curve(make_estimates(s**2, s), epsilon=0.0)
        flags = [iv.bound_only for iv in curve.intervals]
        assert flags == [True, False, False, True]

    def test_requires_three_estimates(self):
        with pytest.raises(InvalidConfig, match="need >= 3 estimates, got 2"):
            st.temperature_curve(make_estimates([1.0, 2.0], [0.0, 1.0]), 0.0)


class TestFiniteDifferenceTemperature:
    def test_exact_linear_relation(self):
        s = np.linspace(-3, 4, 12)
        u = 2.0 * s + 7.0
        idx, t = st.finite_difference_temperature(u, s, dt=2)
        np.testing.assert_array_equal(idx, np.arange(2, 10))
        np.testing.assert_allclose(t, 2.0, rtol=1e-12)

    def test_constant_entropy_undefined(self):
        u = np.linspace(0, 1, 10)
        s = np.full(10, 1.5)
        _, t = st.finite_difference_temperature(u, s, dt=2)
        assert np.all(np.isnan(t))

    def test_series_too_short(self):
        with pytest.raises(InvalidConfig, match="need more than 4 points, got 4"):
            st.finite_difference_temperature([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], dt=2)


class TestFreeEnergyCurve:
    def test_zero_temperature_reduces_to_loss(self):
        ests = make_estimates([3.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        f, argmin = st.free_energy_curve(ests, 0.0)
        np.testing.assert_array_equal(f, [3.0, 1.0, 2.0])
        assert argmin == 1

    def test_hand_example(self):
        ests = make_estimates([1.0, 2.0, 3.0], [-10.0, -5.0, -2.0])
        f, argmin = st.free_energy_curve(ests, 0.25)
        np.testing.assert_allclose(f, [3.5, 3.25, 3.5])
        assert argmin == 1

    def test_tie_broken_toward_smaller_lr(self):
        ests = make_estimates([1.0, 1.0], [2.0, 2.0])
        _, argmin = st.free_energy_curve(ests, 0.7)
        assert argmin == 0

    def test_interval_temperature_recovers_target(self):
        ests = make_estimates([1.0, 2.0, 3.0], [-10.0, -5.0, -2.0])
        iv = st.estimate_temperature_interval(ests, 1, 0.0)
        f, argmin = st.free_energy_curve(ests, iv.midpoint)
        assert argmin == 1

    def test_zero_slack_midpoint_recovers_target_on_convex_data(self):
        """Any T strictly inside the eps=0 interval makes its lr the exact argmin."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            s = np.sort(rng.uniform(-3, 3, n))
            u = np.cumsum(np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2, n - 1))
                                          * np.diff(s)]))  # convex: increasing slopes
            ests = make_estimates(u, s)
            for target in range(1, n - 1):
                iv = st.estimate_temperature_interval(ests, target, 0.0)
                if iv.empty or not iv.t_lo < iv.midpoint < iv.t_hi:
                    continue
                _, argmin = st.free_energy_curve(ests, iv.midpoint)
                assert argmin == target


class TestFitPowerLaw:
    def test_exact_recovery(self):
        x = np.geomspace(0.1, 50, 9)
        fit = st.fit_power_law(x, 2.0 * x**0.78)
        assert abs(fit.coefficient - 2.0) < 1e-10
        assert abs(fit.exponent - 0.78) < 1e-10
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_constant_ys(self):
        fit = st.fit_power_law([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert fit.exponent == 0.0
        assert fit.r_squared == 1.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        x = np.geomspace(1, 100, 12)
        y = 0.7 * x**1.3 * np.exp(rng.normal(0, 0.05, 12))
        base = st.fit_power_law(x, y)
        scaled = st.fit_power_law(8.0 * x, y)
        assert abs(base.exponent - scaled.exponent) < 1e-10

    def test_errors(self):
        with pytest.raises(InvalidConfig, match="strictly positive coordinates"):
            st.fit_power_law([1.0, -2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidConfig, match="all x values coincide"):
            st.fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidConfig, match="need >= 3 points, got 2"):
            st.fit_power_law([1.0, 2.0], [1.0, 2.0])


class TestUniformSphereBaseline:
    def test_toy_op_loss_moment(self, toy_op):
        """E[(n.u)^2] = 1/D on the sphere, so the mean toy loss tends to 1/6."""
        samples = st.uniform_sphere_samples(3, 100_000, np.random.default_rng(5))
        losses = toy_op.full_loss(samples)
        sigma = losses.std(ddof=1) / math.sqrt(losses.size)
        assert abs(losses.mean() - 1 / 6) < 3 * sigma

    def test_toy_up_same_moment(self, toy_up):
        samples = st.uniform_sphere_samples(3, 100_000, np.random.default_rng(6))
        losses = toy_up.full_loss(samples)
        sigma = losses.std(ddof=1) / math.sqrt(losses.size)
        assert abs(losses.mean() - 1 / 6) < 3 * sigma

    def test_baseline_op_within_tolerance(self, toy_op):
        u, s = st.uniform_sphere_baseline(toy_op, 10_000, k=50, seed=9)
        assert abs(u - 1 / 6) < 0.005
        assert math.isfinite(s)

    def test_cloud_not_above_k_rejected(self, toy_op):
        with pytest.raises(InvalidConfig, match="need more than k=50 samples, got 50"):
            st.uniform_sphere_baseline(toy_op, 50, k=50, seed=0)

    def test_deterministic(self, toy_op):
        a = st.uniform_sphere_baseline(toy_op, 2000, k=50, seed=4)
        b = st.uniform_sphere_baseline(toy_op, 2000, k=50, seed=4)
        assert a == b

    def test_vectorized_losses_match_scalar_path(self, toy_up):
        samples = st.uniform_sphere_samples(3, 50, np.random.default_rng(7))
        fast = toy_up.full_loss(samples)
        slow = np.array([toy_up.full_loss(w) for w in samples])
        np.testing.assert_allclose(fast, slow, rtol=1e-12)


class TestSelectStationaryRange:
    def _estimates(self):
        lrs = np.geomspace(1e-3, 1.0, 6)
        ests = []
        for i, lr in enumerate(lrs):
            ests.append(st.StationaryEstimate(
                lr=float(lr), loss_mean=0.1 + 0.01 * i, entropy_mean=float(-10 + 4 * i),
                loss_std=0.001, entropy_std=0.2, stabilized=(i != 1),
            ))
        return ests

    def test_heuristic_excludes_unstable_and_saturated(self):
        ests = self._estimates()
        # baseline close to the top two entropies
        kept, excluded = st.select_stationary_range(ests, baseline_entropy=10.1,
                                                    baseline_sigma=0.0)
        kept_lrs = [ests[i].lr for i in kept]
        assert ests[1].lr not in kept_lrs          # not stabilized
        assert ests[5].lr not in kept_lrs          # within 1 sigma of baseline
        reasons = dict((lr, r) for lr, r in excluded)
        assert "not stabilized" in reasons[ests[1].lr]
        assert "saturated" in reasons[ests[5].lr]

    def test_saturation_excludes_everything_above(self):
        ests = self._estimates()
        kept, _ = st.select_stationary_range(ests, baseline_entropy=2.2, baseline_sigma=0.1)
        assert all(ests[i].entropy_mean < 1.9 for i in kept)

    def test_explicit_range_overrides(self):
        ests = self._estimates()
        kept, excluded = st.select_stationary_range(
            ests, baseline_entropy=0.0, baseline_sigma=0.0,
            lr_range=(ests[1].lr, ests[4].lr),
        )
        assert kept == [1, 2, 3, 4]
        assert all("range" in r for _, r in excluded)
