"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here; the expensive simulations are shared
through session fixtures.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import sgdtherm as st
from sgdtherm.cli import (
    ExperimentConfig,
    run_grid,
    verify_oracles,
)

MERIDIAN_LIMIT = 1 / math.sqrt(3)  # small-radius SNR limit at half-angle pi/6


def report(name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def hyperplane_grid_results():
    """Criterion 8 experiment: 12 learning rates on the D=10, M=30 ensemble."""
    ens = st.random_hyperplane_ensemble(10, 30, seed=7)
    lrs = np.geomspace(0.02, 20.0, 12)
    estimates = []
    for i, lr in enumerate(lrs):
        seed = int(np.random.SeedSequence([4242, i]).generate_state(1, np.uint64)[0])
        cfg = st.SgdConfig(learning_rate=float(lr), batch_size=8, total_iters=200_000,
                           seed=seed, checkpoints_per_decade=40)
        estimates.append(st.extract_stationary(st.run_seeded(ens, cfg)))
    baselines = [st.uniform_sphere_baseline(ens, 1000, 50, seed=9000 + i) for i in range(8)]
    return ens, estimates, np.asarray(baselines)


@pytest.fixture(scope="module")
def saturation_run():
    """Criterion 9 experiment: chaotic regime on a circle ensemble (D=2, M=100)."""
    ens = st.random_hyperplane_ensemble(2, 100, seed=7)
    ecfg = st.EntropyConfig(k=50, window=500)
    cfg = st.SgdConfig(learning_rate=1.0, batch_size=1, total_iters=80_000, seed=12)
    log = st.run_seeded(ens, cfg, entropy=ecfg)
    est = st.extract_stationary(log)
    baselines = [st.uniform_sphere_baseline(ens, 500, 50, seed=1000 + i) for i in range(10)]
    return ens, est, np.asarray(baselines)


class TestCriterion1OracleEquivalence:
    def test_measured_snr_matches_closed_form(self, toy_op):
        rng = np.random.default_rng(0)
        worst = 0.0
        checked = 0
        for _ in range(1000):
            w = st.project_to_sphere(rng.standard_normal(3))
            stats = st.gradient_stats(toy_op, w)
            if stats.snr is None:
                continue
            oracle = st.two_circle_snr_sq(w[0], w[1], math.pi / 6)
            worst = max(worst, abs(stats.snr**2 - oracle))
            checked += 1
        report("1 oracle equivalence at 1e3 sphere points",
               checked >= 990 and worst < 1e-10, f"max |d snr^2| = {worst:.2e}")


class TestCriterion2MonotonicitySuite:
    def test_azimuthal_minimum(self):
        ok = True
        for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
            grid = np.linspace(-alpha, alpha, 2 * round(alpha / 1e-3) + 1)
            for r in (0.2, 0.5, 0.8):
                vals = np.array([st.two_circle_snr_sq_polar(r, p, alpha) for p in grid])
                ok = ok and np.argmin(vals) == grid.size // 2
        report("2a SNR minimum at the central meridian", ok)

    def test_radial_monotonicity(self):
        worst = -math.inf
        for alpha in (math.pi / 12, math.pi / 6, math.pi / 5):
            for phi in (0.0, alpha / 2, 0.99 * alpha):
                radii = np.sqrt(np.linspace(1e-4, 0.9999, 1000))
                vals = np.array([st.two_circle_snr_sq_polar(r, phi, alpha) for r in radii])
                worst = max(worst, float(np.diff(vals).max()))
        report("2b squared SNR nonincreasing in squared radius", worst < 1e-12,
               f"max positive step = {worst:.2e}")

    def test_factorization_identity(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(10_000):
            r = rng.uniform(0.0, 0.4999)
            s = rng.uniform(0.0, r)
            worst = max(worst, abs(st.factorization_residual(s, r)))
        report("2c factorization residual over 1e4 samples", worst < 1e-12,
               f"max |residual| = {worst:.2e}")


class TestCriterion3QuadraticSuite:
    def test_delta_independence(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(25):
            d = int(rng.integers(2, 11))
            m = int(rng.integers(2, 9))
            ens = st.random_quadratic_ensemble(d, m, seed=trial)
            r = st.project_to_sphere(rng.standard_normal(d))
            values = [st.gradient_stats(ens, ens.optimum + delta * r).snr
                      for delta in (1e-1, 1e-3, 1e-6)]
            if any(v is None for v in values):
                continue
            worst = max(worst, max(values) - min(values))
        report("3a quadratic SNR independent of displacement", worst < 1e-10,
               f"max spread = {worst:.2e}")

    def test_descent_power_law_exponent(self):
        exps = []
        for seed in (1, 2, 3):
            ens = st.random_quadratic_ensemble(8, 6, seed=seed)
            lam_max = np.linalg.eigvalsh(ens.full_hessian)[-1]
            cfg = st.SgdConfig(learning_rate=float(0.5 / lam_max), batch_size=len(ens),
                               total_iters=30_000, seed=100 + seed,
                               checkpoints_per_decade=20, loss_stop_threshold=1e-24)
            log = st.run_seeded(ens, cfg)
            good = (log.full_grad_norms > 1e-290) & (log.stoch_grad_norms > 1e-290)
            gx, gy = log.full_grad_norms[good], log.stoch_grad_norms[good]
            burn = max(1, gx.size // 10)
            exps.append(st.fit_power_law(gx[burn:], gy[burn:]).exponent)
        ok = all(0.95 <= e <= 1.05 for e in exps)
        report("3b stochastic-vs-full gradient decay exponent in [0.95, 1.05]", ok,
               "exponents " + ", ".join(f"{e:.4f}" for e in exps))


class TestCriterion4ToyOpConvergence:
    def test_loss_floor_within_budget(self, op_run_fast, op_run_faster):
        ok = all(
            log.stopped_early and log.final_loss < 1e-16 and log.final_iter <= 50_000
            for log in (op_run_fast, op_run_faster)
        )
        report("4a toy OP reaches loss < 1e-16 within 50K iterations", ok,
               f"stop iters {op_run_fast.final_iter}, {op_run_faster.final_iter}")

    def test_fd_temperature_decays(self, op_run_fast):
        log = op_run_fast
        ent_iters, ent_vals = log.entropy_iters, log.entropies
        loss_at = dict(zip(log.iters.tolist(), log.losses.tolist()))
        u = np.array([loss_at[int(i)] for i in ent_iters])
        idx, t = st.finite_difference_temperature(u, ent_vals, dt=2)
        in_tail = ent_iters[idx] >= log.final_iter / 10
        defined = t[in_tail & ~np.isnan(t)]
        ratio = defined[0] / defined[-1]
        report("4b finite-difference temperature decays >= 5x over the final decade",
               defined.size >= 3 and ratio >= 5.0, f"decay factor {ratio:.3g}")


class TestCriterion5ToyOpSnrLimit:
    def test_final_decade_snr_near_meridian_limit(self, op_run_small_lr):
        log = op_run_small_lr
        tail = log.snrs[log.iters >= log.final_iter / 10]
        mean_snr = float(np.nanmean(tail))
        lo = MERIDIAN_LIMIT - 0.02
        hi = 1.5 * MERIDIAN_LIMIT
        report("5 toy OP final-decade SNR within [limit - 0.02, 1.5 limit]",
               lo <= mean_snr <= hi,
               f"snr {mean_snr:.5f}, bounds [{lo:.5f}, {hi:.5f}]")


class TestCriterion6ToyUpStationarity:
    def test_stabilizes_with_positive_tail_metrics(self, up_run_low):
        est = st.extract_stationary(up_run_low)
        m = up_run_low.iters >= up_run_low.final_iter / 2
        g = up_run_low.full_grad_norms[m].mean()
        s = up_run_low.stoch_grad_norms[m].mean()
        snr = float(np.nanmean(up_run_low.snrs[m]))
        ok = est.stabilized and g > 0 and s > 0 and snr > 0
        report("6a toy UP at lr=2.4e-3 stabilized with positive gradient metrics", ok,
               f"|full|={g:.4f} |stoch|={s:.4f} snr={snr:.4f}")

    def test_snr_increases_with_lr(self, up_run_low, up_run_high):
        lo = float(np.nanmean(up_run_low.snrs[up_run_low.iters >= up_run_low.final_iter / 2]))
        hi = float(np.nanmean(up_run_high.snrs[up_run_high.iters >= up_run_high.final_iter / 2]))
        report("6b toy UP tail SNR increases from lr=2.4e-3 to lr=6.9e-2", hi > lo,
               f"{lo:.4f} -> {hi:.4f}")


class TestCriterion7EntropyIdentities:
    def test_invariances(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 4))
        base = st.knn_entropy(x, 25)
        shift = abs(st.knn_entropy(x + np.array([5.0, -3.0, 11.0, 0.5]), 25) - base)
        scale_err = max(
            abs(st.knn_entropy(c * x, 25) - base - 4 * math.log(c)) for c in (0.5, 2.0, 10.0)
        )
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rot = abs(st.knn_entropy(x @ q.T, 25) - base)
        ok = shift < 1e-9 and scale_err < 1e-9 and rot < 1e-9
        report("7 entropy translation/scaling/rotation identities", ok,
               f"translation {shift:.1e}, scaling {scale_err:.1e}, rotation {rot:.1e}")


class TestCriterion8FreeEnergyIntervals:
    def test_monotone_intervals_and_argmin_consistency(self, hyperplane_grid_results):
        _, estimates, baselines = hyperplane_grid_results
        epsilon = 1e-2
        base_s = float(baselines[:, 1].mean())
        base_s_std = float(baselines[:, 1].std(ddof=1))
        kept, _ = st.select_stationary_range(estimates, base_s, base_s_std)
        retained = [estimates[i] for i in kept]
        assert len(retained) >= 3
        log_lrs = np.log([e.lr for e in retained])
        u_s = st.kernel_smooth_triangular(log_lrs, [e.loss_mean for e in retained], 0.3)
        s_s = st.kernel_smooth_triangular(log_lrs, [e.entropy_mean for e in retained], 0.3)
        smoothed = [replace(e, loss_mean=float(u), entropy_mean=float(s))
                    for e, u, s in zip(retained, u_s, s_s)]
        curve = st.temperature_curve(smoothed, epsilon)
        interior = [iv for iv in curve.intervals
                    if not iv.bound_only and not iv.empty and math.isfinite(iv.midpoint)]
        mids = [iv.midpoint for iv in interior]
        nondecreasing = all(b >= a for a, b in zip(mids, mids[1:]))
        consistent = 0
        for iv in interior:
            f, argmin = st.free_energy_curve(smoothed, iv.midpoint)
            target = next(i for i, e in enumerate(smoothed) if e.lr == iv.lr)
            if f[target] <= f[argmin] + epsilon:
                consistent += 1
        ok = len(interior) >= 5 and nondecreasing and consistent == len(interior)
        report("8 free-energy minimization on the hyperplane grid", ok,
               f"{len(interior)} interior intervals, midpoints nondecreasing: "
               f"{nondecreasing}, argmin-consistent: {consistent}/{len(interior)}")


class TestCriterion9RegimeThreeSaturation:
    def test_tail_matches_uniform_baseline(self, saturation_run):
        _, est, baselines = saturation_run
        u_b, s_b = baselines[:, 0], baselines[:, 1]
        sig_s = math.sqrt(est.entropy_std**2 + s_b.std(ddof=1) ** 2)
        sig_u = math.sqrt(est.loss_std**2 + u_b.std(ddof=1) ** 2)
        ds = abs(est.entropy_mean - s_b.mean())
        du = abs(est.loss_mean - u_b.mean())
        ok = ds <= 2 * sig_s and du <= 2 * sig_u
        report("9 chaotic-regime tail matches the uniform-sphere baseline", ok,
               f"dS {ds:.4f} vs 2sig {2 * sig_s:.4f}; dU {du:.5f} vs 2sig {2 * sig_u:.5f}")


class TestCriterion10IntervalExactness:
    def test_hand_example_exact(self):
        ests = [
            st.StationaryEstimate(lr, u, s, 0.0, 0.0, True)
            for lr, u, s in zip((1e-3, 1e-2, 1e-1), (1.0, 2.0, 3.0), (-10.0, -5.0, -2.0))
        ]
        iv = st.estimate_temperature_interval(ests, 1, 0.0)
        ok = (iv.t_lo == 0.2) and (iv.t_hi == 1 / 3) and not iv.empty
        report("10a hand interval equals [0.2, 1/3]", ok, f"[{iv.t_lo}, {iv.t_hi}]")

    def test_randomized_soundness(self):
        rng = np.random.default_rng(4)
        sound = True
        boundary_sharp = True
        for _ in range(200):
            n = int(rng.integers(3, 8))
            ests = [
                st.StationaryEstimate(float(lr), float(u), float(s), 0.0, 0.0, True)
                for lr, u, s in zip(np.geomspace(1e-3, 1, n),
                                    rng.uniform(0, 2, n), np.sort(rng.uniform(-4, 4, n)))
            ]
            eps = float(rng.choice([0.0, 0.1]))
            for target in range(n):
                iv = st.estimate_temperature_interval(ests, target, eps)
                if iv.empty:
                    continue

                def slack(t):
                    f = [e.loss_mean - t * e.entropy_mean for e in ests]
                    return f[target] - min(f) - eps

                for t in (iv.t_lo, iv.midpoint, iv.t_hi):
                    if math.isfinite(t):
                        sound = sound and slack(t) <= 1e-9
                delta = 1e-9 * max(1.0, iv.t_hi if math.isfinite(iv.t_hi) else 1.0)
                if iv.t_lo > 0:
                    boundary_sharp = boundary_sharp and slack(iv.t_lo - delta) > 0
                if math.isfinite(iv.t_hi):
                    boundary_sharp = boundary_sharp and slack(iv.t_hi + delta) > 0
        report("10b randomized interval soundness and boundary sharpness",
               sound and boundary_sharp)


class TestCriterion11Determinism:
    def test_trajectory_rerun_bit_identical(self, toy_up):
        cfg = st.SgdConfig(learning_rate=2.4e-3, total_iters=5000, seed=3)
        a, b = st.run_seeded(toy_up, cfg), st.run_seeded(toy_up, cfg)
        ok = (
            np.array_equal(a.losses, b.losses)
            and np.array_equal(a.snapshots, b.snapshots)
            and np.array_equal(a.entropies, b.entropies)
            and np.array_equal(a.snrs, b.snrs, equal_nan=True)
        )
        report("11a trajectory rerun is bit-identical", ok)

    def test_cli_outputs_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            model="toy_op", lr_grid=(4.8e-3, 2.3e-2), batch_size=1, total_iters=3000,
            seed=77, k=20, window=400, baseline_seeds=2,
            output_dir=str(tmp_path / "unused"),
        )
        out1 = run_grid(cfg, out_dir=tmp_path / "a")
        out2 = run_grid(cfg, out_dir=tmp_path / "b")
        ok = all(
            f1.read_bytes() == (out2 / f1.name).read_bytes()
            for f1 in sorted(out1.glob("*.csv"))
        )
        report("11b experiment rerun produces byte-identical numeric files", ok)

    def test_oracle_suite_passes(self):
        checks = verify_oracles()
        ok = all(c.passed for c in checks)
        report("11c closed-form oracle suite all green", ok,
               "; ".join(f"{c.name} {c.max_residual:.1e}" for c in checks))
