import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import sgdtherm as st
from sgdtherm import entropy, sphere
from sgdtherm.errors import InvalidConfig, NonFinite

TILE_K = 5


def zero_edge_slack(x, k):
    """How far sq_i + sq_j - 2 G may read the edges between coincident rows above 0.

    sq_i, sq_j and G_ij each carry a rounding error of up to about
    (dim + 1) eps |c|^2, so for two coincident centered rows c the squared
    distance reads up to 4 (dim + 1) eps |c|^2 instead of 0, and the distance
    up to 2 sqrt((dim + 1) eps) |c|.  A row with m coincident partners has
    min(m, k) such edges.  Rows with no coincident partner get no slack.
    """
    _, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    zero_edges = np.minimum(counts[inverse.ravel()] - 1, k).sum()
    norms = np.linalg.norm(x - x.mean(axis=0), axis=1)
    return zero_edges * 2.0 * np.sqrt((x.shape[1] + 1) * np.finfo(float).eps) * norms.max()


def record_selection_widths(monkeypatch):
    """The number of columns of every block the k-NN kernel selects from, in call order."""
    widths = []
    real = entropy._select

    def recording(block, k):
        widths.append(block.shape[1])
        return real(block, k)

    monkeypatch.setattr(entropy, "_select", recording)
    return widths


class TestTotalEdgeLength:
    def test_two_points_on_a_line(self):
        """Directed convention: edges 0->1 and 1->0 both count."""
        samples = np.array([[0.0], [1.0]])
        assert st.knn_total_edge_length(samples, 1) == 2.0

    def test_unit_square_corners(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(st.knn_total_edge_length(corners, 1), 4.0, rtol=1e-12)

    def test_homogeneity_exact_for_powers_of_two(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 4))
        base = st.knn_total_edge_length(x, 5)
        assert st.knn_total_edge_length(2.0 * x, 5) == 2.0 * base

    def test_homogeneity_general(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 3))
        base = st.knn_total_edge_length(x, 5)
        np.testing.assert_allclose(st.knn_total_edge_length(3.7 * x, 5), 3.7 * base, rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(InvalidConfig, match="need more than k=5 samples, got 5"):
            st.knn_total_edge_length(np.zeros((5, 2)), 5)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InvalidConfig):
            st.knn_total_edge_length(np.random.default_rng(0).standard_normal((10, 2)), k)

    @pytest.mark.parametrize("cloud", ["uniform", "concentrated_far", "duplicated_rows",
                                       "walk_origin", "walk_far", "all_equal"])
    @pytest.mark.parametrize("dim", [2, 3, 10])
    @pytest.mark.parametrize("n", [TILE_K + 1, 31, 32, 33, 65, 333, 500, 1000, 1500, 2049])
    def test_row_tiles_match_one_block(self, n, dim, cloud):
        """The slab-pruned tiles give the bits of every tile partitioned over its whole row.

        The one-block reference multiplies the same 32-row blocks in the
        same point order and sums each row's k values sorted, so `==` holds
        whatever the BLAS does with a whole-matrix product, at every tile
        boundary and for four draws of each cloud.  The first draw must also
        meet the brute-force tolerance.
        """
        for seed in range(4):
            rng = np.random.default_rng(1000 * n + dim + 10_000_000 * seed)
            x = rng.uniform(-1.0, 1.0, size=(n, dim))
            if cloud == "concentrated_far":
                x = 1e-4 * x + 1e3 * rng.standard_normal(dim)
            elif cloud == "duplicated_rows":
                x[1::3] = x[rng.integers(0, n, size=x[1::3].shape[0])]
            elif cloud.startswith("walk"):
                x = np.cumsum(1e-3 * rng.standard_normal((n, dim)), axis=0)
                if cloud == "walk_far":
                    x += 1e3
            elif cloud == "all_equal":
                x[:] = x[0]
            tiled = st.knn_total_edge_length(x, TILE_K)
            assert tiled == oracles.knn_edge_length_one_block(x, TILE_K)
            if seed == 0:
                np.testing.assert_allclose(tiled, oracles.knn_edge_length_brute_force(x, TILE_K),
                                           rtol=1e-12, atol=zero_edge_slack(x, TILE_K))

    def test_near_duplicates_far_from_origin_are_clamped(self):
        """Rounding puts some near-coincident rows below 0; the clamp keeps every edge finite.

        Each cluster of three rows lies within 1e-9 of its center, far below
        the rounding of |c|^2 ~ 1, so each row has two edges that read like
        the edges between coincident rows in `zero_edge_slack`.
        """
        rng = np.random.default_rng(7)
        centers = rng.uniform(-1.0, 1.0, size=(100, 3))
        x = 1e3 + np.repeat(centers, 3, axis=0) + 1e-9 * rng.standard_normal((300, 3))
        assert (oracles.squared_distances_one_block(x) < 0.0).any()
        total = st.knn_total_edge_length(x, TILE_K)
        assert np.isfinite(total)
        near_edges = 2 * x.shape[0]
        norms = np.linalg.norm(x - x.mean(axis=0), axis=1)
        slack = near_edges * 2.0 * np.sqrt((x.shape[1] + 1) * np.finfo(float).eps) * norms.max()
        np.testing.assert_allclose(total, oracles.knn_edge_length_brute_force(x, TILE_K),
                                   rtol=1e-12, atol=slack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_raises(self, bad):
        x = np.random.default_rng(6).standard_normal((100, 3))
        x[17, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                st.knn_total_edge_length(x, TILE_K)
            with pytest.raises(NonFinite):
                st.knn_entropy(x, TILE_K)

    def test_result_does_not_depend_on_blas_threads(self):
        """One BLAS thread and OpenBLAS's default thread count give the same bits.

        Two Gaussian clouds, whose tiles mostly select from whole rows, and the
        windows of a converging toy_op chain, whose tiles select from slabs.
        """
        code = (
            "import numpy as np, sgdtherm as st\n"
            "rng = np.random.default_rng(8)\n"
            "for dim in (3, 10):\n"
            "    print(st.knn_total_edge_length(rng.standard_normal((1000, dim)), 50).hex())\n"
            "cfg = st.SgdConfig(total_iters=3000, loss_stop_threshold=1e-16)\n"
            "log = st.run_seeded(st.make_toy_op(), cfg, [4.8e-3], [3])[0]\n"
            "print(*(s.hex() for s in log.entropies))\n"
        )
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(st.__file__).parents[1]), env.get("PYTHONPATH")]))
        outputs = [
            subprocess.run([sys.executable, "-c", code], env=env | extra, capture_output=True,
                           text=True, check=True, timeout=120).stdout
            for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
        ]
        assert outputs[0] == outputs[1] and len(outputs[0].split()) >= 2 + 5  # clouds, windows

    def test_duplicates_counted_not_fatal(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert oracles.degenerate_edge_count(x, 1) == 2  # the coincident pair, both directions
        assert st.knn_total_edge_length(x, 1) > 0.0

    @pytest.mark.parametrize("width", [51, 400, 401, 1000])
    def test_selection_is_sorted_on_both_sides_of_the_sort_limit(self, width):
        """Each row's k values come out in ascending order whether its block is sorted
        whole (up to 8k columns) or partitioned first, so the sum does not depend on
        where a slab ended.

        At k = 50 a partition alone leaves the first k values sorted in most rows but
        not all, so 1000 rows show a missing sort.
        """
        block = np.random.default_rng(width).standard_normal((1000, width))
        expected = np.sort(block, axis=1)[:, :50]
        assert np.array_equal(entropy._select(block, 50), expected)

    def test_cloud_without_long_axis_falls_back_to_whole_rows(self, monkeypatch):
        """A D = 10 Gaussian cloud has no long axis: the first tile's reach spans more
        than half the window, so it and every later tile select from whole rows."""
        widths = record_selection_widths(monkeypatch)
        x = np.random.default_rng(9).standard_normal((1000, 10))
        assert st.knn_total_edge_length(x, 50) == oracles.knn_edge_length_one_block(x, 50)
        assert widths[0] < 500 and widths[1:] == [1000] * 32

    @pytest.mark.parametrize("scale", [1e-87, 1e-160])
    def test_window_settling_on_a_pole_is_exact(self, scale):
        """A chain settling on the pole (0, 0, 1) spreads in-plane by as little as
        `scale`; at 1e-160 the squared distances underflow to subnormals."""
        rng = np.random.default_rng(3)
        x = np.zeros((1000, 3))
        x[:, :2] = scale * np.cumsum(rng.standard_normal((1000, 2)), axis=0)
        x[:, 2] = 1.0
        assert st.knn_total_edge_length(x, 50) == oracles.knn_edge_length_one_block(x, 50)

    def test_slab_widens_to_neighbors_beyond_it(self, monkeypatch):
        """On a circle the two arcs interleave along the principal axis, so a tile's
        k nearest neighbors lie beyond tile +- k: every tile selects from a second,
        wider slab, still under half the window, and the bits stay those of whole rows."""
        widths = record_selection_widths(monkeypatch)
        t = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
        x = np.column_stack((np.cos(t), np.sin(t)))
        assert st.knn_total_edge_length(x, 50) == oracles.knn_edge_length_one_block(x, 50)
        assert len(widths) == 2 * 32 and max(widths) < 500


class TestKnnEntropy:
    def test_two_point_formula(self):
        """D=1, N=2, k=1: S = 1*(log 2 - 0*log 2) = log 2."""
        np.testing.assert_allclose(
            st.knn_entropy(np.array([[0.0], [1.0]]), 1), np.log(2), rtol=1e-15
        )

    def test_scaling_shift_is_d_log_c(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((300, 5))
        base = st.knn_entropy(x, 10)
        for c in (0.5, 2.0, 10.0):
            assert abs(st.knn_entropy(c * x, 10) - base - 5 * np.log(c)) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((300, 4))
        base = st.knn_entropy(x, 10)
        shift = np.array([10.0, -7.0, 3.0, 1e4])
        assert abs(st.knn_entropy(x + shift, 10) - base) < 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert abs(st.knn_entropy(x @ q.T, 10) - st.knn_entropy(x, 10)) < 1e-9

    def test_collapsed_cloud_is_minus_inf(self):
        assert st.knn_entropy(np.ones((20, 3)), 5) == -np.inf

    def test_concentrated_far_cloud_is_stable(self):
        """A tiny cloud far from the origin must not lose the distances to cancellation."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 3))
        tiny_far = 1e-9 * x + np.array([1.0, 2.0, -1.0])
        expected = st.knn_entropy(x, 10) + 3 * np.log(1e-9)
        assert abs(st.knn_entropy(tiny_far, 10) - expected) < 1e-6


class TestSlidingWindowEntropy:
    """The trajectory's entropy window: the trailing `window` iterates at each checkpoint."""

    def test_exactly_one_window_at_boundary(self, toy_up):
        """A run exactly one window long logs one entropy, at its final iteration."""
        cfg = st.SgdConfig(total_iters=100, k=5, window=100)
        log = st.run_seeded(toy_up, cfg, [0.05], [6])[0]
        assert log.entropy_iters.tolist() == [100]
        assert log.entropies.shape == (1,)

    def test_too_few_snapshots(self, toy_up):
        """A run shorter than the window never fills it and logs no entropy."""
        cfg = st.SgdConfig(total_iters=19, k=2, window=20)
        log = st.run_seeded(toy_up, cfg, [0.05], [6])[0]
        assert log.iters[-1] == 19
        assert log.entropy_iters.size == 0 and log.entropies.size == 0

    def test_uniform_sphere_self_consistency(self):
        """Window estimate within 3 bootstrap sigmas of an independent same-size sample."""
        window = st.uniform_sphere_samples(3, 1000, np.random.default_rng(100))
        independent = st.uniform_sphere_samples(3, 1000, np.random.default_rng(200))
        s_window = st.knn_entropy(window, 50)
        s_independent = st.knn_entropy(independent, 50)
        boot_rng = np.random.default_rng(300)
        boots = []
        for _ in range(20):
            resample = independent[boot_rng.integers(0, 1000, size=1000)]
            boots.append(st.knn_entropy(resample, 50))
        sigma = np.std(boots, ddof=1)
        assert abs(s_window - s_independent) < 3 * sigma

    def test_converging_trajectory_entropy_decreases(self, toy_op):
        """Once the loss is deep in the basin, successive window entropies fall."""
        cfg = st.SgdConfig(total_iters=50_000, loss_stop_threshold=1e-16, k=50, window=1000)
        log = st.run_seeded(toy_op, cfg, [4.8e-3], [3])[0]
        anchors, values = log.entropy_iters, log.entropies
        assert values.size >= 5
        assert np.all(np.isfinite(values[-5:]))
        last5 = values[-5:]
        assert np.all(np.diff(last5) < 0)
        # the decrease indeed happens after the loss has collapsed
        loss_at_anchor = np.interp(anchors[-5], log.iters, log.losses)
        assert loss_at_anchor < 1e-8

    def test_estimator_variance_shrinks_with_window(self):
        """Across 20 seeds, the spread at N=1000 is below the spread at N=100."""
        spreads = []
        for n in (100, 1000):
            vals = [
                st.knn_entropy(st.uniform_sphere_samples(3, n, np.random.default_rng(s)), 50)
                for s in range(20)
            ]
            spreads.append(np.var(vals, ddof=1))
        assert spreads[1] < spreads[0]


class TestEngineWindows:
    """Every window the engine logs meets the brute-force tolerance of the row tiles."""

    @pytest.mark.parametrize("case", ["toy_up", "toy_op_loss_stop", "d10_batch_eight"])
    def test_logged_windows_match_brute_force(self, request, monkeypatch, case):
        # toy_up: a concentrated (1e-5), a medium (1e-3) and a duplicate-heavy (1.0) window.
        ensemble, cfg, lrs, seeds = {
            "toy_up": (request.getfixturevalue("toy_up"),
                       st.SgdConfig(total_iters=2000, checkpoints_per_decade=5),
                       [1e-5, 1e-3, 1.0], [4, 4, 4]),
            "toy_op_loss_stop": (request.getfixturevalue("toy_op"),
                                 st.SgdConfig(total_iters=50_000, checkpoints_per_decade=5,
                                              loss_stop_threshold=1e-16),
                                 [2.3e-2], [3]),
            "d10_batch_eight": (st.random_hyperplane_ensemble(10, 30, seed=3),
                                st.SgdConfig(batch_size=8, total_iters=2000, checkpoints_per_decade=5),
                                [0.02, 1.0, 20.0], [5, 5, 5]),
        }[case]
        windows = []
        real = sphere.knn_entropy

        def recording(samples, k, *args):
            windows.append((np.array(samples), k))
            return real(samples, k, *args)

        monkeypatch.setattr(sphere, "knn_entropy", recording)
        logs = st.run_seeded(ensemble, cfg, lrs, seeds)
        assert len(windows) == sum(log.entropies.size for log in logs) >= 2 * len(lrs)
        if case == "toy_op_loss_stop":
            assert logs[0].stopped_early
        for x, k in windows:
            assert st.knn_total_edge_length(x, k) == oracles.knn_edge_length_one_block(x, k)
            np.testing.assert_allclose(st.knn_total_edge_length(x, k),
                                       oracles.knn_edge_length_brute_force(x, k),
                                       rtol=1e-12, atol=zero_edge_slack(x, k))

    def test_converging_windows_take_the_pruned_path(self, toy_op, monkeypatch):
        """Every window of a converging chain selects from slabs narrower than half the window.

        A converging chain is one stretch of a trajectory, so each point's
        neighbors lie close to it along the principal axis; no tile of these
        windows should fall back to whole rows.  Each window still gives the
        bits of every tile partitioned over its whole row.
        """
        windows = []
        real = sphere.knn_entropy

        def recording(samples, k, *args):
            windows.append((np.array(samples), k))
            return real(samples, k, *args)

        monkeypatch.setattr(sphere, "knn_entropy", recording)
        cfg = st.SgdConfig(total_iters=3000, loss_stop_threshold=1e-16)
        st.run_seeded(toy_op, cfg, [4.8e-3], [3])
        assert len(windows) >= 5
        widths = record_selection_widths(monkeypatch)
        for x, k in windows:
            widths.clear()
            assert st.knn_total_edge_length(x, k) == oracles.knn_edge_length_one_block(x, k)
            assert len(widths) >= 32 and max(widths) < x.shape[0] / 2


class TestEntropyConfig:
    """The entropy settings of a grid: `k` and `window` of its SgdConfig."""

    def test_k_must_be_below_window(self):
        with pytest.raises(InvalidConfig):
            st.SgdConfig(k=100, window=100)

    def test_defaults(self):
        cfg = st.SgdConfig()
        assert cfg.k == 50 and cfg.window == 1000
