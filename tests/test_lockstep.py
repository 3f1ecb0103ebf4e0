"""The lockstep engine against the one-chain reference loop in `oracles.run_chain_reference`.

Every chain that `run_seeded` advances beside others must log exactly what
the reference logs for it alone: every TrajectoryLog field is compared with
`array_equal`, whatever the batch size, early stops, starts, block size or
company of the chain, and whatever number of CPUs the host reports.
"""

import os
import threading
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest

import oracles
import sgdtherm as st
from sgdtherm import sphere
from sgdtherm.errors import InvalidConfig, NonFinite


def assert_logs_equal(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a == b, f.name


class Grid(NamedTuple):
    """The arguments of one engine call after the ensemble: shared settings, lrs and seeds."""

    cfg: st.SgdConfig
    lrs: list
    seeds: list

    def head(self, n):
        return Grid(self.cfg, self.lrs[:n], self.seeds[:n])

    def chains(self):
        return [Grid(self.cfg, [lr], [seed]) for lr, seed in zip(self.lrs, self.seeds)]


def assert_matches_reference(ensemble, grid, inits=None):
    logs = st.run_seeded(ensemble, *grid, inits)
    assert len(logs) == len(grid.lrs)
    for i, (log, lr, seed) in enumerate(zip(logs, grid.lrs, grid.seeds)):
        init = None if inits is None else inits[i]
        assert_logs_equal(log, oracles.run_chain_reference(ensemble, grid.cfg, lr, seed, init))
    return logs


def chains(lrs, seed0=0, **shared):
    return Grid(st.SgdConfig(**shared), list(lrs), [seed0 + i for i in range(len(lrs))])


UP_CHAINS = chains([2e-3, 2.2e-2, 0.22, 1.0], seed0=11, total_iters=1500, k=10, window=200)
# lr 1.0 stops before its window of 200 fills, lr 0.1 after, lr 1e-3 never.
OP_CHAINS = chains([1e-3, 0.1, 1.0], seed0=7, total_iters=2000, k=10, window=200,
                   loss_stop_threshold=1e-16)
D10_CHAINS = chains(np.geomspace(0.02, 20.0, 6).tolist(), seed0=40, batch_size=8,
                    total_iters=1200, k=10, window=300)


class TestParityWithReference:
    def test_toy_up_batch_one(self, toy_up):
        assert_matches_reference(toy_up, UP_CHAINS)

    def test_toy_op_loss_stop_before_and_after_the_window_fills(self, toy_op):
        logs = assert_matches_reference(toy_op, OP_CHAINS)
        stops = [log.final_iter if log.stopped_early else None for log in logs]
        assert stops[0] is None
        assert 200 < stops[1] < 2000
        assert stops[2] < 200
        assert logs[2].entropies.size == 0 and logs[2].snapshots.shape == (stops[2], 3)

    def test_hyperplane_d10_batch_eight(self):
        assert_matches_reference(st.random_hyperplane_ensemble(10, 30, seed=3), D10_CHAINS)

    def test_full_ensemble_batch(self):
        ens = st.random_hyperplane_ensemble(4, 6, seed=2)
        assert_matches_reference(ens, chains([0.05, 0.5, 5.0], seed0=3, batch_size=6,
                                             total_iters=800, k=10, window=100))

    def test_explicit_inits(self, toy_up):
        rng = np.random.default_rng(21)
        inits = [np.array([0.0, 0.0, 2.0]), st.random_unit_vector(3, rng), 3.0 * rng.standard_normal(3)]
        assert_matches_reference(toy_up, UP_CHAINS.head(3), inits)

    @pytest.mark.parametrize("block", [1, 7, sphere._BLOCK_STEPS])
    def test_block_size_does_not_change_a_chain(self, toy_op, monkeypatch, block):
        monkeypatch.setattr(sphere, "_BLOCK_STEPS", block)
        assert_matches_reference(toy_op, OP_CHAINS)

    def test_each_chain_alone_equals_all_together(self, toy_op):
        together = st.run_seeded(toy_op, *OP_CHAINS)
        for chain, log in zip(OP_CHAINS.chains(), together):
            assert_logs_equal(st.run_seeded(toy_op, *chain)[0], log)


@pytest.fixture
def force_cpus(monkeypatch):
    """Make the host report n CPUs to anything that asks `os`."""
    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    return force


class TestWindowThreads:
    """A checkpoint's windows run in chain order on the calling thread, whatever the CPU count."""

    @pytest.mark.parametrize("case", ["toy_up", "toy_op_loss_stop", "d10_batch_eight"])
    def test_logs_do_not_depend_on_the_cpu_count(self, request, monkeypatch, force_cpus, case):
        ensemble, grid = {
            "toy_up": (request.getfixturevalue("toy_up"), UP_CHAINS),
            "toy_op_loss_stop": (request.getfixturevalue("toy_op"), OP_CHAINS),
            "d10_batch_eight": (st.random_hyperplane_ensemble(10, 30, seed=3), D10_CHAINS),
        }[case]
        want = [oracles.run_chain_reference(ensemble, grid.cfg, lr, seed)
                for lr, seed in zip(grid.lrs, grid.seeds)]
        caller, before = threading.get_ident(), threading.active_count()
        seen, real = [], sphere.knn_entropy

        def recording(window, k):
            seen.append((threading.get_ident(), threading.active_count(), window.shape))
            return real(window, k)

        monkeypatch.setattr(sphere, "knn_entropy", recording)
        for n in (1, 2, 5):
            force_cpus(n)
            seen.clear()
            logs = st.run_seeded(ensemble, *grid)
            for got, ref in zip(logs, want):
                assert_logs_equal(got, ref)
            assert len(seen) == sum(log.entropies.size for log in logs) > 0
            assert set(seen) == {(caller, before, (grid.cfg.window, ensemble.dim))}
            assert threading.active_count() == before

    class WindowFailed(Exception):
        pass

    @pytest.mark.parametrize("n", [2, 5])
    def test_no_thread_outlives_the_call(self, toy_up, force_cpus, n):
        force_cpus(n)
        before = threading.active_count()
        st.run_seeded(toy_up, *UP_CHAINS)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [2, 5])
    def test_no_thread_outlives_a_failing_window(self, toy_up, monkeypatch, force_cpus, n):
        force_cpus(n)
        before = threading.active_count()
        real, calls = sphere.knn_entropy, []

        def third_call_raises(*args):
            calls.append(args)
            if len(calls) == 3:
                raise self.WindowFailed("injected")
            return real(*args)

        monkeypatch.setattr(sphere, "knn_entropy", third_call_raises)
        with pytest.raises(self.WindowFailed):
            st.run_seeded(toy_up, *UP_CHAINS)
        assert len(calls) == 3  # no window runs after the one that raised
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [2, 5])
    def test_no_thread_outlives_a_failing_chain(self, toy_up, monkeypatch, force_cpus, n):
        """One chain's gradient norm turns non-finite at the first checkpoint after one full round of windows."""
        force_cpus(n)
        before = threading.active_count()
        real_stats, real_entropy = sphere.gradient_stats, sphere.knn_entropy
        windows = []

        def counted(*args):
            windows.append(threading.get_ident())
            return real_entropy(*args)

        def nan_after_a_round(ensemble, w):
            stats = real_stats(ensemble, w)
            if not windows:
                return stats
            norms = stats.full_grad_norm.copy()
            norms[-1] = np.nan  # the last row of the (L,) stack only
            return replace(stats, full_grad_norm=norms)

        monkeypatch.setattr(sphere, "knn_entropy", counted)
        monkeypatch.setattr(sphere, "gradient_stats", nan_after_a_round)
        with pytest.raises(NonFinite):
            st.run_seeded(toy_up, *UP_CHAINS)
        assert windows == [threading.get_ident()] * len(UP_CHAINS.lrs)
        assert threading.active_count() == before


class TestBlockSampling:
    @pytest.mark.parametrize("m, batch", [(3, 1), (30, 8), (4, 2), (5, 5)])
    def test_block_equals_one_step_draws(self, m, batch):
        block = st.sample_batch(m, batch, np.random.default_rng(9), 50)
        rng = np.random.default_rng(9)
        assert block.shape == (50, batch)
        for row in block:
            np.testing.assert_array_equal(row, oracles.sample_batch_one_step(m, batch, rng))


class TestChainSet:
    """One shared SgdConfig plus one learning rate, one seed and (optionally) one init per chain."""

    def test_one_init_per_chain(self, toy_up):
        with pytest.raises(InvalidConfig, match="2 lrs, 2 seeds, 1 inits"):
            st.run_seeded(toy_up, *UP_CHAINS.head(2), [None])

    @pytest.mark.parametrize("lrs, seeds", [([0.1, 0.2], [1]), ([0.1], [1, 2])],
                             ids=["two-lrs-one-seed", "one-lr-two-seeds"])
    def test_one_lr_and_one_seed_per_chain(self, toy_up, lrs, seeds):
        with pytest.raises(InvalidConfig, match=f"{len(lrs)} lrs, {len(seeds)} seeds, {len(lrs)} inits"):
            st.run_seeded(toy_up, UP_CHAINS.cfg, lrs, seeds)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -0.1])
    def test_invalid_learning_rate_rejected(self, toy_up, lr):
        with pytest.raises(InvalidConfig, match="learning rates must be finite and positive"):
            st.run_seeded(toy_up, UP_CHAINS.cfg, [0.1, lr], [1, 2])

    def test_negative_seed_rejected(self, toy_up):
        with pytest.raises(InvalidConfig, match="seeds must be >= 0"):
            st.run_seeded(toy_up, UP_CHAINS.cfg, [0.1, 0.2], [1, -1])

    def test_no_chains(self, toy_up):
        assert st.run_seeded(toy_up, UP_CHAINS.cfg, [], []) == []

    def test_stacked_loss_equals_one_chain_loss(self, toy_up):
        ws = st.uniform_sphere_samples(3, 20, np.random.default_rng(1))
        stacked = toy_up.full_loss(ws)
        assert stacked.shape == (20,)
        for w, loss in zip(ws, stacked):
            assert loss == oracles.full_loss_one_chain(toy_up.normals, w) == toy_up.full_loss(w)
