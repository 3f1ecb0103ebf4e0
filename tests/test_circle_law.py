"""The engine against an exact stationary law on the circle.

In D = 2 the iterate of batch-1 projected SGD is one angle, so its
stationary law is the fixed point of a Markov operator on a line, which
`oracles.circle_stationary_law` computes to grid accuracy without sampling
(Ulam's method).  The model is `random_hyperplane_ensemble(2, 3, 7)`.  At
n = 2**14 cells the solver gives U = 0.015823, 0.016372, 0.018141 and
S = -2.4011, -1.7859, -1.2092 at lr 0.03, 0.1, 0.3.  Smaller learning rates
need thousands of power iterations and are left out of these tests.
"""

import functools

import numpy as np
import pytest

import oracles
import sgdtherm as st

ENSEMBLE = st.random_hyperplane_ensemble(2, 3, 7)
# lr: (U at 2**14 cells, S at 2**13 cells), to the digits printed above.
TABLE = {0.03: (0.015823, -2.4008), 0.1: (0.016372, -1.7859), 0.3: (0.018141, -1.2091)}
# Over 20 chain-seed bases (0, 1000, ..., 19000) of 512 chains at each of
# these learning rates, the z-score of the mean final loss against the exact
# U had standard deviation 0.8-1.0 and never exceeded 2.1 in size.
Z_TOLERANCE = 4.0


@functools.cache
def exact(lr, cells):
    return oracles.circle_stationary_law(ENSEMBLE, lr, cells)


@pytest.mark.parametrize("lr", sorted(TABLE))
def test_solver_is_grid_converged(lr):
    """Halving the cells moves U by at most 6e-7 and S by at most 0.0014 at these lrs."""
    (u_coarse, s_coarse), (u_fine, s_fine) = exact(lr, 2**12), exact(lr, 2**13)
    assert abs(u_fine - u_coarse) < 1e-6
    assert abs(s_fine - s_coarse) < 2e-3
    assert abs(u_fine - TABLE[lr][0]) < 1e-6
    assert abs(s_fine - TABLE[lr][1]) < 1e-4


@pytest.mark.parametrize("lr, iters", [(0.03, 6000), (0.1, 3000), (0.3, 2000)])
def test_chains_match_the_exact_loss(lr, iters):
    """The mean final loss of 512 chains, each started uniformly, is the exact stationary U.

    It is also far from the U of every other lr, so the test can tell them apart.
    """
    cfg = st.SgdConfig(total_iters=iters, checkpoints_per_decade=1, k=5, window=60)
    logs = st.run_seeded(ENSEMBLE, cfg, [lr] * 512, range(512))
    losses = np.array([log.final_loss for log in logs])
    stderr = losses.std(ddof=1) / np.sqrt(losses.size)
    z = {other: (losses.mean() - exact(other, 2**13)[0]) / stderr for other in TABLE}
    assert abs(z[lr]) < Z_TOLERANCE
    assert all(abs(z[other]) > Z_TOLERANCE for other in TABLE if other != lr)
