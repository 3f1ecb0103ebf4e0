import pytest

import sgdtherm as st


@pytest.fixture(scope="session")
def toy_op():
    return st.make_toy_op()


@pytest.fixture(scope="session")
def toy_up():
    return st.make_toy_up()


@pytest.fixture(scope="session")
def op_run_fast(toy_op):
    """OP toy at lr=4.8e-3, run to the 1e-16 loss floor."""
    cfg = st.SgdConfig(total_iters=50_000, loss_stop_threshold=1e-16)
    return st.run_seeded(toy_op, cfg, [4.8e-3], [3])[0]


@pytest.fixture(scope="session")
def op_run_faster(toy_op):
    """OP toy at lr=2.3e-2, run to the 1e-16 loss floor."""
    cfg = st.SgdConfig(total_iters=50_000, loss_stop_threshold=1e-16)
    return st.run_seeded(toy_op, cfg, [2.3e-2], [3])[0]


@pytest.fixture(scope="session")
def op_run_small_lr(toy_op):
    """OP toy at lr=1e-3; the iteration cap is generous so the loss floor decides."""
    cfg = st.SgdConfig(total_iters=150_000, loss_stop_threshold=1e-16)
    return st.run_seeded(toy_op, cfg, [1e-3], [2])[0]


@pytest.fixture(scope="session")
def up_run_low(toy_up):
    """UP toy at lr=2.4e-3 for 50K iterations (stationary regime)."""
    return st.run_seeded(toy_up, st.SgdConfig(total_iters=50_000), [2.4e-3], [3])[0]


@pytest.fixture(scope="session")
def up_run_high(toy_up):
    """UP toy at lr=6.9e-2 for 50K iterations."""
    return st.run_seeded(toy_up, st.SgdConfig(total_iters=50_000), [6.9e-2], [3])[0]
