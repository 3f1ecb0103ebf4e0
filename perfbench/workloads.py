"""The benchmark workloads: experiment configs generated from a workload seed.

Every workload is a grid of learning rates run through the same path as
`sgdtherm run` followed by `sgdtherm analyze`.  The seed sets the root SGD
seed (and the hyperplane normals of `hp_d10`); everything else is fixed, so
the same seed always yields the same INI file.

The iteration caps are well below the 50 000 of the CLI default so that one
grid plus its analysis takes a few seconds and a run can report the median
of several repetitions.  The entropy settings (k=50, window=1000) are the
defaults, so each k-NN window costs what it costs in a full-size run; with a
shorter chain the windows take a larger share of `run_s` than at 50k
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    lrs: str
    batch_size: int
    total_iters: int
    loss_stop_threshold: float
    dim: int = 3
    components: int = 2

    def config_text(self, seed: int, output_dir: str) -> str:
        return f"""\
[model]
kind = {self.kind}
dim = {self.dim}
components = {self.components}
model_seed = {seed}

[grid]
lrs = {self.lrs}

[sgd]
batch_size = {self.batch_size}
total_iters = {self.total_iters}
seed = {seed}
checkpoints_per_decade = 20
loss_stop_threshold = {self.loss_stop_threshold!r}

[entropy]
k = 50
window = 1000
stride = 1000

[analysis]
epsilon = 0.01
tail_fraction = 0.5
baseline_seeds = 8

[output]
dir = {output_dir}
"""


_HP_GRID = ", ".join(repr(float(lr)) for lr in np.geomspace(0.02, 20.0, 12))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="up_grid",
            why="toy_up over the default 28-lr grid, no early stop: every chain runs "
                "to the cap, time splits between the per-step loop and D=3 k-NN windows",
            kind="toy_up", lrs="default", batch_size=1, total_iters=3000,
            loss_stop_threshold=0.0,
        ),
        Workload(
            name="op_converge",
            why="toy_op over the default grid with a 1e-16 loss stop: ragged chain "
                "lengths, full_loss on every step, FD-temperature path in analyze",
            kind="toy_op", lrs="default", batch_size=1, total_iters=3000,
            loss_stop_threshold=1e-16,
        ),
        Workload(
            name="hp_d10",
            why="random hyperplanes D=10, M=30, batch 8 over geomspace(0.02, 20, 12): "
                "argpartition sampler, M=30 gradient stats and D=10 k-NN windows",
            kind="hyperplane", lrs=_HP_GRID, batch_size=8, total_iters=5000,
            loss_stop_threshold=0.0, dim=10, components=30,
        ),
    )
}
