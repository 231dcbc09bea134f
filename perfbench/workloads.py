"""The benchmark's workloads and the generator for its protein-shaped CSV.

Every workload runs the same cycle of CLI verbs: one `train`, then
`recalibrations` runs of `recalibrate` on the trained models, then one
`report`. What differs is the data and the model, chosen so that each
workload stresses different layers (see perfbench/README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the shape the shipped `protein` descriptor lists: 45730 rows, 10 features
# plus the target in the last column, no header
PROTEIN_ROWS = 45730
PROTEIN_FEATURES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # ExperimentConfig keys; the seed, data_dir and out are added per run
    recalibrations: int  # `recalibrate` invocations per cycle
    smoke: dict  # config overrides that shrink the workload for --smoke

    @property
    def needs_protein_csv(self):
        return self.config.get("dataset") == "protein"

    def members(self):
        return self.config.get("ensemble_size", 5) if self.config["model"] == "ensemble" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_penalized",
            why="MC dropout at lambda 0 and 20: the O(n^2) penalty at batch 512 and a 64-row tail dominates training",
            # 2000 rows -> 1600 train rows per split = 3 x 512 + 64
            config={"dataset": "synth_hetero", "synth_n": 2000, "model": "mc_dropout",
                    "lambdas": [0, 20], "batch_size": 512, "epochs": 10, "n_splits": 2},
            recalibrations=2,
            smoke={"synth_n": 200, "epochs": 2, "n_splits": 1},
        ),
        Workload(
            name="ensemble_fgsm",
            why="5-member FGSM ensemble at lambda 0: MLP, FGSM and tape backward, with softsort and ckl bypassed",
            config={"dataset": "synth_hetero", "synth_n": 2000, "model": "ensemble",
                    "lambdas": [0], "batch_size": 512, "epochs": 8, "n_splits": 1,
                    "ensemble_size": 5},
            recalibrations=3,
            smoke={"synth_n": 200, "epochs": 1, "ensemble_size": 2},
        ),
        Workload(
            name="protein_recalibrate",
            why="protein-shaped CSV (45730 x 10): CSV loading, MC inference at large n, PAV and metrics",
            config={"dataset": "protein", "model": "mc_dropout", "lambdas": [0],
                    "epochs": 1, "n_splits": 1},
            recalibrations=1,
            smoke={"desk_scale": True},
        ),
    )
}


def write_protein_csv(path, seed, rows=PROTEIN_ROWS):
    """Seeded synthetic stand-in for the UCI protein CSV.

    Skewed positive features on different scales, a nonlinear mean, and
    Student-t noise (4 degrees of freedom) whose scale grows with two of
    the inputs. A Gaussian model is therefore miscalibrated in an
    input-dependent way, which gives recalibration real work to do.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, PROTEIN_FEATURES))
    scales = np.geomspace(0.1, 1000.0, PROTEIN_FEATURES)
    x = np.exp(0.5 * z) * scales
    mean = 3.0 * np.sin(z[:, 0]) + 2.0 * z[:, 1] * z[:, 2] + z[:, 3] ** 2
    noise_scale = 0.5 + 1.5 * np.abs(z[:, 4]) + np.exp(0.5 * z[:, 5])
    y = 10.0 + mean + noise_scale * rng.standard_t(4.0, size=rows)
    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g", delimiter=",")
