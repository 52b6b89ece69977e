"""The benchmark's workloads: input matrices, algorithms and pinned seeds.

Each workload is a set of inputs, and every input runs all three
algorithms.  A case is one (input, algorithm) pair.  Sketch sizes are the
paper's: ``s = 500`` for sr, ``s1 = 2800, s2 = 500`` for mr.  The master
seeds are the pinned seeds of acceptance criteria 1 and 2; ``--seed 0``
keeps them, any other seed derives new master seeds from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from rcholqr.bounds import CHOLQR2, MR, SR, SketchParams
from rcholqr.generators import GeneratorSpec
from rcholqr.sketch import mix_seed

ALGORITHMS = (CHOLQR2, SR, MR)
PERIOD = 30  # trial indices cycle through the 30 trials of criteria 1 and 2
SIZES = {CHOLQR2: {}, SR: {"s1": 500}, MR: {"s1": 2800, "s2": 500}}
# the embedding parameters are ExperimentConfig's defaults
BOUND_PARAMS = {
    CHOLQR2: SketchParams.none(),
    SR: SketchParams.single(0.5, 0.6, 500),
    MR: SketchParams.multi(0.5, 0.6, 0.5, 0.4, 2800, 500),
}


@dataclass(frozen=True)
class Input:
    label: str
    spec: GeneratorSpec
    master: int  # pinned master seed of the trials on this input


# workload name -> its inputs
WORKLOADS = {
    # criterion 1: every trial succeeds, so every stage runs; sparse input
    "paper-t1": (Input("t1", GeneratorSpec("t1", sigma=1e-4), 0),),
    # criterion 2: cholqr2 always breaks, sr and mr on a share of seeds
    "frontier": (
        Input("t2", GeneratorSpec("t2", sigma=1.25e-9), 5),
        Input("dense", GeneratorSpec("dense", sigma=1.25e-9, seed=3), 0)),
}


def master_seed(pinned: int, seed: int) -> int:
    """The pinned master seed at workload seed 0, a derived one otherwise."""
    return pinned if seed == 0 else mix_seed(pinned, seed)
