"""The benchmark's workloads: one giantnet config each, with the seed swapped in.

The problem instance and the graph (``problem.seed`` and the Erdos-Renyi
``topology.seed``) are part of a workload's definition; the benchmark
seed drives only ``run_seed``, the agents' starting stack. A seeded ER
graph changes sigma2 and with it the run length by up to 6x. A seeded
problem moved the total iterations of compare-quadratic-ring10 over
13.4k-18.3k across 15 seeds (1% with the problem fixed), which would
swamp every timing.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

# Limits of the correctness checks.
DRIFT_LIMIT = 1e-9
COMPARE_TARGET = 1e-6
COMPARE_ALGOS = ("giant", "dgd", "gt")
COMPARE_MUST_REACH = ("giant", "gt")


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "run" or "compare"
    config: dict
    # A run must reach grad_tol, or, when this is set, complete exactly
    # this many finite iterations.
    fixed_iters: int | None = None


# The problem seed of configs/quadratic_ring.json, used by every workload.
PROBLEM_SEED = 42


def _config(problem: dict, topology: dict, algorithm: dict, **extra) -> dict:
    problem = {**problem, "seed": PROBLEM_SEED}
    return {"problem": problem, "topology": topology, "algorithm": algorithm, **extra}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "giant-logistic-er100",
            "run",
            _config(
                # Heterogeneity 0 (the default): at 1.0 the starting stack
                # alone moved the run over 266-348 iterations across 10 seeds.
                {"kind": "logistic", "n": 100, "d": 20, "samples_per_agent": 50, "lambda": 0.1},
                {"kind": "erdos_renyi", "n": 100, "p": 0.1, "seed": 0},
                {"name": "giant", "epsilon": 0.2, "K": 1, "max_iters": 5000, "grad_tol": 1e-10},
            ),
        ),
        Workload(
            "compare-quadratic-ring10",
            "compare",
            # configs/quadratic_ring.json, copied so that the workload does
            # not change when the shipped config does.
            _config(
                {"kind": "quadratic", "n": 10, "d": 5, "heterogeneity": 1.0},
                {"kind": "ring", "n": 10, "seed": 0},
                {"name": "giant", "epsilon": 0.25, "K": 1, "max_iters": 5000, "grad_tol": 1e-10},
                tuner={"epsilon_grid": [0.02, 0.05, 0.1, 0.25, 0.5, 1.0]},
            ),
        ),
        Workload(
            "giant-quadratic-ring1000",
            "run",
            _config(
                {"kind": "quadratic", "n": 1000, "d": 5, "heterogeneity": 1.0},
                {"kind": "ring", "n": 1000, "seed": 0},
                {"name": "giant", "epsilon": 0.5, "K": 1, "max_iters": 20},
            ),
            fixed_iters=20,
        ),
    )
}


def seeded_config(workload: Workload, seed: int) -> dict:
    """The workload's config with ``run_seed`` drawn from ``seed``."""
    cfg = copy.deepcopy(workload.config)
    cfg["run_seed"] = random.Random(seed).randrange(2**31)
    return cfg
