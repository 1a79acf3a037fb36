import numpy as np
import pytest

from giantnet import (
    MixingMatrix,
    ProblemInstance,
    ProblemSpec,
    generate_problem,
    make_graph,
    metropolis_weights,
)
from giantnet.objectives import QuadraticFamily


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def identical_quadratic_instance(n: int, center: np.ndarray) -> ProblemInstance:
    """n copies of f(x) = 0.5 * ||x - center||^2; minimizer is the center."""
    d = center.size
    c = np.full(n, 0.5 * float(center @ center))
    family = QuadraticFamily(np.tile(np.eye(d), (n, 1, 1)), np.tile(-center, (n, 1)), c)
    return ProblemInstance(family, mu=1.0, lipschitz=1.0, reference_solution=center.copy())


def ring_mixing(n: int) -> MixingMatrix:
    return metropolis_weights(make_graph("ring", n))


@pytest.fixture
def hetero_ring():
    """Heterogeneous quadratic instance on a ring, reused across algorithm tests."""
    instance = generate_problem(42, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0))
    mix = ring_mixing(10)
    x0 = rng_for(3).standard_normal((10, 5))
    return instance, mix, x0
