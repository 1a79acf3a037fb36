"""Property tests: invariants that must hold for every drawn instance, not just fixtures."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from giantnet import (  # noqa: E402
    AlgorithmConfig,
    MixingMatrix,
    ProblemSpec,
    decompose,
    generate_problem,
    giant_init,
    giant_step,
    tracking_drift,
)
from conftest import rng_for  # noqa: E402

# No example database, so failures are not replayed across runs; few examples keep tier-1 fast.
PROPERTY = settings(max_examples=25, deadline=None, database=None)

STEPS = 5


@st.composite
def doubly_stochastic(draw, n):
    """(Q + Q^T) / 2 with Q a random convex combination of permutation matrices."""
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(perms), max_size=len(perms))))
    q = sum(w * np.eye(n)[list(perm)] for w, perm in zip(weights / weights.sum(), perms))
    return MixingMatrix(0.5 * (q + q.T))


@st.composite
def giant_setups(draw):
    """A small problem, a symmetric doubly stochastic P and a random start stack."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["quadratic", "logistic"]))
    spec = ProblemSpec(kind=kind, n=n, d=draw(st.integers(1, 4)), heterogeneity=1.0)
    instance = generate_problem(draw(st.integers(0, 2**16)), spec)
    x0 = rng_for(draw(st.integers(0, 2**16))).standard_normal((n, spec.d))
    return instance, draw(doubly_stochastic(n)), x0


@PROPERTY
@given(giant_setups(), st.floats(0.05, 1.0))
def test_tracker_sum_equals_previous_gradient_sum(setup, epsilon):
    instance, mix, x0 = setup
    cfg = AlgorithmConfig(epsilon=epsilon)
    state = giant_init(instance, x0)
    assert tracking_drift(state, instance, x0) <= 1e-9
    for _ in range(STEPS):
        prev_x = state.x
        state = giant_step(state, instance, mix, cfg)
        assert tracking_drift(state, instance, prev_x) <= 1e-9


@PROPERTY
@given(giant_setups(), st.integers(1, 4))
def test_k_rounds_equal_one_round_under_the_power(setup, k):
    instance, mix, x0 = setup
    powered = MixingMatrix(mix.power(k))
    a = b = giant_init(instance, x0)
    for _ in range(STEPS):
        a = giant_step(a, instance, mix, AlgorithmConfig(epsilon=0.5, K=k))
        b = giant_step(b, instance, powered, AlgorithmConfig(epsilon=0.5))
        for block in ("x", "g", "w"):
            assert np.array_equal(getattr(a, block), getattr(b, block))


@PROPERTY
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=10),
        elements=st.floats(-1e3, 1e3),
    )
)
def test_decompose_parts_add_back_and_disagreement_sums_to_zero(x):
    mean, disagreement = decompose(x)
    tol = 1e-12 * (1.0 + np.abs(x).max())
    assert np.all(mean == mean[0])
    np.testing.assert_allclose(mean + disagreement, x, rtol=0, atol=tol)
    np.testing.assert_allclose(disagreement.sum(axis=0), 0.0, rtol=0, atol=tol)
