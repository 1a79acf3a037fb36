"""Property tests: invariants that must hold for every drawn instance, not just fixtures."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from giantnet import (  # noqa: E402
    ALGORITHMS,
    AlgorithmConfig,
    MixingMatrix,
    ProblemSpec,
    centralized_newton,
    decompose,
    generate_problem,
    giant_init,
    giant_step,
    make_graph,
    metropolis_weights,
    run,
    tracking_drift,
)
from giantnet.topology import GRAPH_KINDS, _RowSparse  # noqa: E402

import reference  # noqa: E402
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


ORACLE_ITERATIONS = 20
ORACLE_EPSILON = {"giant": 0.2, "gt": 0.02, "dgd": 0.02}


@st.composite
def network_runs(draw):
    """An instance with its reference solution, Metropolis weights on any graph kind, K and a start stack."""
    graph = draw(st.sampled_from(GRAPH_KINDS))
    # A grid needs n to be a multiple of ceil(sqrt(n)).
    n = draw(st.integers(1, 8).filter(lambda n: graph != "grid" or n % math.ceil(math.sqrt(n)) == 0))
    d = draw(st.integers(1, 4))
    spec = ProblemSpec(kind=draw(st.sampled_from(["quadratic", "logistic"])), n=n, d=d, heterogeneity=1.0)
    instance = generate_problem(draw(st.integers(0, 2**16)), spec)
    if instance.reference_solution is None:
        instance = instance.with_reference(centralized_newton(instance, np.zeros(d)))
    mix = metropolis_weights(make_graph(graph, n, 0.5, draw(st.integers(0, 2**16))))
    x0 = rng_for(draw(st.integers(0, 2**16))).standard_normal((n, d))
    return instance, mix, draw(st.integers(1, 3)), x0


@PROPERTY
@given(network_runs())
def test_whole_runs_match_the_per_agent_reference(setup):
    # oracle: reference.trajectory, per-agent loops that share no code with the package
    instance, mix, k, x0 = setup
    wants = {
        algorithm: reference.trajectory(
            algorithm, instance.family, mix.p, ORACLE_EPSILON[algorithm], k, x0,
            instance.reference_solution, ORACLE_ITERATIONS,
        )
        for algorithm in ALGORITHMS
    }
    _assert_runs_match(instance, mix, k, x0, wants)
    # Again with P as CSR, whose k rounds are k products by P: at these sizes
    # metropolis_weights builds P dense.
    csr = MixingMatrix(_RowSparse.from_dense(mix.p))
    _assert_runs_match(instance, csr, k, x0, wants)
    np.testing.assert_allclose(csr.mix(x0, k), mix.power(k) @ x0, rtol=0, atol=1e-14 * np.abs(x0).max())


def _assert_runs_match(instance, mix, k, x0, wants):
    scale = max(1.0, np.linalg.norm(instance.family.gradients(x0)))
    for algorithm, (want, want_x) in wants.items():
        cfg = AlgorithmConfig(epsilon=ORACLE_EPSILON[algorithm], K=k, max_iters=ORACLE_ITERATIONS, grad_tol=0.0)
        state, log = run(algorithm, instance, mix, cfg, x0)
        got = np.array(log.records, dtype=float)
        assert not log.diverged and got.shape == want.shape
        assert np.array_equal(got[:, 0], want[:, 0])
        for col in (1, 2, 3, 5):  # opt_gap, consensus_err, grad_norm, lyapunov
            assert np.abs(got[:, col] - want[:, col]).max() <= 1e-10 * np.abs(want[:, col]).max()
        # The drift is roundoff in both; it is measured against the gradients it sums.
        assert np.abs(got[:, 4] - want[:, 4]).max() <= 1e-10 * scale
        x = state if algorithm == "dgd" else state.x
        assert np.linalg.norm(x - want_x) <= 1e-10 * max(1.0, np.linalg.norm(want_x))
