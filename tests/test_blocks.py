"""The block-checked run loop against the loop that checks after every step.

``run`` advances a block of steps and then computes the records, drifts
and divergence of the whole block in one batched pass. ``_reference_run``
below is the loop it replaced, written out with its own per-iteration
metric formulas (``np.add.reduce`` per state, norms as one ``dot`` over
the flattened array), so every comparison here is bitwise: records,
divergence flag, final state, and the number of steps taken.
"""

import math

import numpy as np
import pytest

from giantnet import (
    ALGORITHMS,
    AlgorithmConfig,
    NetworkState,
    NotPositiveDefinite,
    ProblemInstance,
    ProblemSpec,
    centralized_newton,
    generate_problem,
    giant_init,
    run,
)
from giantnet import algorithms
from giantnet.algorithms import DIVERGENCE_LIMIT, MAX_BLOCK, _block_cap
from giantnet.diagnostics import MetricsLog, MetricsRecord

from conftest import ring_mixing, rng_for

STEPS = {"giant": "giant_step", "gt": "gt_step", "dgd": "dgd_step"}


def _norm(v):
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _reference_run(algorithm, instance, P, cfg, x0, step):
    """Check after every step: one record, one drift and one divergence test per iteration."""
    f_star = instance.average_value(instance.reference_solution)
    tracked = algorithm != "dgd"
    state = giant_init(instance, x0) if tracked else instance.check_stack(x0).copy()

    def record(state, k):
        x, w, g = (state.x, state.w, state.g) if tracked else (state, None, None)
        x_bar = np.add.reduce(x, 0) / x.shape[0]
        value, grad = instance.family.average.values_and_gradients(x_bar[None])
        gap = float(value[0]) - f_star
        drift = 0.0 if w is None else _norm(np.add.reduce(w, 0) - np.add.reduce(g, 0))
        return MetricsRecord(k, gap, _norm(x - x_bar), _norm(grad), drift, gap)

    def diverged(state):
        blocks = (state.x, state.w, state.g) if tracked else (state,)
        return any(not np.maximum.reduce(np.abs(a), axis=None, initial=0.0) <= DIVERGENCE_LIMIT for a in blocks)

    log = MetricsLog()
    with np.errstate(all="ignore"):
        log.append(record(state, 0))
        k = 0
        while k < cfg.max_iters and log.final.grad_norm > cfg.grad_tol:
            state = step(state, instance, P, cfg)
            k += 1
            log.append(record(state, k))
            if diverged(state):
                log.diverged = True
                break
    return state, log


def _counted(monkeypatch, algorithm, nan_at=None, raise_at=None, replace_at=None):
    """Rebind the module's step to a wrapper that counts calls and can inject a NaN, an error or a state."""
    original = getattr(algorithms, STEPS[algorithm])
    calls = []

    def step(state, instance, P, cfg):
        calls.append(1)
        if len(calls) == raise_at:
            raise NotPositiveDefinite(f"injected at step {raise_at}")
        out = original(state, instance, P, cfg)
        if len(calls) == nan_at:
            x = out.x.copy() if isinstance(out, NetworkState) else out.copy()
            x[0, 0] = np.nan
            out = NetworkState(x, out.g, out.w, out.iteration) if isinstance(out, NetworkState) else x
        if len(calls) == replace_at:
            out = _at_minimizer(out, instance)
        return out

    monkeypatch.setattr(algorithms, STEPS[algorithm], step)
    return step, calls


def _at_minimizer(out, instance):
    # Every agent at the minimizer: the averaged gradient there is roundoff, below any grad_tol used here.
    return NetworkState(np.tile(instance.reference_solution, (instance.n_agents, 1)), out.g, out.w, out.iteration)


def _instance(name):
    if name == "ring10":
        return generate_problem(42, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0))
    if name == "scalar":  # d = 1 with n >= 8 agents: the sums over agents are pairwise on one column
        return generate_problem(7, ProblemSpec(kind="quadratic", n=12, d=1, heterogeneity=1.0))
    spec = ProblemSpec(kind="logistic", n=8, d=6, samples_per_agent=30, heterogeneity=0.5)
    instance = generate_problem(7, spec)
    return instance.with_reference(centralized_newton(instance, np.zeros(6)))


def _bits(log):
    return np.array(log.records, dtype=float).tobytes()


def _state_bits(state):
    if isinstance(state, NetworkState):
        return (state.x.tobytes(), state.g.tobytes(), state.w.tobytes(), state.iteration)
    return state.tobytes()


def _assert_same_run(got, want):
    (state, log), (ref_state, ref_log) = got, want
    assert _bits(log) == _bits(ref_log)
    if np.isfinite(np.array(ref_log.records, dtype=float)).all():
        assert log.records == ref_log.records
    assert all(type(v) is float for r in log.records for v in r[1:])
    assert log.diverged == ref_log.diverged
    assert _state_bits(state) == _state_bits(ref_state)
    if isinstance(state, NetworkState):
        assert state.iteration == log.final.iteration


def _compare(monkeypatch, algorithm, instance_name, cfg, **inject):
    instance = _instance(instance_name)
    n, d = instance.family.shape
    P = ring_mixing(n)
    x0 = rng_for(3).standard_normal((n, d))
    step, calls = _counted(monkeypatch, algorithm, **inject)
    got = run(algorithm, instance, P, cfg, x0)
    steps_taken = len(calls)
    calls.clear()
    want = _reference_run(algorithm, instance, P, cfg, x0, step)
    _assert_same_run(got, want)
    return got[1], steps_taken


EPSILON = {"giant": 0.25, "gt": 0.02, "dgd": 0.02}


class TestBlockSchedule:
    @pytest.mark.parametrize(
        "name, cap", [("ring10", MAX_BLOCK), ("scalar", MAX_BLOCK), ("logistic", 35)]
    )
    def test_caps(self, name, cap):
        assert _block_cap(_instance(name)) == cap

    def test_benchmark_shapes(self):
        # ring1000 holds 3nd = 15000 state floats per iteration, er100's pooled average 105000.
        ring = generate_problem(1, ProblemSpec(kind="quadratic", n=1000, d=5, heterogeneity=1.0))
        assert _block_cap(ring) == 4
        er = generate_problem(1, ProblemSpec(kind="logistic", n=100, d=20, samples_per_agent=50))
        assert _block_cap(er) == 1

    def test_objective_loop_checks_every_step(self):
        instance = _instance("ring10")
        looped = ProblemInstance(instance.objectives, mu=instance.mu, lipschitz=instance.lipschitz)
        assert _block_cap(looped) == 1

    @pytest.mark.parametrize("cap", [1, 3, MAX_BLOCK])
    def test_steps_taken_on_a_converging_run(self, monkeypatch, cap):
        # Blocks of 1, 2, 4, ... up to the cap: the steps taken are the log's
        # iterations plus the rest of the block the stop fell in.
        monkeypatch.setattr(algorithms, "MAX_BLOCK", cap)
        log, steps = _compare(monkeypatch, "giant", "ring10", AlgorithmConfig(epsilon=0.25))
        end, size = 0, 1
        while end < log.final.iteration:
            end += min(size, cap)
            size *= 2
        assert steps == end
        assert steps - log.final.iteration < cap


class TestWholeRunEquivalence:
    @pytest.mark.parametrize("instance_name", ["ring10", "scalar", "logistic"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grad_tol_stop(self, monkeypatch, algorithm, instance_name):
        epsilon = 0.25 if (algorithm, instance_name) == ("gt", "logistic") else EPSILON[algorithm]
        cfg = AlgorithmConfig(epsilon=epsilon, max_iters=3000, grad_tol=1e-9)
        log, _ = _compare(monkeypatch, algorithm, instance_name, cfg)
        if algorithm != "dgd":  # dgd's fixed point is biased; it stops at max_iters
            assert log.final.grad_norm <= cfg.grad_tol and log.final.iteration < cfg.max_iters

    @pytest.mark.parametrize("max_iters", [0, 1, MAX_BLOCK - 1, MAX_BLOCK, MAX_BLOCK + 1, 3 * MAX_BLOCK])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_max_iters_stop(self, monkeypatch, algorithm, max_iters):
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=max_iters, grad_tol=0.0)
        log, steps = _compare(monkeypatch, algorithm, "ring10", cfg)
        assert not log.diverged and log.final.iteration == max_iters
        assert steps == max_iters

    @pytest.mark.parametrize("max_iters", [0, 1, 2, 3, 4, 5, 7])
    def test_max_iters_stop_under_a_small_cap(self, monkeypatch, max_iters):
        # Cap 3: blocks of 1, 2, 3, 3, ... end at 1, 3, 6, 9.
        instance = _instance("ring10")
        n, d = instance.family.shape
        monkeypatch.setattr(algorithms, "BLOCK_FLOATS", 3 * (3 * n * d + instance.family.average.floats))
        assert _block_cap(instance) == 3
        cfg = AlgorithmConfig(epsilon=0.25, max_iters=max_iters, grad_tol=0.0)
        log, steps = _compare(monkeypatch, "giant", "ring10", cfg)
        assert log.final.iteration == steps == max_iters

    @pytest.mark.parametrize("algorithm, epsilon", [("giant", 1.0), ("gt", 0.05), ("dgd", 2.0)])
    def test_divergence_stop(self, monkeypatch, algorithm, epsilon):
        cfg = AlgorithmConfig(epsilon=epsilon, max_iters=2000, grad_tol=0.0)
        log, steps = _compare(monkeypatch, algorithm, "ring10", cfg)
        assert log.diverged and log.final.iteration < cfg.max_iters
        assert steps - log.final.iteration < MAX_BLOCK

    @pytest.mark.parametrize("nan_at", [1, 2, 5])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_nan_stop(self, monkeypatch, algorithm, nan_at):
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=100, grad_tol=0.0)
        log, _ = _compare(monkeypatch, algorithm, "ring10", cfg, nan_at=nan_at)
        assert log.diverged and log.final.iteration == nan_at and len(log) == nan_at + 1
        assert math.isnan(log.final.consensus_err)

    def test_nan_in_the_start_is_not_checked(self, monkeypatch):
        # Iteration 0 gets no divergence test, and its NaN gradient norm fails "> grad_tol".
        instance = _instance("ring10")
        x0 = rng_for(3).standard_normal((10, 5))
        x0[2, 3] = np.nan
        state, log = run("giant", instance, ring_mixing(10), AlgorithmConfig(), x0)
        assert len(log) == 1 and not log.diverged and state.iteration == 0


class TestMidBlockErrors:
    # Blocks end at iterations 1, 3, 7, 15: iterations 4-7 are one block.
    def test_stop_before_the_error_returns(self, monkeypatch):
        cfg = AlgorithmConfig(epsilon=0.25, max_iters=100, grad_tol=1e-10)
        log, steps = _compare(monkeypatch, "giant", "ring10", cfg, replace_at=5, raise_at=6)
        assert not log.diverged and log.final.iteration == 5 and log.final.grad_norm <= cfg.grad_tol
        assert steps == 6

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_divergence_before_the_error_returns(self, monkeypatch, algorithm):
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=100, grad_tol=0.0)
        log, steps = _compare(monkeypatch, algorithm, "ring10", cfg, nan_at=4, raise_at=6)
        assert log.diverged and log.final.iteration == 4
        assert steps == 6

    @pytest.mark.parametrize("raise_at", [1, 2, 5, 7])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_error_without_a_stop_propagates(self, monkeypatch, algorithm, raise_at):
        instance = _instance("ring10")
        _, calls = _counted(monkeypatch, algorithm, raise_at=raise_at)
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=100, grad_tol=0.0)
        with pytest.raises(NotPositiveDefinite, match=f"injected at step {raise_at}"):
            run(algorithm, instance, ring_mixing(10), cfg, rng_for(3).standard_normal((10, 5)))
        assert len(calls) == raise_at
