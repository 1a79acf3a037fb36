"""The block-checked run loop against the loop that checks after every step.

``run`` advances a block of steps and then computes the records, drifts
and divergence of the whole block in one batched pass. ``_reference_run``
below is the loop it replaced, written out with its own per-iteration
metric formulas (``np.add.reduce`` per state, norms as one ``dot`` over
the flattened array), so every comparison here is bitwise: records,
divergence flag, final state, and the number of steps taken. Once a
state repeats an earlier one bit for bit, ``run`` writes the rest of its
log from the rows of that cycle without stepping; the reference never
does, so the fast-forwarded rows and the final state are checked against
steps that were really taken.
"""

import math
import re
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from giantnet import (
    ALGORITHMS,
    AlgorithmConfig,
    DimensionMismatch,
    InvalidParams,
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
from giantnet.algorithms import MAX_BLOCK, _block_cap, _same_bits
from giantnet.diagnostics import DIVERGENCE_LIMIT, MetricsLog, MetricsRecord
from giantnet.objectives import AgentFamily

from conftest import ring_mixing, rng_for

STEPS = {"giant": "giant_step", "gt": "gt_step", "dgd": "dgd_step"}


def _norm(v):
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _reference_run(algorithm, instance, P, cfg, x0, step):
    """Check after every step: one record, one drift and one divergence test per iteration."""
    f_star = instance.objective.value(instance.reference_solution)
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

    rows, stopped = [], False
    with np.errstate(all="ignore"):
        rows.append(record(state, 0))
        k = 0
        while k < cfg.max_iters and rows[-1].grad_norm > cfg.grad_tol:
            state = step(state, instance, P, cfg)
            k += 1
            rows.append(record(state, k))
            if diverged(state):
                stopped = True
                break
    return state, MetricsLog(np.array(rows, dtype=float), stopped)


def _counted(monkeypatch, algorithm, nan_at=None, raise_at=None, replace_at=None):
    """Rebind the module's step to a wrapper that records the state of each call and can inject a NaN, an error or a state."""
    original = getattr(algorithms, STEPS[algorithm])
    calls = []

    def step(state, instance, P, cfg):
        calls.append(state)
        if len(calls) == raise_at:
            raise NotPositiveDefinite(f"injected at step {raise_at}")
        out = original(state, instance, P, cfg)
        if len(calls) == nan_at:
            x = out.x.copy() if isinstance(out, NetworkState) else out.copy()
            x[0, 0] = np.nan
            out = NetworkState(x, out.g, out.w) if isinstance(out, NetworkState) else x
        if len(calls) == replace_at:
            out = _at_minimizer(out, instance)
        return out

    monkeypatch.setattr(algorithms, STEPS[algorithm], step)
    return step, calls


def _at_minimizer(out, instance):
    # Every agent at the minimizer: the averaged gradient there is roundoff, below any grad_tol used here.
    return NetworkState(np.tile(instance.reference_solution, (instance.n_agents, 1)), out.g, out.w)


class DiagonalQuadratic(AgentFamily):
    """f_i(x) = 0.5 * sum_j h_ij (x_j - c_ij)^2 + e_i over stacks h > 0 and c (n, d), e (n,): a pure user family."""

    def __init__(self, h, c, e):
        self.h, self.c, self.e = h, c, e

    @property
    def shape(self):
        return self.h.shape

    @property
    def floats(self):
        return 3 * self.h.size  # x - c, its product with h and their product, per point

    def values_and_gradients(self, x):
        r = x - self.c
        g = self.h * r
        return 0.5 * (g * r).sum(axis=1) + self.e, g

    def gradients(self, x):
        return self.h * (x - self.c)

    def hessians(self, x):
        return np.broadcast_to(self.h, x.shape)[:, :, None] * np.eye(x.shape[1])

    @cached_property
    def average(self):
        # The mean of the agents is one diagonal quadratic: curvature h_bar, center
        # mean(h * c) / h_bar, and what the centers' spread leaves in the offset.
        h = self.h.mean(axis=0)
        c = (self.h * self.c).mean(axis=0) / h
        e = 0.5 * ((self.h * self.c * self.c).mean(axis=0) - h * c * c).sum() + self.e.mean()
        return DiagonalQuadratic(h[None], c[None], np.array([e]))


def _instance(name):
    if name == "user":  # a family written outside the package, at n = 10, d = 5
        rng = rng_for(50)
        h = rng.uniform(1.0, 4.0, (10, 5))
        family = DiagonalQuadratic(h, rng.standard_normal((10, 5)), rng.standard_normal(10))
        return ProblemInstance(family, mu=h.min(), lipschitz=h.max(), reference_solution=family.average.c[0])
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
        return (state.x.tobytes(), state.g.tobytes(), state.w.tobytes())
    return state.tobytes()


def _assert_same_run(got, want):
    (state, log), (ref_state, ref_log) = got, want
    assert _bits(log) == _bits(ref_log)
    if np.isfinite(np.array(ref_log.records, dtype=float)).all():
        assert log.records == ref_log.records
    assert all(type(v) is float for r in log.records for v in r[1:])
    assert log.diverged == ref_log.diverged
    assert _state_bits(state) == _state_bits(ref_state)


def _compare(monkeypatch, algorithm, instance_name, cfg, x0=None, **inject):
    instance = _instance(instance_name)
    n, d = instance.family.shape
    P = ring_mixing(n)
    x0 = rng_for(3).standard_normal((n, d)) if x0 is None else x0
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
        "name, cap", [("ring10", MAX_BLOCK), ("scalar", MAX_BLOCK), ("logistic", 59)]
    )
    def test_caps(self, name, cap):
        assert _block_cap(_instance(name)) == cap

    def test_benchmark_shapes(self):
        # ring1000 holds 3nd = 15000 state floats per iteration; er100 6000, and its pooled
        # average makes four temporaries of its 5000 samples at the checked point.
        ring = generate_problem(1, ProblemSpec(kind="quadratic", n=1000, d=5, heterogeneity=1.0))
        assert _block_cap(ring) == 4
        er = generate_problem(1, ProblemSpec(kind="logistic", n=100, d=20, samples_per_agent=50))
        assert _block_cap(er) == 2

    def test_benchmark_logistic_run_at_its_cap_and_at_cap_one(self, monkeypatch):
        spec = ProblemSpec(kind="logistic", n=100, d=20, samples_per_agent=50)
        instance = generate_problem(1, spec)
        instance = instance.with_reference(centralized_newton(instance, np.zeros(20)))
        P = ring_mixing(100)
        x0 = rng_for(3).standard_normal((100, 20))
        cfg = AlgorithmConfig(epsilon=0.2, max_iters=30, grad_tol=0.0)
        assert _block_cap(instance) == 2
        got = run("giant", instance, P, cfg, x0)
        monkeypatch.setattr(algorithms, "MAX_BLOCK", 1)
        assert _block_cap(instance) == 1
        _assert_same_run(got, run("giant", instance, P, cfg, x0))
        assert got[1].final.iteration == cfg.max_iters

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

    @pytest.mark.parametrize("cap", [3, MAX_BLOCK])
    @pytest.mark.parametrize("resume_at", [None, 0, 5, 96])
    def test_blocks_are_a_function_of_the_iteration(self, monkeypatch, cap, resume_at):
        # A block from iteration k takes min(k + 1, cap, max_iters - k) steps, so a run resumed
        # at k takes the blocks any run takes at k, and a fresh run (None) doubles 1, 2, 4, ...
        monkeypatch.setattr(algorithms, "MAX_BLOCK", cap)
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=300, grad_tol=0.0)
        start = None if resume_at is None else run("gt", instance, P, replace(cfg, max_iters=resume_at), x0)
        blocks, check_block = [], algorithms.check_block

        def recorded(instance, x, w, g, first_iteration, f_star):
            blocks.append((first_iteration, len(x)))
            return check_block(instance, x, w, g, first_iteration, f_star)

        monkeypatch.setattr(algorithms, "check_block", recorded)
        _, log = run("gt", instance, P, cfg, x0, start=start)
        assert log.final.iteration == cfg.max_iters and not log.diverged
        k, want = resume_at or 0, [(0, 1)] if resume_at is None else []  # a fresh run checks its row 0 alone
        while k < cfg.max_iters:
            want.append((k + 1, min(k + 1, cap, cfg.max_iters - k)))
            k += want[-1][1]
        assert blocks == want
        if (resume_at, cap) == (96, MAX_BLOCK):
            assert blocks == [(97, 64), (161, 64), (225, 64), (289, 12)]
        if (resume_at, cap) == (None, MAX_BLOCK):
            assert [size for _, size in blocks[1:]] == [1, 2, 4, 8, 16, 32, 64, 64, 64, 45]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_finite_start_raises(self, algorithm, bad):
        # Iteration 0 gets no divergence test, and a NaN gradient norm there would read as a stop.
        x0 = rng_for(3).standard_normal((10, 5))
        x0[2, 3] = bad
        with pytest.raises(InvalidParams, match="^x0 must be finite, got 1 of 50 entries NaN or infinite$"):
            run(algorithm, _instance("ring10"), ring_mixing(10), AlgorithmConfig(), x0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_finite_start_beyond_the_limit_diverges_at_iteration_1(self, algorithm):
        x0 = rng_for(3).standard_normal((10, 5))
        x0[2, 3] = 1e13
        _, log = run(algorithm, _instance("ring10"), ring_mixing(10), AlgorithmConfig(), x0)
        assert log.diverged and log.final.iteration == 1 and log.records[0].opt_gap > DIVERGENCE_LIMIT


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


def _cycle(start, period):
    """A pure step: x[0, 0] + 1 below start + period - 1, else start. From x[0, 0] = 0 it has that period from iteration start."""

    def step(state, instance, P, cfg):
        tracked = isinstance(state, NetworkState)
        x = (state.x if tracked else state).copy()
        x[0, 0] = x[0, 0] + 1 if x[0, 0] < start + period - 1 else start
        return NetworkState(x, state.g, state.w) if tracked else x

    return step


def _held_x(drift):
    """A pure step: x kept, g zeroed, w[0, 0] = -w[1, 0] = w[0, 0] + drift. Every row after the first is equal."""

    def step(state, instance, P, cfg):
        w = np.zeros_like(state.w)
        w[0, 0] = state.w[0, 0] + drift
        w[1, 0] = -w[0, 0]  # the agent sums stay exactly 0, so the drift column stays 0
        return NetworkState(state.x, np.zeros_like(state.g), w)

    return step


class TestFastForward:
    @pytest.mark.parametrize(
        "algorithm, epsilon, most_steps",
        [("dgd", 0.02, 700), ("dgd", 0.05, 400), ("giant", 0.25, 1400), ("gt", 0.02, 900)],
    )
    def test_runs_that_settle_into_a_cycle(self, monkeypatch, algorithm, epsilon, most_steps):
        # dgd stalls at its biased fixed point; giant and gt at grad_tol 0 at x* up to roundoff.
        cfg = AlgorithmConfig(epsilon=epsilon, max_iters=5000, grad_tol=0.0)
        log, steps = _compare(monkeypatch, algorithm, "ring10", cfg)
        assert not log.diverged and log.final.iteration == cfg.max_iters
        assert steps <= most_steps

    # The cycle starts at iteration 100 and is first seen at the end of the block 64-127.
    @pytest.mark.parametrize("left", [1, 2, 3, 4])
    @pytest.mark.parametrize("algorithm", ["dgd", "giant"])
    def test_period_three_up_to_max_iters(self, monkeypatch, algorithm, left):
        monkeypatch.setattr(algorithms, STEPS[algorithm], _cycle(100, 3))
        x0 = rng_for(3).standard_normal((10, 5))
        x0[0, 0] = 0.0
        cfg = AlgorithmConfig(max_iters=127 + left, grad_tol=0.0)
        log, steps = _compare(monkeypatch, algorithm, "ring10", cfg, x0=x0)
        assert steps == 127 and log.final.iteration == cfg.max_iters
        assert log.table[-1, 1] == log.table[127 + left - 3, 1] != log.table[127 + left - 1, 1]

    # The same cycle at periods 1 and 2: the 19,873 rows after iteration 127 are written, not stepped.
    @pytest.mark.parametrize("period", [1, 2])
    def test_long_tail_of_a_short_period(self, monkeypatch, period):
        monkeypatch.setattr(algorithms, "dgd_step", _cycle(100, period))
        x0 = rng_for(3).standard_normal((10, 5))
        x0[0, 0] = 0.0
        cfg = AlgorithmConfig(max_iters=20_000, grad_tol=0.0)
        log, steps = _compare(monkeypatch, "dgd", "ring10", cfg, x0=x0)
        assert steps == 127 and log.final.iteration == cfg.max_iters
        gaps = log.table[100:, 1]
        assert len(np.unique(gaps)) == period and (gaps[period:] == gaps[:-period]).all()

    def test_equal_rows_of_unequal_states_are_not_a_cycle(self, monkeypatch):
        monkeypatch.setattr(algorithms, "giant_step", _held_x(1.0))
        cfg = AlgorithmConfig(max_iters=300, grad_tol=0.0)
        log, steps = _compare(monkeypatch, "giant", "ring10", cfg)
        assert steps == cfg.max_iters
        assert (log.table[1:, 1:] == log.table[-1, 1:]).all()

    def test_a_held_state_is_a_cycle_of_one(self, monkeypatch):
        # The same step with w held: the states of iterations 2 and 3 are equal.
        monkeypatch.setattr(algorithms, "giant_step", _held_x(0.0))
        cfg = AlgorithmConfig(max_iters=300, grad_tol=0.0)
        log, steps = _compare(monkeypatch, "giant", "ring10", cfg)
        assert steps == 3 and log.final.iteration == cfg.max_iters

    def test_states_compare_by_bits(self):
        zeros = np.zeros((2, 3))
        assert not _same_bits(zeros, -zeros)
        nan = np.full((2, 3), np.nan)
        assert _same_bits(nan, nan.copy())


class TestUserFamily:
    """A family written outside the package runs at its own cap, as the built-in ones do."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_at_its_cap_and_at_cap_one(self, monkeypatch, algorithm):
        instance = _instance("user")
        P = ring_mixing(10)
        x0 = rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=3000, grad_tol=1e-12)
        assert _block_cap(instance) == MAX_BLOCK  # 3nd = 150 state floats and 15 of the average's per iteration
        got = run(algorithm, instance, P, cfg, x0)
        monkeypatch.setattr(algorithms, "MAX_BLOCK", 1)
        assert _block_cap(instance) == 1
        _assert_same_run(got, run(algorithm, instance, P, cfg, x0))

    def test_stalled_dgd_is_fast_forwarded(self, monkeypatch):
        # dgd stalls at its biased fixed point: the rows after the cycle is found are written, not stepped.
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=5000, grad_tol=0.0)
        log, steps = _compare(monkeypatch, "dgd", "user", cfg)
        assert not log.diverged and log.final.iteration == cfg.max_iters
        assert steps < 1000


class TestTargetStop:
    """``run(..., target=t)`` also stops at the row ``MetricsLog.first_iteration_below(t)`` names."""

    @staticmethod
    def _runs(monkeypatch, algorithm, instance, cfg, row):
        n, d = instance.family.shape
        P, x0 = ring_mixing(n), rng_for(3).standard_normal((n, d))
        _, full = run(algorithm, instance, P, cfg, x0)
        target = full.table[row, 1]  # a logged gap: the run stops at it, not after it
        _, calls = _counted(monkeypatch, algorithm)
        return full, target, run(algorithm, instance, P, cfg, x0, target=target), len(calls), (P, x0)

    @pytest.mark.parametrize("row", [1, 37, -1])
    @pytest.mark.parametrize("instance_name", ["ring10", "logistic"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_log_is_the_full_log_cut_at_the_hit(self, monkeypatch, algorithm, instance_name, row):
        instance = _instance(instance_name)
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=400, grad_tol=1e-12)
        full, target, (state, log), steps, (P, x0) = self._runs(monkeypatch, algorithm, instance, cfg, row)
        hit = full.first_iteration_below(target)
        assert not full.diverged and hit <= len(full) - 1
        assert log.table.tobytes() == full.table[: hit + 1].tobytes() and not log.diverged
        assert log.first_iteration_below(target) == hit == log.final.iteration
        assert hit <= steps < hit + MAX_BLOCK
        monkeypatch.undo()
        want, _ = run(algorithm, instance, P, replace(cfg, max_iters=hit), x0)
        assert _state_bits(state) == _state_bits(want)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_hit_at_iteration_zero_returns_one_row(self, monkeypatch, algorithm):
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=400, grad_tol=1e-12)
        full, _, (state, log), steps, (_, x0) = self._runs(monkeypatch, algorithm, _instance("ring10"), cfg, 0)
        assert log.table.tobytes() == full.table[:1].tobytes() and steps == 0
        assert (state if algorithm == "dgd" else state.x).tobytes() == x0.tobytes()

    def test_a_cycling_dgd_run_stops_at_a_hit_above_its_floor(self, monkeypatch):
        # dgd at eps 0.02 stalls at its biased fixed point with a gap of 1.42e-3 and cycles there.
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=5000, grad_tol=1e-10)
        _, calls = _counted(monkeypatch, "dgd")
        _, full = run("dgd", instance, P, cfg, x0)
        assert len(calls) < 1000 and len(full) == cfg.max_iters + 1  # fast-forwarded
        assert 1e-3 < full.table[:, 1].min() < 2e-3
        _, above = run("dgd", instance, P, cfg, x0, target=2e-3)
        hit = full.first_iteration_below(2e-3)
        assert above.table.tobytes() == full.table[: hit + 1].tobytes()
        _, below = run("dgd", instance, P, cfg, x0, target=1e-3)
        assert below.table.tobytes() == full.table.tobytes() and not below.diverged

    # A NaN or negative target would stop no run, and True is a flag, not a gap.
    @pytest.mark.parametrize("target", ["x", math.nan, -1.0, True, math.inf])
    def test_a_target_that_is_not_a_finite_real_at_least_0_is_rejected(self, monkeypatch, target):
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        _, calls = _counted(monkeypatch, "giant")
        with pytest.raises(InvalidParams, match=f"^target must be a finite number >= 0, got {re.escape(repr(target))}$"):
            run("giant", instance, P, AlgorithmConfig(epsilon=0.25, max_iters=50), x0, target=target)
        assert not calls


def _sliced(state):
    """``state`` with its last column dropped."""
    if isinstance(state, NetworkState):
        return NetworkState(state.x[:, :-1], state.g[:, :-1], state.w[:, :-1])
    return state[:, :-1]


class TestResume:
    """``run(..., start=(state, log))`` steps on from an early stop and returns the run without ``start``, bit for bit."""

    @pytest.mark.parametrize("row", [0, 1, 37, -1])
    @pytest.mark.parametrize("instance_name", ["ring10", "logistic"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_resumed_from_a_hit(self, monkeypatch, algorithm, instance_name, row):
        instance = _instance(instance_name)
        n, d = instance.family.shape
        P, x0 = ring_mixing(n), rng_for(3).standard_normal((n, d))
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=400, grad_tol=1e-12)
        full = run(algorithm, instance, P, cfg, x0)
        target = full[1].table[row, 1]
        early = run(algorithm, instance, P, cfg, x0, target=target)
        hit = early[1].final.iteration
        _, calls = _counted(monkeypatch, algorithm)
        # The start's last row meets the target, so a resumed run with that target returns it at once.
        assert run(algorithm, instance, P, cfg, x0, target=target, start=early)[1].table.tobytes() == (
            early[1].table.tobytes()
        )
        assert not calls
        resumed = run(algorithm, instance, P, cfg, None, start=early)  # x0 is not read
        _assert_same_run(resumed, full)
        if hit == full[1].final.iteration:
            assert not calls
        else:  # the first step is taken from the hit's state: none at or before the hit is repeated
            assert calls[0] is early[0] and hit + len(calls) < full[1].final.iteration + MAX_BLOCK

    def test_a_dgd_start_fast_forwards_after_it_resumes(self, monkeypatch):
        # dgd at eps 0.02 passes a gap of 2e-3 on its way to a floor of 1.42e-3, where it cycles.
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=5000, grad_tol=1e-10)
        full = run("dgd", instance, P, cfg, x0)
        early = run("dgd", instance, P, cfg, x0, target=2e-3)
        assert len(early[1]) < 500
        _, calls = _counted(monkeypatch, "dgd")
        resumed = run("dgd", instance, P, cfg, x0, start=early)
        _assert_same_run(resumed, full)
        assert calls[0] is early[0] and len(calls) < 1000 and len(full[1]) == cfg.max_iters + 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_resumed_from_a_lower_max_iters(self, monkeypatch, algorithm):
        instance, P, x0 = _instance("logistic"), ring_mixing(8), rng_for(3).standard_normal((8, 6))
        cfg = AlgorithmConfig(epsilon=EPSILON[algorithm], max_iters=300, grad_tol=1e-12)
        early = run(algorithm, instance, P, replace(cfg, max_iters=50), x0)
        _, calls = _counted(monkeypatch, algorithm)
        resumed = run(algorithm, instance, P, cfg, x0, start=early)
        assert calls[0] is early[0]
        monkeypatch.undo()
        _assert_same_run(resumed, run(algorithm, instance, P, cfg, x0))

    def test_a_diverged_start_is_rejected(self):
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=2.0, max_iters=2000, grad_tol=0.0)
        start = run("dgd", instance, P, cfg, x0)
        assert start[1].diverged
        with pytest.raises(InvalidParams, match="^start must be a log that did not diverge"):
            run("dgd", instance, P, cfg, x0, start=start)

    def test_a_start_past_max_iters_is_rejected(self):
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=0.25, max_iters=50, grad_tol=0.0)
        start = run("giant", instance, P, cfg, x0)
        with pytest.raises(InvalidParams, match="ends by max_iters = 49, got diverged=False at iteration 50"):
            run("giant", instance, P, replace(cfg, max_iters=49), x0, start=start)

    @pytest.mark.parametrize("algorithm, other", [("giant", "dgd"), ("gt", "dgd"), ("dgd", "giant")])
    def test_a_start_of_the_wrong_kind_is_rejected(self, algorithm, other):
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=3)
        start = run(other, instance, P, replace(cfg, max_iters=2), x0)
        with pytest.raises(DimensionMismatch, match=f"^{algorithm} resumes from a"):
            run(algorithm, instance, P, cfg, x0, start=start)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_start_of_the_wrong_shape_is_rejected(self, algorithm):
        instance, P, x0 = _instance("ring10"), ring_mixing(10), rng_for(3).standard_normal((10, 5))
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=3)
        state, log = run(algorithm, instance, P, replace(cfg, max_iters=2), x0)
        with pytest.raises(DimensionMismatch, match=r"^stacked iterate has shape \(10, 4\)"):
            run(algorithm, instance, P, cfg, x0, start=(_sliced(state), log))
