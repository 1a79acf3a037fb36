import importlib.util
from pathlib import Path

import numpy as np
import pytest

from giantnet import (
    ALGORITHMS,
    AlgorithmConfig,
    DimensionMismatch,
    InvalidParams,
    MaxItersExceeded,
    MissingReference,
    MixingMatrix,
    NotPositiveDefinite,
    ProblemInstance,
    ProblemSpec,
    centralized_newton,
    dgd_step,
    generate_problem,
    giant_init,
    giant_step,
    gt_init,
    gt_step,
    make_graph,
    metropolis_weights,
    run,
    tracking_drift,
)
from giantnet.objectives import LocalObjective

from conftest import identical_quadratic_instance, ring_mixing, rng_for


class TestInit:
    def test_zero_start_on_centered_quadratic(self):
        inst = identical_quadratic_instance(3, np.zeros(2))
        state = giant_init(inst, np.zeros((3, 2)))
        assert np.array_equal(state.g, np.zeros((3, 2)))
        assert np.array_equal(state.w, np.zeros((3, 2)))
        assert state.iteration == 0

    def test_single_agent_scalar(self):
        inst = identical_quadratic_instance(1, np.zeros(1))
        state = giant_init(inst, np.array([[1.0]]))
        assert state.g[0, 0] == 1.0
        assert state.w[0, 0] == 1.0

    def test_tracker_sum_matches_gradient_sum(self, hetero_ring):
        instance, _, x0 = hetero_ring
        state = giant_init(instance, x0)
        grads = instance.stacked_gradient(x0)
        assert np.array_equal(state.w.sum(axis=0), grads.sum(axis=0))

    def test_shape_check(self):
        inst = identical_quadratic_instance(3, np.zeros(2))
        with pytest.raises(DimensionMismatch):
            giant_init(inst, np.zeros((2, 2)))


class TestGiantStep:
    def test_zero_step_size_is_pure_consensus(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = giant_init(instance, x0)
        nxt = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.0))
        assert np.allclose(nxt.x, mix.p @ x0, atol=1e-15)

    def test_exact_newton_on_shared_quadratic(self):
        # complete graph, identical f_i(x) = 0.5 ||x - c||^2, shared start:
        # the tracker holds the average gradient after one round and the
        # unit Newton step lands every agent exactly on c
        c = np.array([2.0, -1.0, 0.5])
        inst = identical_quadratic_instance(6, c)
        mix = metropolis_weights(make_graph("complete", 6))
        state = giant_init(inst, np.zeros((6, 3)))
        nxt = giant_step(state, inst, mix, AlgorithmConfig(epsilon=1.0, K=1))
        assert np.allclose(nxt.x, np.tile(c, (6, 1)), atol=1e-12)
        # agreement with the centralized Newton oracle on the same cost
        oracle = centralized_newton(inst, np.zeros(3), tol=1e-12)
        assert np.allclose(nxt.x[0], oracle, atol=1e-12)

    def test_single_agent_damped_newton(self):
        inst = identical_quadratic_instance(1, np.zeros(1))
        mix = metropolis_weights(make_graph("ring", 1))
        state = giant_init(inst, np.array([[1.0]]))
        nxt = giant_step(state, inst, mix, AlgorithmConfig(epsilon=0.5))
        assert nxt.x[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_tracking_invariant_over_many_steps(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = giant_init(instance, x0)
        for _ in range(200):
            prev = state.x
            state = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.25))
            expected = instance.stacked_gradient(prev).sum(axis=0)
            assert np.linalg.norm(state.w.sum(axis=0) - expected) <= 1e-9

    def test_mean_dynamics_consistency(self, hetero_ring):
        # the mean iterate moves by -eps/n times the summed Newton
        # directions; directions recomputed here with a dense solve
        instance, mix, x0 = hetero_ring
        cfg = AlgorithmConfig(epsilon=0.2, K=2)
        state = giant_init(instance, x0)
        for _ in range(5):
            p_eff = mix.power(cfg.K)
            grads = instance.stacked_gradient(state.x)
            w_next = p_eff @ (state.w + grads - state.g)
            dirs = np.stack(
                [
                    np.linalg.solve(obj.hessian(state.x[i]), w_next[i])
                    for i, obj in enumerate(instance.objectives)
                ]
            )
            expected_shift = -cfg.epsilon / instance.n_agents * dirs.sum(axis=0)
            nxt = giant_step(state, instance, mix, cfg)
            shift = nxt.x.mean(axis=0) - state.x.mean(axis=0)
            assert np.linalg.norm(shift - expected_shift) <= 1e-10
            state = nxt

    def test_k_rounds_bitwise_equal_squared_matrix(self, hetero_ring):
        instance, mix, _ = hetero_ring
        squared = MixingMatrix(mix.p @ mix.p)
        rng = rng_for(17)
        for _ in range(20):
            x = rng.standard_normal((10, 5))
            g = rng.standard_normal((10, 5))
            w = rng.standard_normal((10, 5))
            from giantnet.algorithms import NetworkState

            state = NetworkState(x=x, g=g, w=w, iteration=0)
            a = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.3, K=2))
            b = giant_step(state, instance, squared, AlgorithmConfig(epsilon=0.3, K=1))
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.g, b.g)

    def test_steady_state_is_fixed_point(self, hetero_ring):
        # at consensus on the minimizer the tracker holds the (zero)
        # average gradient, so nothing moves
        instance, mix, _ = hetero_ring
        from giantnet.algorithms import NetworkState

        x_star = instance.reference_solution
        x = np.tile(x_star, (instance.n_agents, 1))
        g = instance.stacked_gradient(x)
        w = np.tile(instance.average_gradient(x_star), (instance.n_agents, 1))
        state = NetworkState(x=x, g=g, w=w, iteration=0)
        nxt = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.5))
        assert np.abs(nxt.x - x).max() <= 1e-12
        assert np.abs(nxt.w - w).max() <= 1e-12
        assert np.abs(nxt.g - g).max() <= 1e-12

    def test_gap_monotone_below_instance_threshold(self, hetero_ring):
        # the threshold is instance dependent, so search downward for it
        instance, mix, x0 = hetero_ring

        def monotone(eps):
            _, log = run(
                "giant", instance, mix, AlgorithmConfig(epsilon=eps, max_iters=400, grad_tol=0.0), x0
            )
            gaps = log.gaps()
            start = len(gaps) // 10
            return all(
                gaps[k + 1] <= gaps[k] + 1e-12
                for k in range(start, len(gaps) - 1)
                if gaps[k + 1] > 1e-14
            )

        assert any(monotone(eps) for eps in (0.05, 0.02, 0.01))

    def test_not_positive_definite_propagates(self):
        class Saddle(LocalObjective):
            @property
            def dimension(self):
                return 2

            def value(self, x):
                return float(0.5 * (x[0] ** 2 - x[1] ** 2))

            def gradient(self, x):
                return np.array([x[0], -x[1]])

            def hessian(self, x):
                return np.diag([1.0, -1.0])

        inst = ProblemInstance((Saddle(),), mu=1.0, lipschitz=1.0)
        mix = metropolis_weights(make_graph("ring", 1))
        state = giant_init(inst, np.ones((1, 2)))
        with pytest.raises(NotPositiveDefinite):
            giant_step(state, inst, mix, AlgorithmConfig())


class TestBaselines:
    def test_dgd_zero_step_is_consensus(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        assert np.allclose(dgd_step(x0, instance, mix, 0.0), mix.p @ x0, atol=1e-15)

    def test_dgd_scalar_gradient_descent(self):
        inst = identical_quadratic_instance(1, np.zeros(1))
        mix = metropolis_weights(make_graph("ring", 1))
        x1 = dgd_step(np.array([[1.0]]), inst, mix, 0.1)
        assert x1[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_dgd_matches_centralized_gd_at_consensus(self):
        c = np.array([1.0, 2.0])
        inst = identical_quadratic_instance(4, c)
        mix = metropolis_weights(make_graph("complete", 4))
        x = np.tile(np.array([3.0, -1.0]), (4, 1))
        z = x[0].copy()
        eps = 0.3
        for _ in range(10):
            x = dgd_step(x, inst, mix, eps)
            z = z - eps * (z - c)  # centralized oracle on f(x) = 0.5||x - c||^2
            assert np.allclose(x, np.tile(z, (4, 1)), atol=1e-12)

    def test_gt_matches_centralized_gd_at_consensus(self):
        c = np.array([-0.5, 1.5])
        inst = identical_quadratic_instance(5, c)
        mix = metropolis_weights(make_graph("complete", 5))
        x0 = np.tile(np.array([2.0, 2.0]), (5, 1))
        state = gt_init(inst, x0)
        z = x0[0].copy()
        eps = 0.2
        for _ in range(10):
            state = gt_step(state, inst, mix, eps)
            z = z - eps * (z - c)
            assert np.allclose(state.x, np.tile(z, (5, 1)), atol=1e-12)

    def test_gt_tracking_identity(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = gt_init(instance, x0)
        for _ in range(100):
            state = gt_step(state, instance, mix, 0.02)
            expected = instance.stacked_gradient(state.x).sum(axis=0)
            assert np.linalg.norm(state.y.sum(axis=0) - expected) <= 1e-9

    def test_gt_zero_step_keeps_tracking(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = gt_init(instance, x0)
        nxt = gt_step(state, instance, mix, 0.0)
        assert np.allclose(nxt.x, mix.p @ x0, atol=1e-15)
        expected = instance.stacked_gradient(nxt.x).sum(axis=0)
        assert np.linalg.norm(nxt.y.sum(axis=0) - expected) <= 1e-9


class TestCentralizedNewton:
    def test_quadratic_one_iteration(self):
        inst = identical_quadratic_instance(3, np.array([4.0, -2.0]))
        x = centralized_newton(inst, np.zeros(2), tol=1e-12, max_iters=1)
        assert np.allclose(x, [4.0, -2.0], atol=1e-12)

    def test_logistic_postcondition(self):
        inst = generate_problem(4, ProblemSpec(kind="logistic", n=4, d=3, samples_per_agent=15))
        x = centralized_newton(inst, np.zeros(3), tol=1e-12)
        assert np.linalg.norm(inst.average_gradient(x)) <= 1e-12

    def test_max_iters_exceeded(self):
        inst = identical_quadratic_instance(2, np.array([1.0]))
        with pytest.raises(MaxItersExceeded):
            centralized_newton(inst, np.array([5.0]), tol=1e-12, max_iters=0)


class TestRun:
    def test_zero_max_iters_single_record(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        _, log = run("giant", instance, mix, AlgorithmConfig(max_iters=0), x0)
        assert len(log) == 1
        assert log.records[0].iteration == 0

    def test_exact_newton_terminates_at_one(self):
        c = np.array([1.0, 1.0])
        inst = identical_quadratic_instance(4, c)
        mix = metropolis_weights(make_graph("complete", 4))
        _, log = run("giant", inst, mix, AlgorithmConfig(epsilon=1.0), np.zeros((4, 2)))
        assert log.final.iteration == 1
        assert log.final.opt_gap <= 1e-12

    def test_deterministic_replay(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        cfg = AlgorithmConfig(epsilon=0.25, max_iters=50, grad_tol=0.0)
        _, a = run("giant", instance, mix, cfg, x0)
        _, b = run("giant", instance, mix, cfg, x0)
        assert a.records == b.records

    def test_divergence_marked_not_raised(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        _, log = run("giant", instance, mix, AlgorithmConfig(epsilon=1.0, max_iters=500), x0)
        assert log.diverged
        assert log.final.iteration < 500

    @pytest.mark.parametrize("name", ["dgd", "gt"])
    def test_baselines_run_and_log(self, hetero_ring, name):
        instance, mix, x0 = hetero_ring
        _, log = run(name, instance, mix, AlgorithmConfig(epsilon=0.02, max_iters=100, grad_tol=0.0), x0)
        assert len(log) == 101
        drifts = [r.tracking_drift for r in log.records]
        if name == "dgd":
            assert all(d == 0.0 for d in drifts)
        else:
            assert max(drifts) <= 1e-9

    def test_requires_reference(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        from dataclasses import replace

        stripped = replace(instance, reference_solution=None)
        with pytest.raises(MissingReference):
            run("giant", stripped, mix, AlgorithmConfig(), x0)

    def test_logged_drift_is_the_independent_recomputation(self, hetero_ring):
        # oracle: diagnostics.tracking_drift, which re-evaluates the gradients
        instance, mix, x0 = hetero_ring
        cfg = AlgorithmConfig(epsilon=0.25, max_iters=8, grad_tol=0.0)
        _, log = run("giant", instance, mix, cfg, x0)
        state = giant_init(instance, x0)
        expected = [tracking_drift(state, instance, x0)]
        for _ in range(cfg.max_iters):
            prev = state.x
            state = giant_step(state, instance, mix, cfg)
            expected.append(tracking_drift(state, instance, prev))
        assert [r.tracking_drift for r in log.records] == expected

    def test_mixing_power_computed_once_per_run(self, hetero_ring, monkeypatch):
        instance, mix, x0 = hetero_ring
        calls = []
        original = MixingMatrix.power

        def counted(self, k):
            calls.append(k)
            return original(self, k)

        monkeypatch.setattr(MixingMatrix, "power", counted)
        _, log = run("giant", instance, mix, AlgorithmConfig(epsilon=0.1, K=3, max_iters=6, grad_tol=0.0), x0)
        assert len(log) == 7
        assert calls == [3]

    def test_benchmark_tracer_sees_each_step(self, hetero_ring):
        # perfbench/spans.py patches module namespaces only; run must look the
        # steps up by module-global name or the per-step spans read zero.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        instance, mix, x0 = hetero_ring
        cfg = AlgorithmConfig(epsilon=0.05, max_iters=3, grad_tol=0.0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for name in ("giant", "gt", "dgd"):
                run(name, instance, mix, cfg, x0)
        finally:
            restored = tracer.restore()
        report = tracer.report()
        assert report["absent"] == []
        for step in ("giant_step", "gt_step", "dgd_step"):
            assert report["calls"][f"algorithms.{step}"] == 3
        assert restored

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_mixing_size_checked_for_every_algorithm(self, name):
        instance = generate_problem(42, ProblemSpec(kind="quadratic", n=6, d=3))
        with pytest.raises(DimensionMismatch):
            run(name, instance, ring_mixing(5), AlgorithmConfig(max_iters=2), np.zeros((6, 3)))

    def test_unknown_algorithm(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        with pytest.raises(InvalidParams):
            run("sgd", instance, mix, AlgorithmConfig(), x0)


def test_config_validation():
    with pytest.raises(InvalidParams):
        AlgorithmConfig(epsilon=-0.1)
    with pytest.raises(InvalidParams):
        AlgorithmConfig(K=0)
    AlgorithmConfig(epsilon=0.0)  # pure consensus is allowed at library level
