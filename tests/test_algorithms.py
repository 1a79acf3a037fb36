import importlib.util
from dataclasses import fields
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
    NetworkState,
    NotPositiveDefinite,
    ProblemInstance,
    ProblemSpec,
    centralized_newton,
    dgd_step,
    generate_problem,
    giant_init,
    giant_step,
    gt_step,
    make_graph,
    metropolis_weights,
    run,
    tracking_drift,
)
from giantnet import topology
from giantnet.diagnostics import DIVERGENCE_LIMIT, check_block
from giantnet.numerics import _RowSparse
from giantnet.objectives import AgentFamily, QuadraticFamily

from conftest import identical_quadratic_instance, ring_mixing, rng_for
from reference import csr_product


class TestInit:
    def test_zero_start_on_centered_quadratic(self):
        inst = identical_quadratic_instance(3, np.zeros(2))
        state = giant_init(inst, np.zeros((3, 2)))
        assert np.array_equal(state.g, np.zeros((3, 2)))
        assert np.array_equal(state.w, np.zeros((3, 2)))
        assert [f.name for f in fields(state)] == ["x", "g", "w"]

    def test_single_agent_scalar(self):
        inst = identical_quadratic_instance(1, np.zeros(1))
        state = giant_init(inst, np.array([[1.0]]))
        assert state.g[0, 0] == 1.0
        assert state.w[0, 0] == 1.0

    def test_tracker_sum_matches_gradient_sum(self, hetero_ring):
        instance, _, x0 = hetero_ring
        state = giant_init(instance, x0)
        grads = instance.family.gradients(x0)
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
            expected = instance.family.gradients(prev).sum(axis=0)
            assert np.linalg.norm(state.w.sum(axis=0) - expected) <= 1e-9

    def test_mean_dynamics_consistency(self, hetero_ring):
        # the mean iterate moves by -eps/n times the summed Newton
        # directions; directions recomputed here with a dense solve
        instance, mix, x0 = hetero_ring
        cfg = AlgorithmConfig(epsilon=0.2, K=2)
        state = giant_init(instance, x0)
        for _ in range(5):
            p_eff = mix.power(cfg.K)
            grads = instance.family.gradients(state.x)
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

            state = NetworkState(x=x, g=g, w=w)
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
        g = instance.family.gradients(x)
        w = np.tile(instance.objective.gradient(x_star), (instance.n_agents, 1))
        state = NetworkState(x=x, g=g, w=w)
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
            gaps = log.table[:, 1]
            start = len(gaps) // 10
            return all(
                gaps[k + 1] <= gaps[k] + 1e-12
                for k in range(start, len(gaps) - 1)
                if gaps[k + 1] > 1e-14
            )

        assert any(monotone(eps) for eps in (0.05, 0.02, 0.01))

    def test_not_positive_definite_propagates(self):
        saddle = QuadraticFamily(np.diag([1.0, -1.0])[None], np.zeros((1, 2)), np.zeros(1))
        inst = ProblemInstance(saddle, mu=1.0, lipschitz=1.0)
        mix = metropolis_weights(make_graph("ring", 1))
        state = giant_init(inst, np.ones((1, 2)))
        with pytest.raises(NotPositiveDefinite):
            giant_step(state, inst, mix, AlgorithmConfig())


class TestBaselines:
    def test_dgd_zero_step_is_consensus(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        assert np.allclose(dgd_step(x0, instance, mix, AlgorithmConfig(epsilon=0.0)), mix.p @ x0, atol=1e-15)

    def test_dgd_scalar_gradient_descent(self):
        inst = identical_quadratic_instance(1, np.zeros(1))
        mix = metropolis_weights(make_graph("ring", 1))
        x1 = dgd_step(np.array([[1.0]]), inst, mix, AlgorithmConfig(epsilon=0.1))
        assert x1[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_dgd_matches_centralized_gd_at_consensus(self):
        c = np.array([1.0, 2.0])
        inst = identical_quadratic_instance(4, c)
        mix = metropolis_weights(make_graph("complete", 4))
        x = np.tile(np.array([3.0, -1.0]), (4, 1))
        z = x[0].copy()
        eps = 0.3
        for _ in range(10):
            x = dgd_step(x, inst, mix, AlgorithmConfig(epsilon=eps))
            z = z - eps * (z - c)  # centralized oracle on f(x) = 0.5||x - c||^2
            assert np.allclose(x, np.tile(z, (4, 1)), atol=1e-12)

    def test_gt_matches_centralized_gd_at_consensus(self):
        c = np.array([-0.5, 1.5])
        inst = identical_quadratic_instance(5, c)
        mix = metropolis_weights(make_graph("complete", 5))
        x0 = np.tile(np.array([2.0, 2.0]), (5, 1))
        state = giant_init(inst, x0)
        z = x0[0].copy()
        eps = 0.2
        for _ in range(10):
            state = gt_step(state, inst, mix, AlgorithmConfig(epsilon=eps))
            z = z - eps * (z - c)
            assert np.allclose(state.x, np.tile(z, (5, 1)), atol=1e-12)

    def test_gt_tracking_identity(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = giant_init(instance, x0)
        for _ in range(100):
            state = gt_step(state, instance, mix, AlgorithmConfig(epsilon=0.02))
            expected = instance.family.gradients(state.x).sum(axis=0)
            assert np.linalg.norm(state.w.sum(axis=0) - expected) <= 1e-9

    def test_gt_zero_step_keeps_tracking(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = giant_init(instance, x0)
        nxt = gt_step(state, instance, mix, AlgorithmConfig(epsilon=0.0))
        assert np.allclose(nxt.x, mix.p @ x0, atol=1e-15)
        expected = instance.family.gradients(nxt.x).sum(axis=0)
        assert np.linalg.norm(nxt.w.sum(axis=0) - expected) <= 1e-9


class TestCentralizedNewton:
    def test_quadratic_one_iteration(self):
        inst = identical_quadratic_instance(3, np.array([4.0, -2.0]))
        x = centralized_newton(inst, np.zeros(2), tol=1e-12, max_iters=1)
        assert np.allclose(x, [4.0, -2.0], atol=1e-12)

    def test_logistic_postcondition(self):
        inst = generate_problem(4, ProblemSpec(kind="logistic", n=4, d=3, samples_per_agent=15))
        x = centralized_newton(inst, np.zeros(3), tol=1e-12)
        assert np.linalg.norm(inst.objective.gradient(x)) <= 1e-12

    def test_max_iters_exceeded(self):
        inst = identical_quadratic_instance(2, np.array([1.0]))
        with pytest.raises(MaxItersExceeded):
            centralized_newton(inst, np.array([5.0]), tol=1e-12, max_iters=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tol", float("nan")),
            ("tol", float("inf")),  # every gradient norm is <= inf: x0 would come back as the minimizer
            ("tol", -1.0),
            ("tol", True),
            ("max_iters", -1),
            ("max_iters", True),
            ("max_iters", 2.5),
        ],
    )
    def test_rejects_bad_arguments(self, name, value):
        inst = identical_quadratic_instance(2, np.array([1.0]))
        with pytest.raises(InvalidParams, match=f"^{name} must be"):
            centralized_newton(inst, np.array([5.0]), **{name: value})


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
        # exactly the deleted one-matrix, per-point and 1-row helpers and the
        # ProblemInstance evaluation forwards; any other absent target fails
        assert sorted(report["absent"]) == [
            "giantnet.diagnostics.metrics_record",
            "giantnet.numerics.spd_factorize",
            "giantnet.numerics.spd_solve",
            "giantnet.objectives.LogisticObjective.hessian",
            "giantnet.objectives.ProblemInstance.average_gradient",
            "giantnet.objectives.ProblemInstance.average_value",
            "giantnet.objectives.ProblemInstance.stacked_gradient",
            "giantnet.objectives.QuadraticObjective.hessian",
        ]
        for step in ("giant_step", "gt_step", "dgd_step"):
            assert report["calls"][f"algorithms.{step}"] == 3
        assert restored

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_mixing_size_checked_for_every_algorithm(self, name):
        instance = generate_problem(42, ProblemSpec(kind="quadratic", n=6, d=3))
        with pytest.raises(DimensionMismatch):
            run(name, instance, ring_mixing(5), AlgorithmConfig(max_iters=2), np.zeros((6, 3)))

    @pytest.mark.parametrize(
        "step",
        [
            lambda inst, mix, x0: giant_step(giant_init(inst, x0), inst, mix, AlgorithmConfig(K=2)),
            lambda inst, mix, x0: gt_step(giant_init(inst, x0), inst, mix, AlgorithmConfig(epsilon=0.1)),
            lambda inst, mix, x0: dgd_step(x0, inst, mix, AlgorithmConfig(epsilon=0.1)),
        ],
        ids=["giant", "gt", "dgd"],
    )
    def test_mixing_size_checked_by_every_step(self, step):
        # the steps called directly, without run's up-front check
        instance = generate_problem(42, ProblemSpec(kind="quadratic", n=6, d=3))
        with pytest.raises(DimensionMismatch, match="5x5 for 6 agents"):
            step(instance, ring_mixing(5), np.zeros((6, 3)))

    @pytest.mark.parametrize("n,d", [(1, 4), (6, 1), (1, 1)])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_single_agent_and_scalar_runs_converge(self, kind, n, d):
        instance = generate_problem(11, ProblemSpec(kind=kind, n=n, d=d, heterogeneity=1.0))
        if instance.reference_solution is None:
            instance = instance.with_reference(centralized_newton(instance, np.zeros(d)))
        x0 = rng_for(12).standard_normal((n, d))
        cfg = AlgorithmConfig(epsilon=0.1)
        _, log = run("giant", instance, ring_mixing(n), cfg, x0)
        assert not log.diverged
        assert log.final.grad_norm <= cfg.grad_tol
        assert log.final.iteration < cfg.max_iters
        assert max(r.tracking_drift for r in log.records) <= 1e-9

    def test_hessian_turning_indefinite_mid_run_is_typed(self):
        class TurnsIndefinite(AgentFamily):
            """0.5 * ||x - c_i||^2 over three centers; agent 1's Hessian is diag(1, -1) from its third evaluation."""

            centers = np.array([[-1.0, 0.0], [2.0, -1.0], [0.0, -3.0]])
            shape = centers.shape
            floats = 2 * centers.size

            def __init__(self):
                self.hessian_calls = 0

            def values_and_gradients(self, x):
                r = x - self.centers
                return 0.5 * (r * r).sum(axis=1), r

            def gradients(self, x):
                return x - self.centers

            def hessians(self, x):
                self.hessian_calls += 1
                h = np.stack([np.eye(2)] * 3)
                if self.hessian_calls >= 3:
                    h[1] = np.diag([1.0, -1.0])
                return h

            @property
            def average(self):
                c = self.centers
                return QuadraticFamily(np.eye(2)[None], -c.mean(axis=0)[None], [0.5 * (c * c).sum(axis=1).mean()])

        family = TurnsIndefinite()
        instance = ProblemInstance(family, mu=1.0, lipschitz=1.0, reference_solution=np.zeros(2))
        cfg = AlgorithmConfig(epsilon=0.1, max_iters=50, grad_tol=0.0)
        with pytest.raises(NotPositiveDefinite) as info:
            run("giant", instance, ring_mixing(3), cfg, np.zeros((3, 2)))
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert family.hessian_calls == 3  # one evaluation per step: the third step raised

    @pytest.mark.parametrize("epsilon", [0.5, 50.0])
    def test_sparse_mixing_run_matches_the_dense_run(self, monkeypatch, epsilon):
        # Ring n=400 is above the CSR crossover. A dense product spreads NaN to every
        # row once one entry is inf (0 * inf), a CSR product does not; the
        # divergence check must still fire at the same iteration on both paths.
        n = 400
        instance = generate_problem(5, ProblemSpec(kind="quadratic", n=n, d=3, heterogeneity=1.0))
        x0 = rng_for(13).standard_normal((n, 3))
        cfg = AlgorithmConfig(epsilon=epsilon, max_iters=20, grad_tol=0.0)
        sparse_mix = ring_mixing(n)
        _, log = run("giant", instance, sparse_mix, cfg, x0)
        assert isinstance(sparse_mix.p, _RowSparse)
        monkeypatch.setattr(topology, "SPARSE_RATIO", np.inf)  # P, and so every P^k, dense
        dense_mix = ring_mixing(n)
        _, ref = run("giant", instance, dense_mix, cfg, x0)
        assert dense_mix._products[1] is dense_mix.p

        assert log.diverged == ref.diverged == (epsilon > 1)
        assert [r.iteration for r in log.records] == [r.iteration for r in ref.records]
        if log.diverged:
            return
        assert len(log) == 21
        assert_tables_agree(log, ref)

    def test_unknown_algorithm(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        with pytest.raises(InvalidParams):
            run("sgd", instance, mix, AlgorithmConfig(), x0)

    @pytest.mark.parametrize("K", [1, 3])
    def test_csr_mixing_keeps_the_run_bits(self, monkeypatch, K):
        instance = generate_problem(42, ProblemSpec(kind="quadratic", n=400, d=3, heterogeneity=1.0))
        x0 = rng_for(3).standard_normal((400, 3))
        cfg = AlgorithmConfig(epsilon=0.5, K=K, max_iters=40)
        mix = ring_mixing(400)
        _, csr = run("giant", instance, mix, cfg, x0)
        assert isinstance(mix.p, _RowSparse)  # K rounds are K products by P itself
        # one product by the dense P^K adds in another order
        _, powered = run("giant", instance, MixingMatrix(mix.p.toarray()), cfg, x0)
        assert_tables_agree(csr, powered)
        monkeypatch.setattr(_RowSparse, "__matmul__", csr_product)  # every row sum in plain Python
        _, plain = run("giant", instance, ring_mixing(400), cfg, x0)
        assert len(csr) == 41 and csr.table.tobytes() == plain.table.tobytes()


def assert_tables_agree(log, ref):
    """Two runs of one problem whose mixing products add in different orders agree to roundoff."""
    got, want = log.table, ref.table
    assert got.shape == want.shape and np.isfinite(got).all()
    assert got[:, 4].max() <= 1e-9  # tracking_drift
    # Each column to 1e-12 of its largest entry; the drift column is roundoff in
    # both runs, so it agrees to the drift bound only.
    for col in (1, 2, 3, 5):  # opt_gap, consensus_err, grad_norm, lyapunov
        assert np.abs(got[:, col] - want[:, col]).max() <= 1e-12 * np.abs(want[:, col]).max()
    assert np.abs(got[:, 4] - want[:, 4]).max() <= 1e-9


@pytest.mark.parametrize(
    "entry, diverged",
    [
        (np.nan, True),
        (np.inf, True),
        (-np.inf, True),
        (DIVERGENCE_LIMIT, False),
        (-DIVERGENCE_LIMIT, False),
        (np.nextafter(DIVERGENCE_LIMIT, np.inf), True),
        (-np.nextafter(DIVERGENCE_LIMIT, np.inf), True),
        (-3.5, False),
        (0.0, False),
    ],
)
def test_divergence_rule(entry, diverged):
    # diagnostics.check_block's rule, state by state, on any of x, w and g; dgd's state is x alone.
    instance = generate_problem(1, ProblemSpec(kind="quadratic", n=4, d=3))
    zeros, block = np.zeros((4, 3)), np.ones((4, 3))
    block[2, 1] = entry
    with np.errstate(all="ignore"):
        for state in ((block, zeros, zeros), (zeros, block, zeros), (zeros, zeros, block)):
            x, w, g = (np.array([zeros, a]) for a in state)
            assert check_block(instance, x, w, g, 0, 0.0)[1].tolist() == [False, diverged]
        assert check_block(instance, block[None], None, None, 0, 0.0)[1].tolist() == [diverged]


def test_config_validation():
    with pytest.raises(InvalidParams):
        AlgorithmConfig(epsilon=-0.1)
    with pytest.raises(InvalidParams):
        AlgorithmConfig(K=0)
    AlgorithmConfig(epsilon=0.0)  # pure consensus is allowed at library level


@pytest.mark.parametrize("value, accepted", [(2.5, False), (True, False), (np.int64(2), True)])
@pytest.mark.parametrize("field", ["K", "max_iters"])
def test_integer_fields_are_typed(field, value, accepted):
    # range() in MixingMatrix.power and the run loop's count need integers;
    # a bool is an int subclass but never a count.
    if accepted:
        assert getattr(AlgorithmConfig(**{field: value}), field) == 2
    else:
        with pytest.raises(InvalidParams, match=f"^{field} must be"):
            AlgorithmConfig(**{field: value})


@pytest.mark.parametrize(
    "value, accepted",
    [
        (True, False),
        ("0.1", False),
        (np.array([0.1, 0.2]), False),
        (float("nan"), False),
        (np.float32(0.5), True),
        (np.int64(2), True),
        (float("inf"), False),
        pytest.param(10**400, False, id="1e400"),  # json.loads reads such an integer exactly
    ],
)
@pytest.mark.parametrize("field", ["epsilon", "grad_tol"])
def test_real_fields_are_typed(field, value, accepted):
    # A bool is a flag and an array is not one step size; NaN and infinities are not finite.
    if accepted:
        assert getattr(AlgorithmConfig(**{field: value}), field) == value
    else:
        with pytest.raises(InvalidParams, match=f"^{field} must be a nonnegative real number"):
            AlgorithmConfig(**{field: value})


@pytest.mark.parametrize(
    "shapes, named",
    [(((3, 2), (3, 2), (2, 2)), r"w \(2, 2\)"), (((3, 2), (3, 1), (3, 2)), r"g \(3, 1\)"), (((3,),) * 3, r"x \(3,\)")],
)
def test_network_state_rejects_blocks_that_disagree(shapes, named):
    x, g, w = (np.zeros(shape) for shape in shapes)
    with pytest.raises(DimensionMismatch, match=f"^state blocks disagree: .*{named}"):
        NetworkState(x=x, g=g, w=w)
