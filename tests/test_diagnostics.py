import numpy as np
import pytest

from giantnet import (
    AlgorithmConfig,
    InsufficientData,
    InvalidParams,
    MetricsLog,
    MetricsRecord,
    MissingReference,
    ProblemInstance,
    ProblemSpec,
    decompose,
    descent_check,
    estimate_rate,
    generate_problem,
    giant_init,
    giant_step,
    gt_step,
    harmonic_hessian_mean,
    run,
    tracking_drift,
)

from giantnet.diagnostics import GAP_FLOOR, check_block
from giantnet.harness import CSV_COLUMNS, write_metrics_csv
from giantnet.objectives import QuadraticFamily

import reference
from conftest import rng_for


class TestDecompose:
    def test_identical_rows_have_no_disagreement(self):
        x = np.tile(np.array([1.0, 2.0]), (4, 1))
        mean, tilde = decompose(x)
        assert np.array_equal(mean, x)
        assert np.array_equal(tilde, np.zeros_like(x))

    def test_antisymmetric_rows(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mean, tilde = decompose(x)
        assert np.array_equal(mean, np.zeros((2, 2)))
        assert np.array_equal(tilde, x)

    def test_reconstruction_and_zero_column_sums(self):
        rng = rng_for(30)
        for _ in range(10):
            x = rng.standard_normal((6, 4)) * rng.uniform(0.1, 100.0)
            mean, tilde = decompose(x)
            assert np.abs(mean + tilde - x).max() <= 1e-15 * max(1.0, np.abs(x).max())
            assert np.abs(tilde.sum(axis=0)).max() <= 1e-12 * max(1.0, np.abs(x).max())

    def test_idempotent_and_annihilating(self):
        rng = rng_for(31)
        x = rng.standard_normal((5, 3))
        mean, tilde = decompose(x)
        mean2, residual = decompose(mean)
        assert np.allclose(mean2, mean, atol=1e-15)
        assert np.abs(residual).max() <= 1e-15
        _, tilde2 = decompose(tilde)
        assert np.allclose(tilde2, tilde, atol=1e-15)


class TestHarmonicHessianMean:
    def test_identity_hessians(self):
        family = QuadraticFamily(np.tile(np.eye(3), (4, 1, 1)), np.zeros((4, 3)), np.zeros(4))
        inst = ProblemInstance(family, mu=1.0, lipschitz=1.0)
        assert np.allclose(harmonic_hessian_mean(inst, np.zeros(3)), np.eye(3), atol=1e-14)

    def test_scalar_pair(self):
        family = QuadraticFamily([[[2.0]], [[4.0]]], np.zeros((2, 1)), np.zeros(2))
        inst = ProblemInstance(family, mu=2.0, lipschitz=4.0)
        m = harmonic_hessian_mean(inst, np.zeros(1))
        assert m[0, 0] == pytest.approx(0.375, abs=1e-14)

    def test_single_agent_inverse(self):
        rng = rng_for(32)
        a = rng.standard_normal((4, 4))
        h = a.T @ a + 0.5 * np.eye(4)
        inst = ProblemInstance(QuadraticFamily(h[None], np.zeros((1, 4)), np.zeros(1)), mu=0.1, lipschitz=100.0)
        m = harmonic_hessian_mean(inst, np.zeros(4))
        assert np.abs(m @ h - np.eye(4)).max() <= 1e-10

    def test_spectrum_within_inverse_bounds(self):
        for seed in range(3):
            inst = generate_problem(seed, ProblemSpec(kind="quadratic", n=5, d=4, heterogeneity=1.0))
            m = harmonic_hessian_mean(inst, np.zeros(4))
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] >= 1.0 / inst.lipschitz - 1e-9
            assert eigs[-1] <= 1.0 / inst.mu + 1e-9


class TestDescentCheck:
    def test_all_tight_at_minimizer(self):
        inst = generate_problem(1, ProblemSpec(kind="quadratic", n=4, d=3, heterogeneity=0.6))
        report = descent_check(inst, inst.reference_solution)
        assert report.passed
        for check in report.checks:
            assert abs(check.lhs) <= 1e-12
            assert abs(check.rhs) <= 1e-12

    def test_equality_on_top_eigenvector(self):
        # single quadratic with known spectrum: the curvature bound
        # g'A^{-1}g >= ||g||^2 / L is exactly tight along the stiffest
        # eigendirection (eigendecomposition oracle)
        rng = rng_for(33)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        eigs = np.array([0.5, 1.1, 2.0])
        a = (q * eigs) @ q.T
        a = 0.5 * (a + a.T)
        inst = ProblemInstance(
            QuadraticFamily(a[None], np.zeros((1, 3)), np.zeros(1)),
            mu=0.5,
            lipschitz=2.0,
            reference_solution=np.zeros(3),
        )
        x = q[:, 2]  # top eigenvector
        report = descent_check(inst, x)
        assert report.passed
        curvature = next(c for c in report.checks if c.name == "curvature_lower")
        assert curvature.lhs == pytest.approx(curvature.rhs, rel=1e-12)

    def test_random_sweep_zero_violations(self):
        inst = generate_problem(2, ProblemSpec(kind="quadratic", n=6, d=4, heterogeneity=0.9))
        rng = rng_for(34)
        for _ in range(100):
            x = inst.reference_solution + 3.0 * rng.standard_normal(4)
            assert descent_check(inst, x).passed

    @pytest.mark.parametrize("h", [2.0, 0.5])
    def test_value_bounds_hold_away_from_unit_curvature(self, h):
        # f_i = (h/2)||x - c_i||^2, so V = (h/2) r^2 with mu = L = h: the bounds (mu/2) r^2
        # and (L/2) r^2 are tight, where (mu^2/2) r^2 and (L^2/2) r^2 miss V unless h = 1
        centers = np.array([[1.0, 2.0], [3.0, -1.0], [2.0, 2.0]])
        family = QuadraticFamily(np.stack([h * np.eye(2)] * 3), -h * centers, 0.5 * h * (centers**2).sum(axis=1))
        inst = ProblemInstance(family, mu=h, lipschitz=h, reference_solution=centers.mean(axis=0))
        report = descent_check(inst, inst.reference_solution + [1.0, 0.0])
        assert report.passed
        bounds = {c.name: (c.lhs, c.rhs) for c in report.checks}
        assert bounds["value_lower"] == pytest.approx((h / 2, h / 2), rel=1e-12)
        assert bounds["value_upper"] == pytest.approx((h / 2, h / 2), rel=1e-12)

    def test_passed_is_a_python_bool(self):
        # json.dumps rejects numpy's bool, so a run summary could not hold it
        inst = generate_problem(2, ProblemSpec(kind="quadratic", n=6, d=4, heterogeneity=0.9))
        report = descent_check(inst, inst.reference_solution + 1.0)
        assert [type(c.passed) for c in report.checks] == [bool] * len(report.checks)
        assert type(report.passed) is bool

    def test_missing_reference(self):
        inst = generate_problem(3, ProblemSpec(kind="logistic", n=3, d=3))
        with pytest.raises(MissingReference):
            descent_check(inst, np.zeros(3))


class TestTrackingDrift:
    def test_zero_right_after_init(self, hetero_ring):
        instance, _, x0 = hetero_ring
        state = giant_init(instance, x0)
        assert tracking_drift(state, instance, x0) == pytest.approx(0.0, abs=1e-15)

    def test_small_after_long_run(self, hetero_ring):
        instance, mix, x0 = hetero_ring
        state = giant_init(instance, x0)
        for _ in range(1000):
            nxt = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.25))
            assert tracking_drift(nxt, instance, state.x) <= 1e-9
            state = nxt

    def test_gt_memory_holds_the_current_gradients(self, hetero_ring):
        # gt's g stores grad f(x) at its current iterate, so prev_x is state.x
        instance, mix, x0 = hetero_ring
        cfg = AlgorithmConfig(epsilon=0.02, max_iters=60, grad_tol=0.0)
        _, log = run("gt", instance, mix, cfg, x0)
        state = giant_init(instance, x0)
        drifts = [tracking_drift(state, instance, state.x)]
        for _ in range(cfg.max_iters):
            state = gt_step(state, instance, mix, cfg)
            drifts.append(tracking_drift(state, instance, state.x))
            assert drifts[-1] <= 1e-9
        assert [r.tracking_drift for r in log.records] == drifts

    def test_injected_fault_detected(self, hetero_ring):
        instance, _, x0 = hetero_ring
        state = giant_init(instance, x0)
        corrupted = state.w.copy()
        corrupted[3, 1] += 1.0
        from giantnet.algorithms import NetworkState

        bad = NetworkState(x=state.x, g=state.g, w=corrupted)
        assert tracking_drift(bad, instance, x0) == pytest.approx(1.0, abs=1e-12)


def test_structure_holds_along_logistic_trajectory():
    # drift and the descent inequalities certified at every iterate of a
    # converging run on the second objective family
    from giantnet import centralized_newton, make_graph, metropolis_weights

    spec = ProblemSpec(kind="logistic", n=6, d=4, samples_per_agent=25, ridge=0.1, heterogeneity=0.5)
    instance = generate_problem(9, spec)
    instance = instance.with_reference(centralized_newton(instance, np.zeros(4), tol=1e-12))
    mix = metropolis_weights(make_graph("ring", 6))
    state = giant_init(instance, rng_for(1).standard_normal((6, 4)))
    cfg = AlgorithmConfig(epsilon=0.2)
    for _ in range(150):
        assert descent_check(instance, state.x.mean(axis=0)).passed
        nxt = giant_step(state, instance, mix, cfg)
        assert tracking_drift(nxt, instance, state.x) <= 1e-9
        state = nxt


def _layout(a, order):
    """``a`` as a C-ordered, Fortran-ordered or transposed-view stack of the same values."""
    if order == "C":
        return np.ascontiguousarray(a)
    if order == "F":
        return np.asfortranarray(a)
    return np.ascontiguousarray(a.T).T


def _bits(*values):
    return [np.float64(v).tobytes() for v in values]


class TestMetricsBitwise:
    """check_block's records give the bits of x.mean(axis=0), sum(axis=0) and np.linalg.norm."""

    ENTRIES = [(), (np.nan,), (np.inf,), (-np.inf,), (np.nan, np.inf)]

    @staticmethod
    def _stack(seed, entries, offset=0.0):
        # An offset makes ||x - x_bar|| sensitive to the last bit of x_bar.
        a = offset + rng_for(seed).standard_normal((6, 4))
        for i, v in enumerate(entries):
            a[2 * i + 1, i] = v
        return a

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("entries", ENTRIES)
    @pytest.mark.parametrize("order", ["C", "F", "T"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_metrics_record(self, kind, order, entries, offset, monkeypatch):
        instance = generate_problem(5, ProblemSpec(kind=kind, n=6, d=4, heterogeneity=1.0))
        x = _layout(self._stack(30, entries, offset), order)
        # The norms are flat in x_bar to first order, so x_bar is checked where it is used.
        seen = []
        family_class = type(instance.family.average)
        original = family_class.values_and_gradients

        def spy(family, point):
            seen.append(point.copy())
            return original(family, point)

        monkeypatch.setattr(family_class, "values_and_gradients", spy)
        with np.errstate(all="ignore"):
            # one bare state, drift 0: the 1-row case of check_block
            rec = MetricsLog(check_block(instance, x[None], None, None, 7, 0.125)[0]).final
            monkeypatch.undo()
            x_bar = x.mean(axis=0)
            assert len(seen) == 1  # the averaged cost is evaluated once per record
            assert all(p.shape == (1, 4) and p[0].tobytes() == x_bar.tobytes() for p in seen)
            gap = instance.objective.value(x_bar) - 0.125
            expected = (
                gap,
                float(np.linalg.norm(x - x_bar)),
                float(np.linalg.norm(instance.objective.gradient(x_bar))),
                0.0,
                gap,
            )
        got = (rec.opt_gap, rec.consensus_err, rec.grad_norm, rec.tracking_drift, rec.lyapunov)
        assert _bits(*got) == _bits(*expected)
        assert all(type(v) is float for v in got[1:4]) and rec.iteration == 7
        if entries:
            assert not np.isfinite(rec.consensus_err)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("entries", ENTRIES)
    @pytest.mark.parametrize("order", ["C", "F", "T"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "loop"])
    def test_values_and_gradients(self, kind, order, entries, offset):
        instance = generate_problem(5, ProblemSpec(kind=kind.replace("loop", "logistic"), n=6, d=4, heterogeneity=1.0))
        # loop: the per-agent oracle family of tests/reference.py, whose values are AgentFamily's default
        family = reference.Loop.of(instance.family) if kind == "loop" else instance.family
        x = _layout(self._stack(30, entries, offset), order)
        with np.errstate(all="ignore"):
            for fam, point in ((family, x), (family.average, x.mean(axis=0)[None])):
                values, grads = fam.values_and_gradients(point)
                assert values.tobytes() == fam.values(point).tobytes()
                assert grads.tobytes() == fam.gradients(point).tobytes()
        if entries:
            assert not np.isfinite(values).all()

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("entries", ENTRIES)
    @pytest.mark.parametrize("order", ["C", "F", "T"])
    def test_drift(self, order, entries, offset):
        instance = generate_problem(5, ProblemSpec(kind="quadratic", n=6, d=4))
        x = self._stack(33, ())
        w = _layout(self._stack(31, entries, offset), order)
        g = _layout(self._stack(32, (), offset), order)
        with np.errstate(all="ignore"):
            expected = float(np.linalg.norm(w.sum(axis=0) - g.sum(axis=0)))
            table, _ = check_block(instance, x[None], w[None], g[None], 0, 0.0)
        got = MetricsLog(table).records[0].tracking_drift
        assert type(got) is float and _bits(got) == _bits(expected)
        if entries:
            assert not np.isfinite(got)
        assert MetricsLog(check_block(instance, x[None], None, None, 0, 0.0)[0]).records[0].tracking_drift == 0.0


class TestMetricsRecord:
    ROWS = [
        (0, 0.1, 1 / 3, 2.0, 0.0, 0.1),
        (1, np.float64(1e-300), 5e-324, -0.0, 1.5e-15, np.float64(1e-300)),
        (2, np.nan, np.inf, -np.inf, 0.0, np.nan),
        (10**6, 123456789.0, 2.0**-20, 7.0, 3.0, 123456789.0),
    ]

    def test_fields_in_csv_column_order(self):
        assert MetricsRecord._fields == ("iteration",) + CSV_COLUMNS[1:]
        rec = MetricsRecord(*self.ROWS[0])
        assert tuple(rec) == self.ROWS[0] and rec.grad_norm == 2.0

    def test_immutable(self):
        rec = MetricsRecord(*self.ROWS[0])
        with pytest.raises(AttributeError):
            rec.opt_gap = 1.0

    def test_csv_bytes_of_a_fixed_log(self, tmp_path):
        log = MetricsLog(np.array(self.ROWS, dtype=float))
        write_metrics_csv(log, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"iter,opt_gap,consensus_err,grad_norm,tracking_drift,lyapunov\n"
            b"0,0.10000000000000001,0.33333333333333331,2,0,0.10000000000000001\n"
            b"1,1e-300,4.9406564584124654e-324,-0,1.4999999999999999e-15,1e-300\n"
            b"2,nan,inf,-inf,0,nan\n"
            b"1000000,123456789,9.5367431640625e-07,7,3,123456789\n"
        )


class TestMetricsTable:
    @pytest.mark.parametrize("algorithm, epsilon", [("giant", 0.25), ("gt", 0.02), ("dgd", 2.0)])
    def test_a_run_log_is_one_c_ordered_table(self, hetero_ring, algorithm, epsilon):
        # dgd at epsilon 2 diverges, so its last rows hold inf or NaN.
        instance, mix, x0 = hetero_ring
        _, log = run(algorithm, instance, mix, AlgorithmConfig(epsilon=epsilon, max_iters=300), x0)
        table = log.table
        assert table.dtype == np.float64 and table.shape == (len(log), len(MetricsRecord._fields))
        assert table.flags.c_contiguous
        assert np.array(log.records).tobytes() == table.tobytes()
        assert log.final == log.records[-1] and type(log.final.iteration) is int
        assert log.diverged == (algorithm == "dgd")

    def test_readers_of_a_hand_built_log(self):
        # Iterations 0, 2, 4, ...; the NaN at iteration 8 misses 0.5 and iteration 10 hits it.
        gaps = [0.8**k for k in range(24)]
        gaps[4], gaps[9], gaps[15] = np.nan, GAP_FLOOR, 2e-3
        log = MetricsLog(np.array([(2 * k, gap, 0.0, 0.0, 0.0, gap) for k, gap in enumerate(gaps)]))
        assert log.table[:, 1].tobytes() == np.array(gaps).tobytes()
        hits = [log.first_iteration_below(t) for t in (0.5, 0.1, 2e-3, GAP_FLOOR, 1e-20)]
        assert hits == [10, 18, 18, 18, None]
        # The fits leave out iterations 0-4 (transient), 8 (NaN) and 18 (at the floor).
        full, tail = estimate_rate(log, tail_fraction=1.0), estimate_rate(log)
        assert full.window == (6, 46) and tail.window == (28, 46)
        assert full.rate == pytest.approx(0.8918900513196191, rel=1e-12)
        assert full.r_squared == pytest.approx(0.8173979456208713, rel=1e-12)
        assert tail.rate == pytest.approx(0.9505191440169204, rel=1e-12)
        assert tail.r_squared == pytest.approx(0.12090375610516946, rel=1e-12)

    def test_empty_log(self):
        log = MetricsLog()
        assert len(log) == 0 and log.records == [] and log.first_iteration_below(1.0) is None
        with pytest.raises(InsufficientData):
            estimate_rate(log)


def _log_from_gaps(gaps):
    return MetricsLog(np.array([(k, gap, 0.0, 0.0, 0.0, gap) for k, gap in enumerate(gaps)]))


class TestEstimateRate:
    def test_exact_geometric_sequence(self):
        log = _log_from_gaps([10.0**-k for k in range(13)])
        est = estimate_rate(log, tail_fraction=1.0)
        assert est.rate == pytest.approx(0.1, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_sequence_conventions(self):
        log = _log_from_gaps([0.5] * 20)
        est = estimate_rate(log, tail_fraction=1.0)
        assert est.rate == pytest.approx(1.0, abs=1e-12)
        assert est.r_squared == 0.0

    def test_floor_and_transient_excluded(self):
        gaps = [10.0**-k for k in range(12)] + [1e-16] * 5
        log = _log_from_gaps(gaps)
        est = estimate_rate(log, tail_fraction=1.0)
        assert est.window[1] == 11
        assert est.window[0] >= 1  # first 10% of iterations dropped

    def test_insufficient_data(self):
        log = _log_from_gaps([1.0, 0.1, 0.01])
        with pytest.raises(InsufficientData):
            estimate_rate(log, tail_fraction=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), 0, -0.5, 1.5, True])
    def test_rejects_tail_fraction_outside_unit_interval(self, bad):
        log = _log_from_gaps([0.5**k for k in range(30)])
        with pytest.raises(InvalidParams, match="^tail_fraction"):
            estimate_rate(log, tail_fraction=bad)
        assert estimate_rate(log, tail_fraction=0.5).window[1] == 29
