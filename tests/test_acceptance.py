"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run pytest
with -s to see them live). Criteria 4, 6 and 7 share one tuned setup.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from giantnet import (
    AlgorithmConfig,
    ExperimentConfig,
    MixingMatrix,
    ProblemSpec,
    TopologySpec,
    descent_check,
    estimate_rate,
    generate_problem,
    giant_init,
    giant_step,
    make_graph,
    metropolis_weights,
    run,
    second_singular_value,
    tracking_drift,
    tune_epsilon,
    validate_mixing,
)
from giantnet.cli import main as cli_main
from giantnet.harness import build_instance, build_network, compare, initial_stack

from conftest import identical_quadratic_instance, rng_for


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} [{name}]: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _grid_factors(n):
    rows = int(np.ceil(np.sqrt(n)))
    cols = int(np.ceil(n / rows))
    return rows * cols == n


@pytest.fixture(scope="module")
def tuned_setup():
    """Criterion-4 instance: heterogeneous quadratics on a ring, tuned step size."""
    cfg = ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0),
        problem_seed=42,
        topology=TopologySpec(kind="ring", n=10, seed=0),
        algorithm_name="giant",
        algorithm=AlgorithmConfig(epsilon=0.25, K=1, max_iters=5000, grad_tol=1e-10),
        epsilon_grid=(0.25, 0.5, 1.0),
        run_seed=3,
    )
    t0 = time.perf_counter()
    instance = build_instance(cfg)
    _, mix = build_network(cfg)
    x0 = initial_stack(cfg, instance)
    best_eps, results = tune_epsilon(cfg, cfg.epsilon_grid, target=1e-10)
    _, log = run("giant", instance, mix, replace(cfg.algorithm, epsilon=best_eps), x0)
    elapsed = time.perf_counter() - t0
    return cfg, instance, mix, x0, best_eps, results, log, elapsed


def test_criterion_1_mixing_validity():
    t0 = time.perf_counter()
    checked = 0
    worst_sum = 0.0
    worst_sigma = 0.0
    ok = True
    for kind in ("ring", "complete", "star", "grid", "erdos_renyi"):
        for n in range(1, 51):
            if kind == "grid" and not _grid_factors(n):
                continue
            g = make_graph(kind, n, p=0.4, seed=n)
            p = metropolis_weights(g).p
            report = validate_mixing(p, g)
            ok = ok and report.passed
            row_dev = max(
                np.abs(p.sum(axis=1) - 1.0).max(), np.abs(p.sum(axis=0) - 1.0).max()
            )
            sigma = second_singular_value(p)
            worst_sum = max(worst_sum, row_dev)
            if n > 1:
                worst_sigma = max(worst_sigma, sigma)
            ok = ok and row_dev <= 1e-12 and sigma < 1.0
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        1,
        "mixing validity",
        ok,
        f"{checked} graphs, worst sum dev {worst_sum:.1e}, worst sigma2 {worst_sigma:.4f}, {elapsed:.2f}s",
    )


def test_criterion_2_tracking_invariant():
    instance = generate_problem(42, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0))
    mix = metropolis_weights(make_graph("ring", 10))
    x0 = rng_for(3).standard_normal((10, 5))
    cfg = AlgorithmConfig(epsilon=0.25)
    state = giant_init(instance, x0)
    worst = tracking_drift(state, instance, x0)
    for _ in range(1000):
        prev_x = state.x
        state = giant_step(state, instance, mix, cfg)
        worst = max(worst, tracking_drift(state, instance, prev_x))
    _report(2, "tracking invariant", worst <= 1e-9, f"max drift over 1000 iters {worst:.2e}")


def test_criterion_3_newton_oracle_equivalence():
    c = np.array([1.5, -2.0, 0.25])
    instance = identical_quadratic_instance(8, c)
    mix = metropolis_weights(make_graph("complete", 8))
    _, log = run("giant", instance, mix, AlgorithmConfig(epsilon=1.0, K=1), np.zeros((8, 3)))
    ok = log.final.iteration == 1 and log.final.opt_gap <= 1e-12
    _report(
        3,
        "Newton-oracle equivalence",
        ok,
        f"stopped at iter {log.final.iteration}, gap {log.final.opt_gap:.2e}",
    )


def test_criterion_4_linear_convergence(tuned_setup):
    cfg, instance, mix, x0, best_eps, results, log, elapsed = tuned_setup
    spread = instance.lipschitz / instance.mu
    hit = log.first_iteration_below(1e-10)
    est = estimate_rate(log, tail_fraction=0.5)
    ok = (
        spread >= 10.0
        and hit is not None
        and hit <= 5000
        and est.r_squared >= 0.99
        and elapsed < 10.0
    )
    _report(
        4,
        "linear convergence",
        ok,
        f"eps {best_eps}, gap<=1e-10 at iter {hit}, rate {est.rate:.4f}, "
        f"r2 {est.r_squared:.5f}, spread {spread:.1f}, {elapsed:.2f}s",
    )


def test_criterion_5_consensus_contraction():
    instance = generate_problem(42, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0))
    x0 = rng_for(3).standard_normal((10, 5))
    worst = 0.0
    ok = True
    for kind, seed in (("ring", 0), ("erdos_renyi", 2)):
        mix = metropolis_weights(make_graph(kind, 10, p=0.5, seed=seed))
        for k_rounds in (1, 2, 3):
            sigma = second_singular_value(mix.power(k_rounds))
            cfg = AlgorithmConfig(epsilon=0.0, K=k_rounds, max_iters=12, grad_tol=0.0)
            _, log = run("giant", instance, mix, cfg, x0)
            errs = [r.consensus_err for r in log.records]
            for prev, cur in zip(errs, errs[1:]):
                if prev > 1e-10:
                    ratio = cur / prev
                    worst = max(worst, ratio - sigma)
                    ok = ok and ratio <= sigma + 1e-9
    _report(5, "consensus contraction", ok, f"worst ratio excess {worst:.2e}")


def test_criterion_6_lyapunov_structure(tuned_setup):
    cfg, instance, mix, x0, best_eps, _, log, _ = tuned_setup
    violations = 0
    # 100 random points on each of 5 random quadratic instances
    for seed in range(100, 105):
        inst = generate_problem(seed, ProblemSpec(kind="quadratic", n=5, d=4, heterogeneity=0.8))
        rng = rng_for(seed)
        for _ in range(100):
            x = inst.reference_solution + 3.0 * rng.standard_normal(4)
            if not descent_check(inst, x).passed:
                violations += 1
    # every averaged iterate of the tuned criterion-4 run
    state = giant_init(instance, x0)
    step_cfg = replace(cfg.algorithm, epsilon=best_eps)
    for _ in range(log.final.iteration + 1):
        if not descent_check(instance, state.x.mean(axis=0)).passed:
            violations += 1
        state = giant_step(state, instance, mix, step_cfg)
    _report(
        6,
        "Lyapunov structure",
        violations == 0,
        f"{violations} violations over 500 random points + {log.final.iteration + 1} iterates",
    )


def test_criterion_7_comparative_performance(tuned_setup):
    cfg, *_ = tuned_setup
    t0 = time.perf_counter()
    cmp_cfg = replace(
        cfg,
        algorithm=replace(cfg.algorithm, grad_tol=1e-11),
        epsilon_grid=(0.02, 0.05, 0.1, 0.25, 0.5, 1.0),
    )
    summary = compare(cmp_cfg, ("giant", "dgd", "gt"), target=1e-6)
    elapsed = time.perf_counter() - t0
    rows = {r.algorithm: r for r in summary.rows}
    giant_iters = rows["giant"].iterations
    baseline_iters = {
        name: (np.inf if rows[name].iterations is None else rows[name].iterations)
        for name in ("dgd", "gt")
    }
    ok = (
        rows["giant"].status == "reached"
        and giant_iters < baseline_iters["dgd"]
        and giant_iters < baseline_iters["gt"]
        and elapsed < 60.0
    )
    _report(
        7,
        "comparative performance",
        ok,
        f"giant {giant_iters} vs dgd {baseline_iters['dgd']} vs gt {baseline_iters['gt']}, {elapsed:.1f}s",
    )


def test_criterion_8_derivative_correctness():
    from reference import finite_difference_gradient, finite_difference_hessian

    quad = generate_problem(7, ProblemSpec(kind="quadratic", n=3, d=4, heterogeneity=1.0)).objectives[0]
    logi = generate_problem(8, ProblemSpec(kind="logistic", n=3, d=4, samples_per_agent=20)).objectives[0]
    rng = rng_for(40)
    worst_g = 0.0
    worst_h = 0.0
    for obj in (quad, logi):
        for _ in range(50):
            x = rng.standard_normal(4)
            g = obj.gradient(x)
            worst_g = max(
                worst_g, np.linalg.norm(finite_difference_gradient(obj.value, x) - g) / np.linalg.norm(g)
            )
            h = obj.hessian(x)
            worst_h = max(
                worst_h,
                np.linalg.norm(finite_difference_hessian(obj.gradient, x) - h) / np.linalg.norm(h),
            )
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    _report(8, "derivative correctness", ok, f"worst grad rel {worst_g:.2e}, hess rel {worst_h:.2e}")


def test_criterion_9_k_semantics():
    instance = generate_problem(42, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0))
    mix = metropolis_weights(make_graph("ring", 10))
    squared = MixingMatrix(mix.p @ mix.p)
    from giantnet.algorithms import NetworkState

    rng = rng_for(50)
    ok = True
    for _ in range(20):
        state = NetworkState(
            x=rng.standard_normal((10, 5)),
            g=rng.standard_normal((10, 5)),
            w=rng.standard_normal((10, 5)),
        )
        a = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.3, K=2))
        b = giant_step(state, instance, squared, AlgorithmConfig(epsilon=0.3, K=1))
        ok = ok and np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w) and np.array_equal(a.g, b.g)
    _report(9, "K-semantics", ok, "20 random states bitwise identical")


def test_criterion_10_determinism(tmp_path):
    payload = {
        "problem": {"kind": "quadratic", "n": 10, "d": 5, "heterogeneity": 1.0, "seed": 42},
        "topology": {"kind": "ring", "n": 10, "seed": 0},
        "algorithm": {"name": "giant", "epsilon": 0.25, "max_iters": 600, "grad_tol": 1e-10},
        "run_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["run", "--config", str(cfg_path), "--out", str(out2)])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(10, "determinism", ok, f"{out1.stat().st_size} bytes, identical")
