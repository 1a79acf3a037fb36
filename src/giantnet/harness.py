"""Configuration-driven experiment runner.

A single JSON document describes the problem, the topology, the algorithm
and the seeds. Unknown fields are rejected so a typo cannot silently
change an experiment. All randomness flows through the counter-based
Philox generator keyed by the three seeds, which makes every run,
including its CSV output, byte-reproducible.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import ALGORITHMS, DIVERGENCE_LIMIT, AlgorithmConfig, centralized_newton, run
from .diagnostics import MetricsLog, estimate_rate
from .errors import InsufficientData, InvalidParams, InvalidSpec, ParseError, ValidationError
from .objectives import ProblemInstance, ProblemSpec, generate_problem
from .topology import (
    Graph,
    MixingMatrix,
    ValidationReport,
    check_graph,
    make_graph,
    metropolis_weights,
    validate_mixing,
)

REFERENCE_TOL = 1e-12

CSV_COLUMNS = ("iter", "opt_gap", "consensus_err", "grad_norm", "tracking_drift", "lyapunov")

COMPARISON_COLUMNS = ("algorithm", "epsilon", "iterations_to_target", "status", "final_gap", "rate")

_TOP_FIELDS = {"problem", "topology", "algorithm", "tuner", "output", "run_seed"}
_PROBLEM_FIELDS = {"kind", "n", "d", "samples_per_agent", "lambda", "heterogeneity", "seed"}
_TOPOLOGY_FIELDS = {"kind", "n", "p", "seed"}
_ALGORITHM_FIELDS = {"name", "epsilon", "K", "max_iters", "grad_tol"}
_TUNER_FIELDS = {"epsilon_grid"}


@dataclass(frozen=True)
class TopologySpec:
    kind: str
    n: int
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_graph(self.kind, self.n, self.p, self.seed)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    problem_seed: int
    topology: TopologySpec
    algorithm_name: str
    algorithm: AlgorithmConfig
    epsilon_grid: tuple[float, ...] | None = None
    output: str = "metrics.csv"
    run_seed: int = 0


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        names = ", ".join(sorted(f"{where}.{u}" for u in unknown))
        raise ValidationError(f"unknown field(s): {names}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ValidationError(f"missing required field {where}.{key}")
    return block[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return value


def _as_seed(value, where: str) -> int:
    seed = _as_int(value, where)
    if seed < 0:
        raise ValidationError(f"{where} must be nonnegative, got {seed}")
    return seed


def _as_real(value, where: str) -> float:
    # json.loads also accepts NaN, Infinity and integers too large for a float.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _construct(block: str, spec, **fields):
    """``spec(**fields)``; its range errors lead with the key, so they name the config path."""
    try:
        return spec(**fields)
    except (InvalidSpec, InvalidParams) as exc:
        raise ValidationError(f"{block}.{exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment configuration file.

    Defaults: epsilon 1.0, K 1, max_iters 5000, grad_tol 1e-10,
    heterogeneity 0, seeds 0, topology.n = problem.n, output metrics.csv.
    The spec constructors check the ranges. Raises ParseError for malformed
    JSON (with line/column context) and ValidationError naming the
    offending field(s) otherwise.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    _reject_unknown(raw, _TOP_FIELDS, "config")

    prob = _require(raw, "problem", "config")
    _reject_unknown(prob, _PROBLEM_FIELDS, "problem")
    problem = _construct(
        "problem",
        ProblemSpec,
        kind=_require(prob, "kind", "problem"),
        n=_as_int(_require(prob, "n", "problem"), "problem.n"),
        d=_as_int(_require(prob, "d", "problem"), "problem.d"),
        samples_per_agent=_as_int(prob.get("samples_per_agent", 20), "problem.samples_per_agent"),
        ridge=_as_real(prob.get("lambda", 0.1), "problem.lambda"),
        heterogeneity=_as_real(prob.get("heterogeneity", 0.0), "problem.heterogeneity"),
    )
    problem_seed = _as_seed(prob.get("seed", 0), "problem.seed")

    topo = _require(raw, "topology", "config")
    _reject_unknown(topo, _TOPOLOGY_FIELDS, "topology")
    topo_n = _as_int(topo.get("n", problem.n), "topology.n")
    if topo_n != problem.n:
        raise ValidationError(f"topology.n ({topo_n}) must equal problem.n ({problem.n})")
    topology = _construct(
        "topology",
        TopologySpec,
        kind=_require(topo, "kind", "topology"),
        n=topo_n,
        p=_as_real(topo.get("p", 0.5), "topology.p"),
        seed=_as_int(topo.get("seed", 0), "topology.seed"),
    )

    algo = raw.get("algorithm", {})
    _reject_unknown(algo, _ALGORITHM_FIELDS, "algorithm")
    name = algo.get("name", "giant")
    if name not in ALGORITHMS:
        raise ValidationError(f"algorithm.name must be one of {ALGORITHMS}, got {name!r}")
    epsilon = _as_real(algo.get("epsilon", 1.0), "algorithm.epsilon")
    if epsilon <= 0:
        raise ValidationError(f"algorithm.epsilon must be positive, got {epsilon}")
    algorithm = _construct(
        "algorithm",
        AlgorithmConfig,
        epsilon=epsilon,
        K=_as_int(algo.get("K", 1), "algorithm.K"),
        max_iters=_as_int(algo.get("max_iters", 5000), "algorithm.max_iters"),
        grad_tol=_as_real(algo.get("grad_tol", 1e-10), "algorithm.grad_tol"),
    )

    grid = None
    if "tuner" in raw:
        tuner = raw["tuner"]
        _reject_unknown(tuner, _TUNER_FIELDS, "tuner")
        values = _require(tuner, "epsilon_grid", "tuner")
        if not isinstance(values, list) or not values:
            raise ValidationError("tuner.epsilon_grid must be a nonempty list")
        grid = tuple(_as_real(v, "tuner.epsilon_grid") for v in values)
        if any(v <= 0 for v in grid):
            raise ValidationError("tuner.epsilon_grid entries must be positive")

    output = raw.get("output", "metrics.csv")
    if not isinstance(output, str):
        raise ValidationError("output must be a string path")

    return ExperimentConfig(
        problem=problem,
        problem_seed=problem_seed,
        topology=topology,
        algorithm_name=name,
        algorithm=algorithm,
        epsilon_grid=grid,
        output=output,
        run_seed=_as_seed(raw.get("run_seed", 0), "run_seed"),
    )


def build_instance(cfg: ExperimentConfig) -> ProblemInstance:
    """Generate the problem and guarantee it carries a reference solution.

    Families without a closed-form minimizer get one from the centralized
    Newton oracle at tolerance 1e-12 before any distributed run.
    """
    instance = generate_problem(cfg.problem_seed, cfg.problem)
    if instance.reference_solution is None:
        x_star = centralized_newton(instance, np.zeros(instance.dimension), tol=REFERENCE_TOL)
        instance = instance.with_reference(x_star)
    return instance


def build_network(cfg: ExperimentConfig) -> tuple[Graph, MixingMatrix]:
    graph = make_graph(cfg.topology.kind, cfg.topology.n, cfg.topology.p, cfg.topology.seed)
    return graph, metropolis_weights(graph)


def validate_experiment(cfg: ExperimentConfig) -> ValidationReport:
    """Build the configured graph and weights and check the mixing invariants."""
    graph, mix = build_network(cfg)
    return validate_mixing(mix.p, graph)


def initial_stack(cfg: ExperimentConfig, instance: ProblemInstance) -> np.ndarray:
    """Per-agent standard-normal start, deterministic in run_seed."""
    rng = np.random.Generator(np.random.Philox(cfg.run_seed))
    return rng.standard_normal((instance.n_agents, instance.dimension))


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> MetricsLog:
    """Build instance, graph and weights, run the configured algorithm, write CSV."""
    instance = build_instance(cfg)
    _, mix = build_network(cfg)
    x0 = initial_stack(cfg, instance)
    _, log = run(cfg.algorithm_name, instance, mix, cfg.algorithm, x0)
    write_metrics_csv(log, out_path or cfg.output)
    return log


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_metrics_csv(log: MetricsLog, path: str) -> None:
    """Serialize a run log; floats carry 17 significant digits for round-trips."""
    _write_csv(
        path,
        CSV_COLUMNS,
        (
            (str(r.iteration), _fmt(r.opt_gap), _fmt(r.consensus_err), _fmt(r.grad_norm),
             _fmt(r.tracking_drift), _fmt(r.lyapunov))
            for r in log.records
        ),
    )


@dataclass(frozen=True)
class TuneResult:
    """How one algorithm's run at one step size ended; ``rate`` is set by ``compare``."""

    algorithm: str
    epsilon: float
    status: str  # reached | not_reached | diverged
    iterations: int | None
    final_gap: float
    rate: float | None = None


@dataclass(frozen=True)
class ComparisonSummary:
    target: float
    rows: tuple[TuneResult, ...]


def _tune(instance, mix, x0, name, algo_cfg, grid, target):
    """Run ``name`` at every grid step size: ``(results, winner, winner's log)``.

    Only the winner's log is kept. A later point replaces it only when
    strictly better under ``_tune_key``, so among ties the earliest wins.
    """
    results, best, best_log = [], None, None
    for eps in grid:
        _, log = run(name, instance, mix, replace(algo_cfg, epsilon=eps), x0)
        gap = float(log.final.opt_gap)
        if log.diverged or not np.isfinite(gap) or gap > DIVERGENCE_LIMIT:
            result = TuneResult(name, eps, "diverged", None, gap)
        else:
            hit = log.first_iteration_below(target)
            result = TuneResult(name, eps, "not_reached" if hit is None else "reached", hit, gap)
        results.append(result)
        if best is None or _tune_key(result) < _tune_key(best):
            best, best_log = result, log
        del log  # no losing log is held while the next point runs
    return results, best, best_log


def _tune_key(r: TuneResult):
    rank = {"reached": 0, "not_reached": 1, "diverged": 2}[r.status]
    iters = r.iterations if r.iterations is not None else np.inf
    gap = r.final_gap if np.isfinite(r.final_gap) else np.inf
    return (rank, iters, gap)


def tune_epsilon(
    cfg: ExperimentConfig, grid, target: float | None = None
) -> tuple[float, list[TuneResult]]:
    """Grid-search the step size, preferring fewest iterations to the gap target.

    ``target`` defaults to the configured grad_tol, reused as an
    optimality-gap threshold. Diverged runs are marked, never raised;
    among runs that never reach the target the smallest final gap wins,
    with grid order breaking ties.
    """
    grid = tuple(float(e) for e in grid)
    if not grid or any(e <= 0 for e in grid):
        raise InvalidParams("epsilon grid must be nonempty and positive")
    if target is None:
        target = cfg.algorithm.grad_tol
    instance = build_instance(cfg)
    _, mix = build_network(cfg)
    x0 = initial_stack(cfg, instance)
    results, best, _ = _tune(instance, mix, x0, cfg.algorithm_name, cfg.algorithm, grid, target)
    return best.epsilon, results


def compare(cfg: ExperimentConfig, algorithms=ALGORITHMS, target: float = 1e-6) -> ComparisonSummary:
    """Tune and run each algorithm on the identical instance, weights and start.

    The problem, graph and initial stack are built once from the config
    seeds and shared, never regenerated per algorithm. Each algorithm is
    tuned over the config's epsilon grid (or its single configured
    epsilon) and reported at its best step size.
    """
    for name in algorithms:
        if name not in ALGORITHMS:
            raise InvalidParams(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    grid = cfg.epsilon_grid or (cfg.algorithm.epsilon,)
    instance = build_instance(cfg)
    _, mix = build_network(cfg)
    x0 = initial_stack(cfg, instance)

    rows = []
    for name in algorithms:
        _, best, log = _tune(instance, mix, x0, name, cfg.algorithm, grid, target)
        try:
            best = replace(best, rate=estimate_rate(log).rate)
        except InsufficientData:
            pass
        rows.append(best)
    return ComparisonSummary(target=target, rows=tuple(rows))


def write_comparison_csv(summary: ComparisonSummary, path: str) -> None:
    _write_csv(
        path,
        COMPARISON_COLUMNS,
        (
            (r.algorithm, _fmt(r.epsilon), "" if r.iterations is None else str(r.iterations),
             r.status, _fmt(r.final_gap), "" if r.rate is None else _fmt(r.rate))
            for r in summary.rows
        ),
    )


def format_comparison(summary: ComparisonSummary) -> str:
    """Human-readable comparison table."""
    lines = [
        f"target gap: {summary.target:g}",
        f"{'algorithm':<10} {'epsilon':>9} {'iters':>8} {'status':<12} {'final_gap':>12} {'rate':>8}",
    ]
    for r in summary.rows:
        iters = "-" if r.iterations is None else str(r.iterations)
        rate = "-" if r.rate is None else f"{r.rate:.4f}"
        lines.append(
            f"{r.algorithm:<10} {r.epsilon:>9.4g} {iters:>8} {r.status:<12} "
            f"{r.final_gap:>12.4e} {rate:>8}"
        )
    return "\n".join(lines)
