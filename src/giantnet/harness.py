"""Configuration-driven experiment runner.

A single JSON document describes the problem, the topology, the algorithm
and the seeds. Unknown fields are rejected so a typo cannot silently
change an experiment. All randomness flows through the counter-based
Philox generator keyed by the three seeds, which makes every run,
including its CSV output, byte-reproducible.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .algorithms import ALGORITHMS, AlgorithmConfig, centralized_newton, check_target, run
from .diagnostics import MetricsLog, MetricsRecord, estimate_rate
from .errors import GiantNetError, InsufficientData, InvalidParams, InvalidSpec, ParseError, ValidationError
from .numerics import is_finite_real, is_integer
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

CSV_COLUMNS = ("iter", *MetricsRecord._fields[1:])

# compare's default optimality-gap target, shared with the CLI's --target.
COMPARE_TARGET = 1e-6

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


def _as_seed(value, where: str) -> int:
    if not (is_integer(value) and value >= 0):
        raise ValidationError(f"{where} must be a nonnegative integer, got {value!r}")
    return value


def _epsilon_grid(values) -> tuple[float, ...]:
    """The step sizes of a tuning grid as floats; InvalidParams unless each is a finite real > 0."""
    grid = tuple(values) if isinstance(values, Iterable) else ()
    if not grid or not all(is_finite_real(eps) and eps > 0 for eps in grid):
        raise InvalidParams(f"epsilon_grid must be a nonempty list of finite reals > 0, got {values!r}")
    return tuple(float(eps) for eps in grid)


def _construct(block: str, spec, **fields):
    """``spec(**fields)``; its type and range errors lead with the key, so they name the config path."""
    try:
        return spec(**fields)
    except (InvalidSpec, InvalidParams) as exc:
        raise ValidationError(f"{block}.{exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment configuration file.

    The fields of the problem, topology and algorithm blocks that are
    present are passed to ``ProblemSpec`` (``lambda`` as ``ridge``),
    ``TopologySpec`` and ``AlgorithmConfig``, so absent ones take those
    constructors' defaults, and the constructors type the fields and check
    their ranges. Other defaults: algorithm.name giant, seeds 0,
    topology.n = problem.n, output metrics.csv. Raises
    ParseError for malformed JSON (with line/column context), a file that
    is not UTF-8, JSON nested too deep to parse and an integer literal too
    long to convert, and ValidationError naming the offending field(s)
    otherwise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deep to parse") from exc
    except ValueError as exc:  # UnicodeDecodeError, or an integer past the int-string digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    _reject_unknown(raw, _TOP_FIELDS, "config")

    prob = _require(raw, "problem", "config")
    _reject_unknown(prob, _PROBLEM_FIELDS, "problem")
    for key in ("kind", "n", "d"):
        _require(prob, key, "problem")
    fields = {"ridge" if key == "lambda" else key: value for key, value in prob.items() if key != "seed"}
    problem = _construct("problem", ProblemSpec, **fields)
    problem_seed = _as_seed(prob.get("seed", 0), "problem.seed")

    topo = _require(raw, "topology", "config")
    _reject_unknown(topo, _TOPOLOGY_FIELDS, "topology")
    _require(topo, "kind", "topology")
    topology = _construct("topology", TopologySpec, **{"n": problem.n, **topo})
    if topology.n != problem.n:
        raise ValidationError(f"topology.n ({topology.n}) must equal problem.n ({problem.n})")

    algo = raw.get("algorithm", {})
    _reject_unknown(algo, _ALGORITHM_FIELDS, "algorithm")
    name = algo.get("name", "giant")
    if name not in ALGORITHMS:
        raise ValidationError(f"algorithm.name must be one of {ALGORITHMS}, got {name!r}")
    algorithm = _construct("algorithm", AlgorithmConfig, **{k: v for k, v in algo.items() if k != "name"})
    if not algorithm.epsilon > 0:
        raise ValidationError(f"algorithm.epsilon must be positive, got {algorithm.epsilon}")

    grid = None
    if "tuner" in raw:
        tuner = raw["tuner"]
        _reject_unknown(tuner, _TUNER_FIELDS, "tuner")
        values = _require(tuner, "epsilon_grid", "tuner")
        if not isinstance(values, list):
            raise ValidationError("tuner.epsilon_grid must be a nonempty list")
        grid = _construct("tuner", _epsilon_grid, values=values)

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
    Newton oracle, at its default tolerance, before any distributed run.
    """
    instance = generate_problem(cfg.problem_seed, cfg.problem)
    if instance.reference_solution is None:
        x_star = centralized_newton(instance, np.zeros(instance.dimension))
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
    rng = Generator(Philox(cfg.run_seed))
    return rng.standard_normal((instance.n_agents, instance.dimension))


def _setup(cfg: ExperimentConfig) -> tuple[ProblemInstance, MixingMatrix, np.ndarray]:
    """The instance, mixing matrix and start stack of an experiment, built from the config seeds."""
    instance = build_instance(cfg)
    _, mix = build_network(cfg)
    return instance, mix, initial_stack(cfg, instance)


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> MetricsLog:
    """Build instance, graph and weights, run the configured algorithm, write CSV."""
    instance, mix, x0 = _setup(cfg)
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
    rows = ((str(int(k)), *map(_fmt, rest)) for k, *rest in log.table.tolist())
    _write_csv(path, CSV_COLUMNS, rows)


@dataclass(frozen=True)
class TuneResult:
    """How one algorithm's run at one step size ended; ``rate`` is set by ``compare``."""

    algorithm: str
    epsilon: float
    status: str  # reached | not_reached | diverged | failed
    iterations: int | None
    final_gap: float
    rate: float | None = None


@dataclass(frozen=True)
class ComparisonSummary:
    target: float
    rows: tuple[TuneResult, ...]


def _tune_point(instance, mix, x0, name, algo_cfg, target, stop_at_target=False, start=None):
    """``(TuneResult, state, log)`` of one grid point: ``name`` run under ``algo_cfg``.

    With ``stop_at_target`` the run also stops where it reaches ``target``;
    with a ``start`` it resumes from that earlier ``(state, log)``. A run
    that raises a ``GiantNetError`` is ``failed``, with a NaN gap, and has
    no state or log. Every run goes through the module-global ``run``.
    """
    try:
        state, log = run(name, instance, mix, algo_cfg, x0, target=target if stop_at_target else None, start=start)
    except GiantNetError:
        return TuneResult(name, algo_cfg.epsilon, "failed", None, np.nan), None, None
    hit = None if log.diverged else log.first_iteration_below(target)
    status = "diverged" if log.diverged else "not_reached" if hit is None else "reached"
    return TuneResult(name, algo_cfg.epsilon, status, hit, float(log.final.opt_gap)), state, log


def _full_runs(instance, mix, x0, name, algo_cfg, grid, target):
    """``_tune_point`` of each step size of ``grid``, run in full, one at a time."""
    for eps in grid:
        yield _tune_point(instance, mix, x0, name, replace(algo_cfg, epsilon=eps), target)


def _best(points):
    """``(result, log)`` of the first ``(result, state, log)`` of ``points`` least under ``_tune_key``.

    No losing log is held while the next point runs.
    """
    best, best_log = None, None
    for result, _, log in points:
        if best is None or _tune_key(result) < _tune_key(best):
            best, best_log = result, log
        del log
    return best, best_log


def _tune_winner(instance, mix, x0, name, algo_cfg, grid, target):
    """``(winner, winner's log)`` of ``name`` over ``grid``: the point a full grid run picks.

    Each point first runs until it reaches the target or until the least
    hit h found so far (``max_iters = h``), whichever comes first. A point
    that has not reached the target by h ranks below the best, as its full
    run would (its log is a prefix of that run's), and is dropped. Until
    some point reaches the target, every run is a full one, and the best
    of them keeps its log; the last point then runs in full at once, since
    its hit would cap no later point. The points that reach the target at
    the least hit, the leaders, then run on in full, each resumed from the
    ``(state, log)`` its early run stopped at, so no step up to the hit is
    taken twice and its blocks are those any run takes from the hit's
    iteration: their final gaps break the tie, and the winner's full log
    gives the rate. A displaced leader's pair is dropped, so one state and
    at most hit + 1 rows are held per leader. If every leader diverges or
    fails after its hit, the early ranking was wrong, and every point runs
    in full from iteration 0, as in ``tune_epsilon``. Only the best log is
    kept.
    """
    cap, leaders, best, best_log = algo_cfg.max_iters, [], None, None
    for i, eps in enumerate(grid, 1):
        # A last point with no hit before it caps nothing: a stop at its hit would only waste its block's rest.
        early = bool(leaders) or i < len(grid)
        point = replace(algo_cfg, epsilon=eps, max_iters=cap)
        result, state, log = _tune_point(instance, mix, x0, name, point, target, stop_at_target=early)
        if early and result.status == "reached":
            tied = leaders if leaders and result.iterations == cap else []
            leaders = [*tied, (eps, (state, log))]
            cap, best, best_log = result.iterations, None, None
        elif not leaders and (best is None or _tune_key(result) < _tune_key(best)):
            best, best_log = result, log
        del state, log  # no losing log is held while the next point runs
    if leaders:
        resumed = (
            _tune_point(instance, mix, x0, name, replace(algo_cfg, epsilon=eps), target, start=start)
            for eps, start in leaders
        )
        best, best_log = _best(resumed)
        if best.status != "reached":
            best, best_log = _best(_full_runs(instance, mix, x0, name, algo_cfg, grid, target))
    return best, best_log


def _tune_key(r: TuneResult):
    rank = {"reached": 0, "not_reached": 1, "diverged": 2, "failed": 3}[r.status]
    iters = r.iterations if r.iterations is not None else np.inf
    gap = r.final_gap if np.isfinite(r.final_gap) else np.inf
    return (rank, iters, gap)


def tune_epsilon(
    cfg: ExperimentConfig, grid, target: float | None = None
) -> tuple[float, list[TuneResult]]:
    """Grid-search the step size, preferring fewest iterations to the gap target.

    ``target`` defaults to the configured grad_tol, reused as an
    optimality-gap threshold. Diverged runs, and runs that raise a
    ``GiantNetError`` (``failed``), are marked, never raised; among runs
    that never reach the target the smallest final gap wins, with grid
    order breaking ties. Every point runs in full to its stopping rule,
    since each point's result is returned (``compare``, which reports the
    winner only, stops each point at its hit). Raises
    InvalidParams for a grid that is empty or holds anything but finite
    reals > 0, and for a target that is not a finite number >= 0.
    """
    grid = _epsilon_grid(grid)
    if target is None:
        target = cfg.algorithm.grad_tol
    check_target(target)
    instance, mix, x0 = _setup(cfg)
    runs = _full_runs(instance, mix, x0, cfg.algorithm_name, cfg.algorithm, grid, target)
    results = [result for result, *_ in runs]
    return min(results, key=_tune_key).epsilon, results  # min keeps the earliest of ties


def compare(cfg: ExperimentConfig, algorithms=ALGORITHMS, target: float = COMPARE_TARGET) -> ComparisonSummary:
    """Tune and run each algorithm on the identical instance, weights and start.

    The problem, graph and initial stack are built once from the config
    seeds and shared, never regenerated per algorithm. Each algorithm is
    tuned over the config's epsilon grid (or its single configured
    epsilon) and reported at its best step size; a point whose run raises
    a ``GiantNetError`` is ``failed`` and ranks last. Each point runs only
    until it reaches the target or until the least hit so far, and only
    the points tied at the least hit run on to ``grad_tol``, each resumed
    from its hit, for their final gap and rate (see ``_tune_winner``); the
    reported rows, rates included, are the winners of a full grid run
    (``tune_epsilon`` at the same target). Every run goes through the
    module-global ``run``, and a resumed run returns its whole log.
    Raises InvalidParams for an empty algorithm list, an unknown name and
    a target that is not a finite number >= 0.
    """
    if not algorithms:
        raise InvalidParams(f"algorithms must name at least one of {ALGORITHMS}")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise InvalidParams(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    check_target(target)
    grid = cfg.epsilon_grid or (cfg.algorithm.epsilon,)
    instance, mix, x0 = _setup(cfg)

    rows = []
    for name in algorithms:
        best, log = _tune_winner(instance, mix, x0, name, cfg.algorithm, grid, target)
        if log is not None:  # None when every point failed
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
