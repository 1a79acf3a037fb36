"""One benchmark operation in a fresh process: the child that run.py starts.

    python3 perfbench/worker.py --workload NAME --config CFG.json --out OUT.csv [--traced]

Loads the config, builds the instance and network, validates the mixing
matrix, runs the workload's operation (one ``run`` or one ``compare``),
writes its CSV and checks the outputs. Prints one JSON line with phase
times, counts, peak RSS, the CSV digest and the failed checks. With
``--traced`` the package's public functions are wrapped by
``spans.Tracer`` for the operation and the span report is added.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from time import perf_counter

T_START = perf_counter()

import giantnet as gn  # noqa: E402
from giantnet import harness  # noqa: E402

IMPORT_S = perf_counter() - T_START

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    COMPARE_ALGOS,
    COMPARE_MUST_REACH,
    COMPARE_TARGET,
    DRIFT_LIMIT,
    WORKLOADS,
)


def _count_runs(out: list):
    """Shim on harness.run recording (iterations, diverged) of each run compare makes.

    It holds no timer; the plain pass needs it only because compare
    returns the best run per algorithm, not how many iterations all runs took.
    """
    original = harness.run

    def counted(*args, **kwargs):
        state, log = original(*args, **kwargs)
        out.append((len(log) - 1, bool(log.diverged)))
        return state, log

    harness.run = counted
    return original


def _check_run(workload, cfg, log, failures: list) -> None:
    drifts = [r.tracking_drift for r in log.records]
    if cfg.algorithm_name == "giant" and not all(d <= DRIFT_LIMIT for d in drifts):
        failures.append(f"tracking_drift above {DRIFT_LIMIT:g}: max {max(drifts):.3e}")
    final = log.final
    if workload.fixed_iters is None:
        if log.diverged or not final.grad_norm <= cfg.algorithm.grad_tol:
            failures.append(
                f"did not reach grad_tol: diverged={log.diverged} grad_norm={final.grad_norm:.3e}"
            )
    else:
        finite = all(
            math.isfinite(v)
            for r in log.records
            for v in (r.opt_gap, r.consensus_err, r.grad_norm, r.tracking_drift)
        )
        if log.diverged or final.iteration != workload.fixed_iters or not finite:
            failures.append(
                f"expected {workload.fixed_iters} finite iterations, got {final.iteration} "
                f"(diverged={log.diverged}, finite={finite})"
            )


def operation(workload, config_path: str, out_path: str, result: dict, failures: list) -> None:
    t0 = perf_counter()
    cfg = harness.load_config(config_path)
    instance = harness.build_instance(cfg)
    graph, mix = harness.build_network(cfg)
    report = gn.validate_mixing(mix.p, graph)
    t1 = perf_counter()
    if workload.op == "run":
        x0 = harness.initial_stack(cfg, instance)
        _, log = gn.run(cfg.algorithm_name, instance, mix, cfg.algorithm, x0)
        t2 = perf_counter()
        harness.write_metrics_csv(log, out_path)
        runs = [(len(log) - 1, bool(log.diverged))]
    else:
        runs = []
        original = _count_runs(runs)
        try:
            summary = gn.compare(cfg, COMPARE_ALGOS, target=COMPARE_TARGET)
        finally:
            harness.run = original
        t2 = perf_counter()
        harness.write_comparison_csv(summary, out_path)
    t3 = perf_counter()
    result.update(
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        write_s=t3 - t2,
        op_s=t3 - t0,
        iterations=sum(k for k, _ in runs),
        runs=len(runs),
        diverged_runs=sum(d for _, d in runs),
    )

    if not report.passed:
        failures.append(f"validate_mixing failed: {[c.name for c in report.failures()]}")
    if workload.op == "run":
        _check_run(workload, cfg, log, failures)
    else:
        status = {r.algorithm: r.status for r in summary.rows}
        for algo in COMPARE_MUST_REACH:
            if status.get(algo) != "reached":
                failures.append(f"compare: {algo} status {status.get(algo)!r}, expected 'reached'")


def peak_rss_mb() -> float:
    """This process's peak resident set size since its exec.

    VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent
    across fork and exec, so it would report the benchmark's own parent
    whenever that is larger than the operation.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    result = {"import_s": IMPORT_S}
    failures = []
    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    try:
        operation(WORKLOADS[args.workload], args.config, args.out, result, failures)
    except Exception as exc:  # any exception is one failed operation, reported to the parent
        failures.append(f"exception: {type(exc).__name__}: {exc}")
    finally:
        if tracer and not tracer.restore():
            failures.append("tracer left a wrapper in place")
    if tracer:
        result["trace"] = tracer.report()
    try:
        with open(args.out, "rb") as fh:
            result["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        failures.append(f"no CSV: {exc}")
    result["peak_rss_mb"] = peak_rss_mb()
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
