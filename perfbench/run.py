"""giantnet benchmark: time to solution, setup and memory over three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each repetition is one operation in a fresh process (``worker.py``), so
``total_s`` includes interpreter start and ``import giantnet`` and
``peak_rss_mb`` is that process's own peak. Repetitions continue until
``--seconds`` is used up (at least MIN_REPS of them) and every metric is
the median over repetitions.

Every time is scaled to a reference host speed: the calibration kernel of
``calibrate.py`` runs before and after each repetition, and the
repetition's times are multiplied by ``REFERENCE_S`` over the mean of the
two readings. The raw medians and the speed factors print as comments.

``--trace 0`` prints the end-to-end metrics from plain processes.
``--trace 1`` alternates plain and traced processes and prints the
per-layer metrics of the traced ones (self time per public function,
see ``spans.py``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation
fails when any output check fails (see ``worker.py``) or when its CSV
differs from the first repetition's, since every repetition uses the
same seed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, kernel_s
from spans import TARGETS
from workloads import WORKLOADS, seeded_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

MIN_REPS = 3
MIN_REPS_TRACED = 4  # two plain, two traced
# Start no repetition after this many seconds; keeps a run under 180 s
# even if an operation becomes far slower than today.
DEADLINE_S = 150.0
ACCOUNTING_TOL_S = 1e-6

END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iters_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

_PREFIXES = tuple(dict.fromkeys(prefix for prefix, _, _ in TARGETS))
_COUNTED = (
    "numerics.spd_factorize", "numerics.spd_solve", "objectives.stacked_gradient",
    "objectives.hessian", "objectives.average_value", "objectives.average_gradient",
    "topology.power", "algorithms.run",
)
PER_LAYER = (
    tuple((f"{p}.calls", "count") for p in _COUNTED)
    + tuple((f"{p}.self_s", "s") for p in _PREFIXES)
    + (
        ("numerics.spd_factorize.per_iter", "calls/iter"),
        ("objectives.stacked_gradient.per_iter", "calls/iter"),
        ("algorithms.giant_step.p50_ms", "ms"),
        ("algorithms.giant_step.p95_ms", "ms"),
        ("algorithms.iterations", "count"),
        ("algorithms.diverged_runs", "count"),
        ("cli.import_s", "s"),
        ("unattributed_s", "s"),
        ("trace_overhead", "ratio"),
    )
)


def _quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _blas():
    """BLAS library, its build string and thread count, from the loaded OpenBLAS."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    info = {"name": name, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
                    return info
    return info


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine(args, records, readings):
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(records),
        "calibration": {
            "reference_s": REFERENCE_S,
            "median_s": statistics.median(readings),
            "speed_factors": [round(r["speed"], 4) for r in records],
        },
    }


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, cfg_path, rep, traced, timeout):
    """One operation in a fresh process; returns the worker's record plus wall time."""
    out = WORK / f"{args.workload}-{args.seed}-{rep}.csv"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--config", str(cfg_path), "--out", str(out),
    ] + (["--traced"] if traced else [])
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
        wall = perf_counter() - t0
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"worker killed after {timeout:.0f} s"]}
    finally:
        out.unlink(missing_ok=True)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        record = {"failures": [f"worker exited {proc.returncode}: {' | '.join(tail)}"]}
    record.update(traced=traced, total_s=wall)
    return record


def check_records(records):
    """Add the cross-repetition checks: identical CSVs and self-time accounting."""
    digests = [r["csv_sha256"] for r in records if "csv_sha256" in r]
    for r in records:
        if "csv_sha256" in r and r["csv_sha256"] != digests[0]:
            r["failures"].append("CSV differs from the first repetition with the same seed")
        trace = r.get("trace")
        if trace and "op_s" in r:
            self_sum = sum(trace["self_s"].values())
            if abs(self_sum - trace["root_s"]) > ACCOUNTING_TOL_S or trace["root_s"] > r["op_s"]:
                r["failures"].append(
                    f"self-time accounting: self {self_sum:.6f} s, outermost spans "
                    f"{trace['root_s']:.6f} s, operation {r['op_s']:.6f} s"
                )


def end_to_end(records):
    samples = {name: [] for name, _ in END_TO_END}
    for r in records:
        if "solve_s" not in r:
            continue
        speed = r["speed"]
        samples["total_s"].append(speed * r["total_s"])
        samples["setup_s"].append(speed * r["setup_s"])
        samples["solve_s"].append(speed * r["solve_s"])
        samples["iters_per_s"].append(r["iterations"] / (speed * r["solve_s"]))
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
    return samples


def _layer_values(r):
    trace, speed = r["trace"], r["speed"]
    calls, self_s = trace["calls"], trace["self_s"]
    iters = r["iterations"]
    steps_ms = [1e3 * speed * t for t in trace["durations"].get("algorithms.giant_step", [])]
    values = {f"{p}.calls": calls.get(p, 0) for p in _COUNTED}
    values.update({f"{p}.self_s": speed * self_s.get(p, 0.0) for p in _PREFIXES})
    values.update({
        "numerics.spd_factorize.per_iter": calls.get("numerics.spd_factorize", 0) / max(iters, 1),
        "objectives.stacked_gradient.per_iter":
            calls.get("objectives.stacked_gradient", 0) / max(iters, 1),
        "algorithms.giant_step.p50_ms": _quantile(steps_ms, 0.5) if steps_ms else 0.0,
        "algorithms.giant_step.p95_ms": _quantile(steps_ms, 0.95) if steps_ms else 0.0,
        "algorithms.iterations": iters,
        "algorithms.diverged_runs": r["diverged_runs"],
        "unattributed_s": speed * (r["op_s"] - sum(self_s.values())),
    })
    return values


def per_layer(records):
    traced = [r for r in records if r["traced"] and "trace" in r and "op_s" in r]
    plain = [r for r in records if not r["traced"] and "op_s" in r]
    samples = {name: [] for name, _ in PER_LAYER}
    for r in traced:
        for name, value in _layer_values(r).items():
            samples[name].append(value)
    samples["cli.import_s"] = [r["speed"] * r["import_s"] for r in records if "import_s" in r]
    if traced and plain:
        samples["trace_overhead"] = [
            statistics.median(r["speed"] * r["op_s"] for r in traced)
            / statistics.median(r["speed"] * r["op_s"] for r in plain)
        ]
    absent = sorted({a for r in traced for a in r["trace"]["absent"]})
    return samples, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "giantnet" / "__init__.py").is_file():
        print(f"no giantnet sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # Import once untimed: fails early if the package is broken, and
    # leaves every timed process the same warm file cache.
    warm = subprocess.run(
        [sys.executable, "-c", "import giantnet"], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=60,
    )
    if warm.returncode != 0:
        print(f"cannot import giantnet:\n{warm.stderr}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    cfg_path = WORK / f"{args.workload}-{args.seed}.json"
    cfg_path.write_text(json.dumps(seeded_config(WORKLOADS[args.workload], args.seed), indent=1))

    min_reps = MIN_REPS_TRACED if args.trace else MIN_REPS
    records = []
    readings = [kernel_s()]  # calibration before and after each repetition
    start = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - start
            typical = elapsed / len(records) if records else 0.0
            if len(records) >= min_reps and elapsed + typical > args.seconds:
                break
            if elapsed > DEADLINE_S - 1.0:
                break
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(run_worker(args, cfg_path, len(records), traced, DEADLINE_S - elapsed))
            readings.append(kernel_s())
    finally:
        cfg_path.unlink(missing_ok=True)
    for r, before, after in zip(records, readings, readings[1:]):
        r["speed"] = REFERENCE_S / (0.5 * (before + after))
    check_records(records)

    print("# machine " + json.dumps(machine(args, records, readings)))
    failed = sum(1 for r in records if r["failures"])
    for i, r in enumerate(records):
        for failure in r["failures"]:
            print(f"# FAILED repetition {i}{' (traced)' if r['traced'] else ''}: {failure}")
    if args.trace:
        samples, absent = per_layer(records)
        units = dict(PER_LAYER)
        for name in absent:
            print(f"# absent: {name} (reported as 0)")
    else:
        samples, units = end_to_end(records), dict(END_TO_END)
        raw = [r for r in records if "solve_s" in r]
        if raw:
            print("# raw medians, unscaled: " + ", ".join(
                f"{k} {statistics.median(r[k] for r in raw):.6g} s"
                for k in ("total_s", "setup_s", "solve_s")
            ))

    metrics = {}
    for name, values in samples.items():
        value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": units[name]}
        spread = (
            f" [p25 {_quantile(values, 0.25):.6g}, p75 {_quantile(values, 0.75):.6g}, n={len(values)}]"
            if values else " [no samples]"
        )
        print(f"{name} = {value:.6g} {units[name]}{spread}")
    print(f"error_rate = {failed / len(records):.6g} ({failed} of {len(records)} operations)")
    print(json.dumps(
        {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
