"""Self-test of the traced pass, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs two workload operations at seed 0 in this process, once plain and
once traced, and checks that:
- the traced CSV is byte-identical to the plain one;
- every name in the package is bound to its original object again;
- spans were recorded through the namespaces that import a function by
  name (giant_step calls ``algorithms.spd_factorize``, not
  ``numerics.spd_factorize``);
- self times add up to the time of the outermost spans.
Exits 0 when all hold, 1 otherwise. Takes about 15 s.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
from run import WORK, check_records  # noqa: E402
from spans import Tracer, package_modules  # noqa: E402
from workloads import WORKLOADS, seeded_config  # noqa: E402


def _bindings():
    """Every module-level name and class attribute in the package, by identity."""
    out = {}
    for module in package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("giantnet"):
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = member
    return out


def _pass(workload, cfg_path, tracer=None):
    out = WORK / f"selftest-{workload.name}-{'traced' if tracer else 'plain'}.csv"
    result, failures = {}, []
    if tracer:
        tracer.install()
    try:
        worker.operation(workload, str(cfg_path), str(out), result, failures)
    finally:
        restored = tracer.restore() if tracer else True
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    return result, failures, digest, restored


def main() -> int:
    WORK.mkdir(exist_ok=True)
    problems = []
    before = _bindings()
    for name in ("giant-quadratic-ring1000", "compare-quadratic-ring10"):
        workload = WORKLOADS[name]
        cfg_path = WORK / f"selftest-{name}.json"
        cfg_path.write_text(json.dumps(seeded_config(workload, 0)))
        try:
            plain, plain_failures, plain_digest, _ = _pass(workload, cfg_path)
            tracer = Tracer()
            traced, traced_failures, traced_digest, restored = _pass(workload, cfg_path, tracer)
        finally:
            cfg_path.unlink()
        report = tracer.report()

        problems += [f"{name}: check failed: {f}" for f in plain_failures + traced_failures]
        if traced_digest != plain_digest:
            problems.append(f"{name}: traced CSV differs from plain CSV")
        if not restored:
            problems.append(f"{name}: tracer did not restore every original")
        changed = [k for k, v in _bindings().items() if k in before and before[k] is not v]
        if changed:
            problems.append(f"{name}: bindings changed after restore: {changed[:5]}")
        if report["absent"]:
            print(f"{name}: absent targets: {report['absent']}")
        n_agents = seeded_config(workload, 0)["problem"]["n"]
        giant_steps = report["calls"].get("algorithms.giant_step", 0)
        if report["calls"].get("numerics.spd_factorize", 0) < n_agents * giant_steps:
            problems.append(f"{name}: spd_factorize calls inside giant_step were not traced")
        record = {"trace": report, "op_s": traced["op_s"], "failures": []}
        check_records([record])
        problems += [f"{name}: {f}" for f in record["failures"]]
        print(f"{name}: plain {plain['op_s']:.2f} s, traced {traced['op_s']:.2f} s, "
              f"{sum(report['calls'].values())} spans")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
