"""Rewrite the golden outputs in tests/golden/.

    python tools/golden.py

For each config in configs/ it writes ``<name>_run.csv`` (``giantnet run``)
and ``<name>_compare.csv`` (``giantnet compare`` with its default
algorithms and target). For each config kept in tests/golden/ itself, the
runs on a CSR mixing matrix at n >= 1000, it writes ``<name>_run.csv``
only. Run it only when a change is meant to move a trajectory, and state
the drift that ``tools/drift.py`` reports against the old files.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from giantnet.harness import compare, load_config, run_experiment, write_comparison_csv  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("quadratic_ring", "logistic_er")
RUN_ONLY = tuple(sorted(path.stem for path in GOLDEN.glob("*.json")))


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        cfg = load_config(str(ROOT / "configs" / f"{name}.json"))
        run_experiment(cfg, str(GOLDEN / f"{name}_run.csv"))
        write_comparison_csv(compare(cfg), str(GOLDEN / f"{name}_compare.csv"))
        print(f"wrote {name}_run.csv and {name}_compare.csv")
    for name in RUN_ONLY:
        run_experiment(load_config(str(GOLDEN / f"{name}.json")), str(GOLDEN / f"{name}_run.csv"))
        print(f"wrote {name}_run.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
