"""Run and compare CSVs against tests/golden/.

The shipped configs' ``run`` and ``compare --out`` CSVs are pinned, and
so are the ``run`` CSVs of the configs kept in tests/golden/, which mix
on a CSR P: a ring's at K = 3, and the ragged rows of a grid at K = 2 and
of an Erdos-Renyi graph at K = 3.
Iterations, statuses and winning step sizes must match exactly. Every
other column must agree within ``BOUND`` times the largest magnitude in
that column of the golden file, since BLAS builds can move the last bits,
except ``tracking_drift`` of the CSR runs: there that column is roundoff,
which any reordered sum moves by a large share of itself, so it is judged
against ``DRIFT_BOUND`` on the gradient scale. ``tools/golden.py``
rewrites the files and ``tools/drift.py`` reports the drift per column;
this test prints the same report (``pytest -s``).
"""

import math
import sys
from pathlib import Path

import pytest

from giantnet.harness import compare, load_config, run_experiment, write_comparison_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tools"))

from drift import column_drift, read_csv  # noqa: E402

BOUND = 1e-9
# tracking_drift's own bound on a run that does not diverge: it sums gradients of order 1.
DRIFT_BOUND = 1e-9
EXACT = ("iter", "algorithm", "epsilon", "iterations_to_target", "status")


def _scale(rows, column):
    values = (abs(float(row[column])) for row in rows if row[column])
    return max((v for v in values if math.isfinite(v)), default=0.0)


def _assert_matches_golden(path, golden_name, drift_limit=None):
    header, rows = read_csv(path)
    golden_header, golden = read_csv(str(GOLDEN / golden_name))
    assert header == golden_header and len(rows) == len(golden)
    for column, field in enumerate(header):
        kind, drift = column_drift(golden, rows, column)
        print(f"{golden_name} {field}: {kind} {drift:g}")
        if field in EXACT or kind == "rows_differ":
            limit = 0.0
        else:
            absolute = field == "tracking_drift" and drift_limit is not None
            limit = drift_limit if absolute else BOUND * _scale(golden, column)
        assert drift <= limit, f"{field} drifts by {drift:g}, above {limit:g}"


@pytest.mark.parametrize("output", ["run", "compare"])
@pytest.mark.parametrize("name", ["quadratic_ring", "logistic_er"])
def test_shipped_outputs_match_the_golden_files(tmp_path, name, output):
    cfg = load_config(str(ROOT / "configs" / f"{name}.json"))
    path = str(tmp_path / "out.csv")
    if output == "run":
        run_experiment(cfg, path)
    else:
        write_comparison_csv(compare(cfg), path)
    _assert_matches_golden(path, f"{name}_{output}.csv")


@pytest.mark.parametrize("name", ["sparse_ring1000_k3", "sparse_grid1024_k2", "sparse_er2000_k3"])
def test_sparse_runs_match_the_golden_files(tmp_path, name):
    cfg = load_config(str(GOLDEN / f"{name}.json"))
    path = str(tmp_path / "out.csv")
    log = run_experiment(cfg, path)
    assert len(log) == cfg.algorithm.max_iters + 1 and not log.diverged
    _assert_matches_golden(path, f"{name}_run.csv", drift_limit=DRIFT_BOUND)


def test_column_drift():
    a = [["x", "1.5", "", "nan"], ["y", "2", "3", "nan"]]
    b = [["x", "1.25", "", "nan"], ["z", "2", "", "1"]]
    assert column_drift(a, b, 0) == ("rows_differ", 1)
    assert column_drift(a, b, 1) == ("max_abs", 0.25)
    assert column_drift(a, b, 2) == ("max_abs", math.inf)  # a blank against a number
    assert column_drift(a, b, 3) == ("max_abs", math.inf)  # NaN equals NaN, not a number
    assert column_drift(a, a, 3) == ("max_abs", 0.0)
