import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import giantnet.cli
from giantnet.cli import main
from giantnet.topology import (
    MixingCheck,
    ValidationReport,
    _RowSparse,
    make_graph,
    metropolis_weights,
)

GOOD = {
    "problem": {"kind": "quadratic", "n": 6, "d": 3, "heterogeneity": 1.0, "seed": 5},
    "topology": {"kind": "ring", "n": 6, "seed": 1},
    "algorithm": {"name": "giant", "epsilon": 0.25, "max_iters": 1500, "grad_tol": 1e-11},
    "run_seed": 2,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_run_writes_csv_and_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOOD)
    out = tmp_path / "metrics.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    assert str(out) in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, GOOD)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_divergence_exit_code(tmp_path, capsys):
    payload = json.loads(json.dumps(GOOD))
    payload["algorithm"]["epsilon"] = 1.0
    payload["algorithm"]["max_iters"] = 300
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 3
    assert "diverged" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    payload = json.loads(json.dumps(GOOD))
    payload["algorithm"]["epsilon"] = -1.0
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_range_errors_found_at_load_exit_one(tmp_path, capsys):
    grid5 = json.loads(json.dumps(GOOD))
    grid5["problem"]["n"] = 5
    grid5["topology"] = {"kind": "grid", "n": 5}
    negative_seed = dict(GOOD, run_seed=-1)
    for payload, path in ((grid5, "topology.n"), (negative_seed, "run_seed")):
        cfg = write_cfg(tmp_path, payload)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert f"config error: {path} " in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "JSON nested too deep to parse"),
        pytest.param(
            b'{"run_seed": ' + b"1" * 5000 + b"}",
            "Exceeds the limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit before Python 3.10.7"
            ),
        ),
    ],
    ids=["not-utf8", "too-deep", "long-integer"],
)
def test_unparsable_file_is_a_config_error(tmp_path, capsys, content, reason):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and reason in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_good_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOOD)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "sigma2" in out
    assert "OK" in out


def test_validate_failing_report_exits_one(tmp_path, capsys, monkeypatch):
    failing = ValidationReport((MixingCheck("symmetry", False, 0.5),))
    monkeypatch.setattr(giantnet.cli, "validate_experiment", lambda cfg: failing)
    cfg = write_cfg(tmp_path, GOOD)
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "OK" not in out


def test_validate_rejects_unknown_field(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["problem"]["typo"] = 1
    cfg = write_cfg(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == 1


def test_compare_prints_table_and_writes_csv(tmp_path, capsys):
    payload = json.loads(json.dumps(GOOD))
    payload["algorithm"]["max_iters"] = 400
    payload["tuner"] = {"epsilon_grid": [0.05, 0.25]}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "summary.csv"
    code = main(
        ["compare", "--config", cfg, "--algos", "giant,gt", "--target", "1e-6", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "giant" in stdout and "gt" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("algorithm,")
    assert len(lines) == 3


def test_compare_unknown_algorithm_is_runtime_error(tmp_path):
    cfg = write_cfg(tmp_path, GOOD)
    assert main(["compare", "--config", cfg, "--algos", "giant,sgd"]) == 2


@pytest.mark.parametrize("args", [["--algos", ","], ["--target", "nan"], ["--target=-1"]])
def test_compare_argument_errors_exit_two(tmp_path, capsys, args):
    cfg = write_cfg(tmp_path, GOOD)
    assert main(["compare", "--config", cfg, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_graph_exports_edge_list(tmp_path):
    cfg = write_cfg(tmp_path, GOOD)
    out = tmp_path / "edges.txt"
    assert main(["graph", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6  # ring with 6 nodes
    assert lines[0] == "0 1"


def test_graph_stdout_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOOD)
    assert main(["graph", "--config", cfg]) == 0
    assert "0 1" in capsys.readouterr().out


def test_import_loads_neither_scipy_linalg_nor_sparse():
    # Each raises the peak memory of every process that imports giantnet by
    # several MiB (scipy.linalg by 6.3 MiB with scipy 1.17.1).
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import giantnet; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_paths_load_numpy_only(tmp_path):
    # scipy.special alone took most of the import time and 19 MiB of peak
    # memory (scipy 1.17.1). The check after the commands catches numpy submodules that load
    # lazily (numpy.random, numpy.ma via np.unique), which would move that
    # cost into setup instead of removing it.
    # A 400-node ring is above the crossover where metropolis_weights builds P as CSR.
    assert isinstance(metropolis_weights(make_graph("ring", 400)).p, _RowSparse)
    root = Path(__file__).resolve().parents[1]
    quad, logi = (str(root / "configs" / f"{name}.json") for name in ("quadratic_ring", "logistic_er"))
    ring = tmp_path / "ring400.json"
    ring.write_text(json.dumps({
        "problem": {"kind": "quadratic", "n": 400, "d": 2, "heterogeneity": 1.0},
        "topology": {"kind": "ring"},
        "algorithm": {"epsilon": 0.2, "max_iters": 5},
    }))
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(root / 'src')!r})
import giantnet, giantnet.cli
print(sorted(m for m in sys.modules if m.startswith("scipy")))
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    for cfg in {quad!r}, {logi!r}, {str(ring)!r}:
        assert giantnet.cli.main(["run", "--config", cfg, "--out", {str(tmp_path / 'run.csv')!r}]) == 0
        assert giantnet.cli.main(["validate", "--config", cfg]) == 0
        assert giantnet.cli.main(["graph", "--config", cfg]) == 0
    cmp = ["compare", "--config", {quad!r}, "--out", {str(tmp_path / 'cmp.csv')!r}]
    assert giantnet.cli.main(cmp) == 0
print(sorted(m for m in set(sys.modules) - before if m.startswith(("numpy", "scipy"))))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_readme_library_example_runs(tmp_path):
    # The README's one python block, run as a reader would paste it.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r})\n{block}"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, cwd=tmp_path
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "True []"  # as the example's comment shows
