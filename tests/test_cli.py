import json
import subprocess
import sys
from pathlib import Path

from giantnet.cli import main

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


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_good_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOOD)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "sigma2" in out
    assert "OK" in out


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
