import json
import re
from dataclasses import replace

import numpy as np
import pytest

from giantnet import ParseError, ValidationError, estimate_rate, load_config, run, tune_epsilon
from giantnet.harness import (
    CSV_COLUMNS,
    build_instance,
    build_network,
    compare,
    initial_stack,
    run_experiment,
    validate_experiment,
    write_comparison_csv,
)

BASE = {
    "problem": {"kind": "quadratic", "n": 6, "d": 3, "heterogeneity": 1.0, "seed": 5},
    "topology": {"kind": "ring", "n": 6, "seed": 1},
    "algorithm": {"name": "giant", "epsilon": 0.25, "max_iters": 2000, "grad_tol": 1e-11},
    "run_seed": 2,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_cfg(**overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


class TestLoadConfig:
    def test_minimal_file_gets_documented_defaults(self, tmp_path):
        path = write_cfg(
            tmp_path, {"problem": {"kind": "quadratic", "n": 4, "d": 2}, "topology": {"kind": "ring"}}
        )
        cfg = load_config(path)
        assert cfg.algorithm.epsilon == 1.0
        assert cfg.algorithm.K == 1
        assert cfg.algorithm.max_iters == 5000
        assert cfg.algorithm.grad_tol == 1e-10
        assert cfg.algorithm_name == "giant"
        assert cfg.topology.n == 4
        assert cfg.problem.heterogeneity == 0.0
        assert cfg.output == "metrics.csv"
        assert cfg.run_seed == 0

    def test_unknown_field_rejected(self, tmp_path):
        payload = base_cfg()
        payload["problem"]["kappa"] = 3
        with pytest.raises(ValidationError, match="problem.kappa"):
            load_config(write_cfg(tmp_path, payload))

    def test_unknown_top_level_field_rejected(self, tmp_path):
        payload = base_cfg()
        payload["plot"] = True
        with pytest.raises(ValidationError, match="config.plot"):
            load_config(write_cfg(tmp_path, payload))

    def test_topology_size_mismatch_names_both_fields(self, tmp_path):
        payload = base_cfg(topology={"n": 5})
        with pytest.raises(ValidationError, match=r"topology\.n.*problem\.n"):
            load_config(write_cfg(tmp_path, payload))

    def test_negative_epsilon_rejected(self, tmp_path):
        payload = base_cfg(algorithm={"epsilon": -0.1})
        with pytest.raises(ValidationError, match="epsilon"):
            load_config(write_cfg(tmp_path, payload))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": {', encoding="utf-8")
        with pytest.raises(ParseError, match="line"):
            load_config(str(path))

    def test_logistic_needs_positive_lambda(self, tmp_path):
        payload = base_cfg(problem={"kind": "logistic", "lambda": 0.0})
        with pytest.raises(ValidationError, match="lambda"):
            load_config(write_cfg(tmp_path, payload))

    def test_tuner_grid_parsed_and_checked(self, tmp_path):
        payload = base_cfg(tuner={"epsilon_grid": [0.1, 0.5]})
        cfg = load_config(write_cfg(tmp_path, payload))
        assert cfg.epsilon_grid == (0.1, 0.5)
        payload = base_cfg(tuner={"epsilon_grid": []})
        with pytest.raises(ValidationError, match="epsilon_grid"):
            load_config(write_cfg(tmp_path, payload))
        payload = base_cfg(tuner={"epsilon_grid": [0.1, -0.5]})
        with pytest.raises(ValidationError, match="epsilon_grid"):
            load_config(write_cfg(tmp_path, payload))

    def test_bad_graph_kind_rejected(self, tmp_path):
        payload = base_cfg(topology={"kind": "torus"})
        with pytest.raises(ValidationError, match="topology.kind"):
            load_config(write_cfg(tmp_path, payload))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"problem": {"kind": "cubic"}}, "problem.kind"),
            ({"problem": {"n": 0}}, "problem.n"),
            ({"problem": {"d": 0}}, "problem.d"),
            ({"problem": {"kind": "logistic", "samples_per_agent": 0}}, "problem.samples_per_agent"),
            ({"problem": {"heterogeneity": -0.5}}, "problem.heterogeneity"),
            ({"problem": {"kind": "logistic", "lambda": -0.1}}, "problem.lambda"),
            ({"topology": {"kind": "torus"}}, "topology.kind"),
            ({"topology": {"kind": "erdos_renyi", "p": 0.0}}, "topology.p"),
            ({"problem": {"n": 5}, "topology": {"kind": "grid", "n": 5}}, "topology.n"),
            ({"algorithm": {"K": 0}}, "algorithm.K"),
            ({"algorithm": {"max_iters": -1}}, "algorithm.max_iters"),
            ({"algorithm": {"grad_tol": -1e-3}}, "algorithm.grad_tol"),
            ({"algorithm": {"epsilon": float("nan")}}, "algorithm.epsilon"),
            ({"algorithm": {"grad_tol": float("nan")}}, "algorithm.grad_tol"),
            ({"algorithm": {"grad_tol": float("inf")}}, "algorithm.grad_tol"),
            ({"problem": {"heterogeneity": float("inf")}}, "problem.heterogeneity"),
            ({"problem": {"heterogeneity": 10**400}}, "problem.heterogeneity"),
            ({"topology": {"kind": "erdos_renyi", "p": float("nan")}}, "topology.p"),
            ({"tuner": {"epsilon_grid": [0.1, float("-inf")]}}, "tuner.epsilon_grid"),
            ({"problem": {"seed": -1}}, "problem.seed"),
            ({"topology": {"seed": -1}}, "topology.seed"),
            ({"run_seed": -1}, "run_seed"),
        ],
    )
    def test_out_of_range_value_names_config_path(self, tmp_path, overrides, path):
        # json.dumps writes nan and inf as the NaN/Infinity literals json.loads accepts
        payload = base_cfg(**overrides)
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)} "):
            load_config(write_cfg(tmp_path, payload))


class TestRunExperiment:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_experiment(cfg, str(out1))
        run_experiment(cfg, str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_schema_is_stable(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg(algorithm={"max_iters": 3})))
        out = tmp_path / "m.csv"
        run_experiment(cfg, str(out))
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_zero_iters_header_plus_one_row(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg(algorithm={"max_iters": 0})))
        out = tmp_path / "m.csv"
        run_experiment(cfg, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_exact_newton_scenario_stops_at_one(self, tmp_path):
        payload = base_cfg(
            problem={"heterogeneity": 0.0},
            topology={"kind": "complete"},
            algorithm={"epsilon": 1.0, "max_iters": 50},
        )
        cfg = load_config(write_cfg(tmp_path, payload))
        log = run_experiment(cfg, str(tmp_path / "m.csv"))
        assert log.final.iteration == 1
        assert log.final.opt_gap <= 1e-12

    def test_logistic_reference_filled_in(self, tmp_path):
        payload = base_cfg(
            problem={"kind": "logistic", "lambda": 0.1, "samples_per_agent": 15, "heterogeneity": 0.5},
            algorithm={"epsilon": 0.2, "max_iters": 500},
        )
        cfg = load_config(write_cfg(tmp_path, payload))
        instance = build_instance(cfg)
        assert instance.reference_solution is not None
        assert np.linalg.norm(instance.average_gradient(instance.reference_solution)) <= 1e-12
        log = run_experiment(cfg, str(tmp_path / "m.csv"))
        assert not log.diverged

    def test_validate_experiment_passes_for_metropolis(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        assert validate_experiment(cfg).passed


class TestTuneEpsilon:
    def test_singleton_grid(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        best, results = tune_epsilon(cfg, [0.25], target=1e-8)
        assert best == 0.25
        assert len(results) == 1

    def test_convergent_beats_divergent(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        best, results = tune_epsilon(cfg, [1.0, 0.25], target=1e-8)
        assert best == 0.25
        by_eps = {r.epsilon: r for r in results}
        assert by_eps[1.0].status == "diverged"
        assert by_eps[0.25].status == "reached"

    def test_selection_matches_exhaustive_rerun_oracle(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        grid = [0.1, 0.25, 0.4]
        target = 1e-8
        best, results = tune_epsilon(cfg, grid, target=target)
        # oracle: rerun every epsilon independently and pick the fewest
        # iterations to the target
        instance = build_instance(cfg)
        _, mix = build_network(cfg)
        x0 = initial_stack(cfg, instance)
        oracle = {}
        for eps in grid:
            from dataclasses import replace

            _, log = run("giant", instance, mix, replace(cfg.algorithm, epsilon=eps), x0)
            oracle[eps] = log.first_iteration_below(target)
        expected = min((it, eps) for eps, it in oracle.items() if it is not None)[1]
        assert best == expected
        for r in results:
            assert r.iterations == oracle[r.epsilon]

    def test_empty_grid_rejected(self, tmp_path):
        from giantnet import InvalidParams

        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        with pytest.raises(InvalidParams):
            tune_epsilon(cfg, [])


class TestCompare:
    def test_single_algorithm_row(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        summary = compare(cfg, ("giant",), target=1e-8)
        assert len(summary.rows) == 1
        assert summary.rows[0].algorithm == "giant"
        assert summary.rows[0].status == "reached"

    def test_unreachable_target_marks_all_rows(self, tmp_path):
        payload = base_cfg(algorithm={"max_iters": 2, "epsilon": 0.01})
        cfg = load_config(write_cfg(tmp_path, payload))
        summary = compare(cfg, ("giant", "dgd", "gt"), target=1e-12)
        assert all(r.status == "not_reached" for r in summary.rows)
        assert all(r.iterations is None for r in summary.rows)

    def test_comparison_csv_schema(self, tmp_path):
        payload = base_cfg(algorithm={"max_iters": 5, "epsilon": 0.1})
        cfg = load_config(write_cfg(tmp_path, payload))
        summary = compare(cfg, ("giant", "dgd"), target=1e-12)
        out = tmp_path / "cmp.csv"
        write_comparison_csv(summary, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "algorithm,epsilon,iterations_to_target,status,final_gap,rate"
        assert len(lines) == 3

    def test_deterministic(self, tmp_path):
        payload = base_cfg(
            algorithm={"max_iters": 300, "epsilon": 0.1}, tuner={"epsilon_grid": [0.05, 0.25]}
        )
        cfg = load_config(write_cfg(tmp_path, payload))
        a = compare(cfg, ("giant", "gt"), target=1e-6)
        b = compare(cfg, ("giant", "gt"), target=1e-6)
        assert a == b

    def test_rows_are_tune_epsilon_winners_with_their_rate(self, tmp_path):
        payload = base_cfg(
            algorithm={"max_iters": 300}, tuner={"epsilon_grid": [0.02, 0.05, 0.25, 1.0]}
        )
        cfg = load_config(write_cfg(tmp_path, payload))
        summary = compare(cfg, ("giant", "dgd", "gt"), target=1e-6)
        instance = build_instance(cfg)
        _, mix = build_network(cfg)
        x0 = initial_stack(cfg, instance)
        for row in summary.rows:
            algo_cfg = replace(cfg, algorithm_name=row.algorithm)
            best, results = tune_epsilon(algo_cfg, cfg.epsilon_grid, target=1e-6)
            (winner,) = [r for r in results if r.epsilon == best]
            _, log = run(row.algorithm, instance, mix, replace(cfg.algorithm, epsilon=best), x0)
            assert row == replace(winner, rate=estimate_rate(log).rate)
