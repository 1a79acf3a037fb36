import gc
import json
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from giantnet import (
    AlgorithmConfig,
    InvalidParams,
    InvalidSpec,
    NotPositiveDefinite,
    ParseError,
    ProblemInstance,
    ProblemSpec,
    TopologySpec,
    ValidationError,
    estimate_rate,
    load_config,
    make_graph,
    run,
    tune_epsilon,
)
from giantnet import algorithms, harness, objectives
from giantnet.cli import main as cli_main
from giantnet.harness import (
    CSV_COLUMNS,
    TuneResult,
    _tune_key,
    build_instance,
    build_network,
    compare,
    initial_stack,
    run_experiment,
    validate_experiment,
    write_comparison_csv,
)

import reference
from conftest import identical_quadratic_instance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def tune_on_shipped_config(epsilon_grid):
    # tune_epsilon checks its grid before it builds anything
    return tune_epsilon(load_config(str(CONFIGS / "quadratic_ring.json")), epsilon_grid)


# The owner of each checked field: the calls that receive it, their other arguments, their error.
OWNERS = {
    "problem": ((ProblemSpec,), {"kind": "quadratic", "n": 6, "d": 3}, InvalidSpec),
    "topology": ((TopologySpec, make_graph), {"kind": "ring", "n": 6}, InvalidParams),
    "algorithm": ((AlgorithmConfig,), {}, InvalidParams),
    "tuner": ((tune_on_shipped_config,), {}, InvalidParams),
}

# (config overrides, config path, owner, the owner's arguments holding the same bad value);
# owner None: the loader makes the check itself (the JSON structure, the seeds outside the
# topology block, the algorithm name, a positive epsilon and the output path).
CONFIG_CASES = [
    ({"problem": {"kind": "cubic"}}, "problem.kind", "problem", {"kind": "cubic"}),
    ({"problem": {"n": 0}}, "problem.n", "problem", {"n": 0}),
    ({"problem": {"d": 0}}, "problem.d", "problem", {"d": 0}),
    ({"problem": {"kind": "logistic", "samples_per_agent": 0}}, "problem.samples_per_agent",
     "problem", {"kind": "logistic", "samples_per_agent": 0}),
    ({"problem": {"heterogeneity": -0.5}}, "problem.heterogeneity", "problem", {"heterogeneity": -0.5}),
    ({"problem": {"kind": "logistic", "lambda": -0.1}}, "problem.lambda",
     "problem", {"kind": "logistic", "ridge": -0.1}),
    ({"topology": {"kind": "torus"}}, "topology.kind", "topology", {"kind": "torus"}),
    ({"topology": {"kind": "erdos_renyi", "p": 0.0}}, "topology.p",
     "topology", {"kind": "erdos_renyi", "p": 0.0}),
    ({"problem": {"n": 5}, "topology": {"kind": "grid", "n": 5}}, "topology.n",
     "topology", {"kind": "grid", "n": 5}),
    ({"algorithm": {"K": 0}}, "algorithm.K", "algorithm", {"K": 0}),
    ({"algorithm": {"max_iters": -1}}, "algorithm.max_iters", "algorithm", {"max_iters": -1}),
    ({"algorithm": {"grad_tol": -1e-3}}, "algorithm.grad_tol", "algorithm", {"grad_tol": -1e-3}),
    ({"algorithm": {"epsilon": float("nan")}}, "algorithm.epsilon", "algorithm", {"epsilon": float("nan")}),
    ({"algorithm": {"grad_tol": float("nan")}}, "algorithm.grad_tol", "algorithm", {"grad_tol": float("nan")}),
    ({"algorithm": {"grad_tol": float("inf")}}, "algorithm.grad_tol", "algorithm", {"grad_tol": float("inf")}),
    ({"problem": {"heterogeneity": float("inf")}}, "problem.heterogeneity",
     "problem", {"heterogeneity": float("inf")}),
    ({"problem": {"heterogeneity": 10**400}}, "problem.heterogeneity", "problem", {"heterogeneity": 10**400}),
    ({"topology": {"kind": "erdos_renyi", "p": float("nan")}}, "topology.p",
     "topology", {"kind": "erdos_renyi", "p": float("nan")}),
    ({"tuner": {"epsilon_grid": [0.1, float("-inf")]}}, "tuner.epsilon_grid",
     "tuner", {"epsilon_grid": [0.1, float("-inf")]}),
    ({"problem": {"seed": -1}}, "problem.seed", None, None),
    ({"topology": {"seed": -1}}, "topology.seed", "topology", {"seed": -1}),
    ({"run_seed": -1}, "run_seed", None, None),
    ({"algorithm": {"epsilon": 10**400}}, "algorithm.epsilon", "algorithm", {"epsilon": 10**400}),
    ({"algorithm": {"grad_tol": 10**400}}, "algorithm.grad_tol", "algorithm", {"grad_tol": 10**400}),
    ({"tuner": {"epsilon_grid": ["0.1"]}}, "tuner.epsilon_grid", "tuner", {"epsilon_grid": ["0.1"]}),
    ({"tuner": {"epsilon_grid": [True]}}, "tuner.epsilon_grid", "tuner", {"epsilon_grid": [True]}),
    ({"topology": {"seed": 1.5}}, "topology.seed", "topology", {"seed": 1.5}),
    ({"topology": {"p": float("nan")}}, "topology.p", "topology", {"p": float("nan")}),
    # beyond int64: the graph's edge keys lo * n + hi would overflow
    ({"problem": {"n": 10**23}, "topology": {"n": 10**23}}, "problem.n", "problem", {"n": 10**23}),
    ({"problem": 3}, "problem", None, None),
    ({"tuner": [0.1]}, "tuner", None, None),
    ({"algorithm": {"name": "newton"}}, "algorithm.name", None, None),
    # AlgorithmConfig accepts epsilon 0 for pure-consensus studies; a config may not ask for it.
    ({"algorithm": {"epsilon": 0}}, "algorithm.epsilon", None, None),
    ({"tuner": {"epsilon_grid": 0.5}}, "tuner.epsilon_grid", None, None),
    ({"output": 3}, "output", None, None),
]
CONSTRUCTOR_OWNED = [case for case in CONFIG_CASES if case[2] is not None]


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

    @pytest.mark.parametrize(
        "block, key", [("problem", "kind"), ("problem", "d"), ("topology", "kind"), ("config", "problem")]
    )
    def test_missing_required_field_is_named(self, tmp_path, block, key):
        payload = base_cfg()
        del (payload if block == "config" else payload[block])[key]
        with pytest.raises(ValidationError, match=rf"^missing required field {block}\.{key}$"):
            load_config(write_cfg(tmp_path, payload))

    def test_top_level_must_be_an_object(self, tmp_path):
        with pytest.raises(ParseError, match="top level must be a JSON object$"):
            load_config(write_cfg(tmp_path, [BASE]))

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

    @pytest.mark.parametrize("overrides, path", [case[:2] for case in CONFIG_CASES])
    def test_out_of_range_value_names_config_path(self, tmp_path, overrides, path):
        # json.dumps writes nan and inf as the NaN/Infinity literals json.loads accepts
        payload = base_cfg(**overrides)
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)} "):
            load_config(write_cfg(tmp_path, payload))

    @pytest.mark.parametrize(
        "overrides, path, owner, args", CONSTRUCTOR_OWNED, ids=[c[1] for c in CONSTRUCTOR_OWNED]
    )
    def test_constructor_owns_the_check(self, tmp_path, overrides, path, owner, args):
        # The config error is the owner's, re-raised with the block name, so the loader made no
        # check of its own first; called directly, the owner raises the same check.
        calls, defaults, error = OWNERS[owner]
        with pytest.raises(ValidationError) as info:
            load_config(write_cfg(tmp_path, base_cfg(**overrides)))
        assert isinstance(info.value.__cause__, error)
        field = path.split(".")[-1]
        for call in calls:
            with pytest.raises(error, match=rf"^{field} "):
                call(**{**defaults, **args})


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
        assert np.linalg.norm(instance.objective.gradient(instance.reference_solution)) <= 1e-12
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

    def test_target_defaults_to_grad_tol(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        grid = [0.25, 0.4]
        assert tune_epsilon(cfg, grid) == tune_epsilon(cfg, grid, target=cfg.algorithm.grad_tol)

    def test_empty_grid_rejected(self, tmp_path):
        from giantnet import InvalidParams

        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        with pytest.raises(InvalidParams):
            tune_epsilon(cfg, [])

    @pytest.mark.parametrize("grid", [0.25, None, 3])
    def test_grid_that_is_not_iterable_rejected(self, grid):
        with pytest.raises(InvalidParams, match="^epsilon_grid must be"):
            tune_on_shipped_config(grid)

    @pytest.mark.parametrize("target", [np.nan, np.inf, -1e-6, "1e-6", pytest.param(10**400, id="1e400")])
    def test_target_must_be_finite_and_nonnegative(self, tmp_path, target):
        from giantnet import InvalidParams

        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        with pytest.raises(InvalidParams, match="^target must be"):
            tune_epsilon(cfg, [0.25], target=target)


class TestCompare:
    @pytest.mark.parametrize(
        "algorithms, target, field",
        [((), 1e-6, "algorithms"), (("giant",), np.nan, "target"),
         (("giant",), np.inf, "target"), (("giant",), -1e-6, "target")],
    )
    def test_empty_list_and_bad_target_rejected(self, tmp_path, algorithms, target, field):
        # a NaN target reads every run as not_reached; an empty list prints an empty table
        from giantnet import InvalidParams

        cfg = load_config(write_cfg(tmp_path, base_cfg()))
        with pytest.raises(InvalidParams, match=f"^{field} must"):
            compare(cfg, algorithms, target=target)

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
        # compare caps the points after a hit; tune_epsilon runs every point in full
        payload = base_cfg(
            algorithm={"max_iters": 300}, tuner={"epsilon_grid": [0.02, 0.05, 0.25, 1.0]}
        )
        for run_seed in range(10):
            cfg = replace(load_config(write_cfg(tmp_path, payload)), run_seed=run_seed)
            summary = compare(cfg, ("giant", "dgd", "gt"), target=1e-6)
            instance = build_instance(cfg)
            _, mix = build_network(cfg)
            x0 = initial_stack(cfg, instance)
            for row in summary.rows:
                algo_cfg = replace(cfg, algorithm_name=row.algorithm)
                best, results = tune_epsilon(algo_cfg, cfg.epsilon_grid, target=1e-6)
                (winner,) = [r for r in results if r.epsilon == best]
                _, log = run(row.algorithm, instance, mix, replace(cfg.algorithm, epsilon=best), x0)
                assert row == replace(winner, rate=estimate_rate(log).rate), run_seed

    def test_tie_on_the_best_hit_goes_to_the_smaller_final_gap(self):
        # giant at eps 0.05 and 0.1 both reach 1e-6 at iteration 96; 0.1 runs capped at 96,
        # stops at the cap and must run again in full for its final gap and rate
        cfg = replace(load_config(str(CONFIGS / "quadratic_ring.json")), run_seed=577090037)
        _, results = tune_epsilon(cfg, cfg.epsilon_grid, target=1e-6)
        first, second = results[1:3]
        assert (first.epsilon, first.iterations, second.epsilon, second.iterations) == (0.05, 96, 0.1, 96)
        assert second.final_gap < first.final_gap
        (giant,) = compare(cfg, ("giant",), target=1e-6).rows
        instance = build_instance(cfg)
        _, mix = build_network(cfg)
        _, log = run("giant", instance, mix, replace(cfg.algorithm, epsilon=0.1), initial_stack(cfg, instance))
        assert giant == replace(second, rate=estimate_rate(log).rate)

    def test_points_after_a_hit_stop_at_it(self, monkeypatch):
        steps = [0, None]  # step calls, and the state of the first call since the mark was cleared

        def counted(step):
            def wrapper(*args, **kwargs):
                steps[0] += 1
                steps[1] = args[0] if steps[1] is None else steps[1]
                return step(*args, **kwargs)

            return wrapper

        for name in ("giant_step", "gt_step", "dgd_step"):
            monkeypatch.setattr(algorithms, name, counted(getattr(algorithms, name)))
        checks, check_block = [0], algorithms.check_block

        def counted_check(*args):
            checks[0] += 1
            return check_block(*args)

        monkeypatch.setattr(algorithms, "check_block", counted_check)
        # (algorithm, epsilon, max_iters, step calls, iteration the target was hit, target, last iteration,
        #  and for a resumed run the start's last iteration and whether its first step was from the start's state)
        runs = []

        def recorded(name, instance, mix, algo_cfg, x0, **kwargs):
            before, steps[1] = steps[0], None
            state, log = run(name, instance, mix, algo_cfg, x0, **kwargs)
            hit = None if log.diverged else log.first_iteration_below(1e-6)
            start = kwargs.get("start")
            resumed = None if start is None else (start[1].final.iteration, steps[1] is start[0])
            runs.append((name, algo_cfg.epsilon, algo_cfg.max_iters, steps[0] - before, hit, kwargs.get("target"),
                         log.final.iteration, resumed))
            return state, log

        monkeypatch.setattr(harness, "run", recorded)
        # perfbench seed 1; giant at 0.05 and 0.1 both reach 1e-6 first, at iteration 96
        cfg = replace(load_config(str(CONFIGS / "quadratic_ring.json")), run_seed=577090037)
        compare(cfg, ("giant", "dgd", "gt"), target=1e-6)
        compare_checks = checks[0]
        instance = build_instance(cfg)
        _, mix = build_network(cfg)
        x0 = initial_stack(cfg, instance)
        leaders = {"giant": [0.05, 0.1], "gt": [0.02], "dgd": []}
        for name in ("giant", "dgd", "gt"):
            made = [r for r in runs if r[0] == name]
            dropped = [r for r in made if r[2] < cfg.algorithm.max_iters and r[4] is None]
            assert all(calls <= cap for _, _, cap, calls, *_ in dropped)
            # a run with a target ends at its hit; only the points tied at the least hit run on to grad_tol
            early, full = [r for r in made if r[5] is not None], [r for r in made if r[5] is None]
            assert all(r[6] == r[4] for r in early if r[4] is not None)
            assert [r[1] for r in full] == (leaders[name] or [cfg.epsilon_grid[-1]])
            # a leader resumes from its hit and steps only after it; dgd's last point runs in full at once
            assert [r[7] for r in full] == ([(r[4], True) for r in full] if leaders[name] else [None])
            before = steps[0]
            for eps in cfg.epsilon_grid:
                run(name, instance, mix, replace(cfg.algorithm, epsilon=eps), x0)
            full_grid = steps[0] - before
            made_calls = sum(r[3] for r in made)
            if name == "dgd":  # never reaches 1e-6: every run is a full one
                assert (dropped, made_calls) == ([], full_grid)
            else:  # no step up to a leader's hit is taken twice
                assert len(dropped) >= 3 and made_calls < full_grid
        # A resumed leader takes the blocks any run takes at its hit, 64 steps each here: blocks of
        # 1, 2, 4, ... from each hit would make 3,426 step calls but 174 checks.
        assert sum(r[3] for r in runs) <= 3429
        assert compare_checks <= 159

    @pytest.fixture(params=["diverges", "fails"])
    def blowup(self, request, monkeypatch):
        """How giant's leader on the shipped quadratic ring breaks after its hit.

        giant at eps 0.05 reaches 1e-6 first (iteration 88, then 0.1 at 91); here its
        step, a pure function of the state, throws x to 1e13 or raises once every agent
        is within 1e-6 of x*, long after the hit, so only its full run breaks.
        """
        cfg = load_config(str(CONFIGS / "quadratic_ring.json"))
        x_star = build_instance(cfg).reference_solution
        giant_step = algorithms.giant_step

        def step(state, instance, mix, algo_cfg):
            if algo_cfg.epsilon == 0.05 and np.abs(state.x - x_star).max() < 1e-6:
                if request.param == "fails":
                    raise NotPositiveDefinite("injected after the hit")
                return algorithms.NetworkState(np.full_like(state.x, 1e13), state.g, state.w)
            return giant_step(state, instance, mix, algo_cfg)

        monkeypatch.setattr(algorithms, "giant_step", step)
        return request.param

    def test_a_leader_that_breaks_after_its_hit_falls_back_to_full_runs(self, blowup):
        cfg = load_config(str(CONFIGS / "quadratic_ring.json"))
        best, results = tune_epsilon(cfg, cfg.epsilon_grid, target=1e-6)
        broken = {"diverges": "diverged", "fails": "failed"}[blowup]
        assert [(r.epsilon, r.status) for r in results[1:3]] == [(0.05, broken), (0.1, "reached")]
        (giant,) = compare(cfg, ("giant",), target=1e-6).rows
        instance = build_instance(cfg)
        _, mix = build_network(cfg)
        _, log = run("giant", instance, mix, replace(cfg.algorithm, epsilon=best), initial_stack(cfg, instance))
        (winner,) = [r for r in results if r.epsilon == best]
        assert best == 0.1 and giant == replace(winner, rate=estimate_rate(log).rate)

    def test_the_fallback_holds_no_losing_log(self, monkeypatch, blowup):
        # a fallback full run (no target, no start) starts with at most the best earlier log alive
        logs, alive = [], []

        def recorded(name, instance, mix, algo_cfg, x0, **kwargs):
            fallback = kwargs.get("target") is None and kwargs.get("start") is None
            if fallback:
                gc.collect()
                alive.append(sum(ref() is not None for ref in logs))
            state, log = run(name, instance, mix, algo_cfg, x0, **kwargs)
            if fallback:
                logs.append(weakref.ref(log))
            return state, log

        monkeypatch.setattr(harness, "run", recorded)
        cfg = load_config(str(CONFIGS / "quadratic_ring.json"))
        compare(cfg, ("giant",), target=1e-6)
        assert len(alive) == len(cfg.epsilon_grid) >= 3
        assert max(alive) <= 1, alive


def indefinite_far_out(center):
    """0.5 * ||x - center||^2 as ``x -> (value, gradient, Hessian)``, the Hessian diag(1, -1) where x[0] > 10; pure."""
    center = np.asarray(center, dtype=float)
    return lambda x: (0.5 * np.sum((x - center) ** 2), x - center, np.eye(2) if x[0] <= 10 else np.diag([1.0, -1.0]))


class TestFailedGridPoints:
    """A grid point whose run raises a typed error is ``failed``; the other points still run."""

    @pytest.fixture
    def cfg(self, tmp_path, monkeypatch):
        # Three agents on a ring of three: giant at eps 3 overshoots x* by a factor -2 per
        # step, so its iterate passes x[0] = 10 and a local Hessian turns indefinite.
        centers = ([1.0, 0.0], [2.0, -1.0], [0.0, 3.0])
        family = reference.Loop([indefinite_far_out(c) for c in centers], 2)
        instance = ProblemInstance(family, mu=1.0, lipschitz=1.0, reference_solution=np.mean(centers, axis=0))
        monkeypatch.setattr(harness, "build_instance", lambda cfg: instance)
        payload = base_cfg(problem={"n": 3, "d": 2}, topology={"n": 3}, algorithm={"max_iters": 200})
        return load_config(write_cfg(tmp_path, payload))

    def test_one_failed_point_among_others(self, cfg):
        best, results = tune_epsilon(cfg, [0.25, 3.0, 1.0], target=1e-8)
        assert [r.status for r in results] == ["reached", "failed", "reached"]
        failed = results[1]
        assert (failed.algorithm, failed.epsilon, failed.iterations, failed.rate) == ("giant", 3.0, None, None)
        assert np.isnan(failed.final_gap)
        assert best == 1.0

    def test_compare_reports_the_winner_and_a_lone_failure(self, cfg, tmp_path):
        summary = compare(replace(cfg, epsilon_grid=(3.0, 1.0)), ("giant", "gt"), target=1e-8)
        assert [(r.epsilon, r.status) for r in summary.rows] == [(1.0, "reached"), (1.0, "reached")]
        summary = compare(replace(cfg, epsilon_grid=(3.0,)), ("giant", "gt"), target=1e-8)
        giant, gt = summary.rows
        assert (giant.status, giant.iterations, giant.rate) == ("failed", None, None)
        assert gt.status == "diverged"  # gt applies no Hessian, so eps 3 diverges instead
        out = tmp_path / "cmp.csv"
        write_comparison_csv(summary, str(out))
        assert out.read_text(encoding="utf-8").splitlines()[1] == "giant,3,,failed,nan,"

    def test_failed_ranks_after_diverged(self):
        diverged = TuneResult("giant", 1.0, "diverged", None, np.inf)
        failed = TuneResult("giant", 0.5, "failed", None, np.nan)
        assert _tune_key(diverged) < _tune_key(failed)


class TestSingleVerdict:
    """A point is ``diverged`` exactly when its run's log is, however large its final gap."""

    @pytest.fixture
    def cfg_path(self, tmp_path, monkeypatch):
        # Identical quadratics with minimizer 1e6 * 1 and a standard-normal start: every state
        # entry stays near 1e6 in magnitude, far inside [-1e12, 1e12], and the gap is about 2.5e12.
        instance = identical_quadratic_instance(6, np.full(5, 1e6))
        monkeypatch.setattr(harness, "build_instance", lambda cfg: instance)
        return write_cfg(tmp_path, base_cfg(problem={"d": 5}, algorithm={"max_iters": 0}))

    def test_compare_reads_not_reached(self, cfg_path):
        summary = compare(load_config(cfg_path), target=1e-6)
        for row in summary.rows:
            assert (row.status, row.iterations) == ("not_reached", None)
            assert 1e12 < row.final_gap < np.inf

    def test_run_exits_zero(self, cfg_path, tmp_path, capsys):
        assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "run.csv")]) == 0
        assert "diverged" not in capsys.readouterr().err


class TestShippedConfigs:
    """Pins the figures the benchmark checks, so a last-bit move cannot flip a tuned winner."""

    def test_compare_table(self):
        summary = compare(load_config(str(CONFIGS / "quadratic_ring.json")), target=1e-6)
        rows = {r.algorithm: r for r in summary.rows}
        assert list(rows) == ["giant", "dgd", "gt"]
        expected = {
            "giant": (0.05, 88, "reached", 0.8770),
            "dgd": (0.02, None, "not_reached", 1.0000),
            "gt": (0.02, 107, "reached", 0.8872),
        }
        for name, (epsilon, iterations, status, rate) in expected.items():
            row = rows[name]
            assert (row.epsilon, row.iterations, row.status) == (epsilon, iterations, status)
            assert abs(row.rate - rate) <= 1e-3
        assert abs(rows["giant"].final_gap) <= 1e-15
        assert abs(rows["gt"].final_gap) <= 1e-15

    @pytest.mark.parametrize("name, records", [("quadratic_ring", 687), ("logistic_er", 91)])
    def test_run_record_counts(self, tmp_path, name, records):
        cfg = load_config(str(CONFIGS / f"{name}.json"))
        assert len(run_experiment(cfg, str(tmp_path / "m.csv"))) == records

    @pytest.mark.parametrize(
        "name, averaged", [("quadratic_ring", "QuadraticObjective"), ("logistic_er", "LogisticObjective")]
    )
    def test_run_builds_only_the_averaged_objective(self, tmp_path, monkeypatch, name, averaged):
        # The agents stay stacked, so the only single-point view a run builds
        # is ProblemInstance.objective, the one agent of the 1-agent
        # family.average: no per-agent objective (``averaged`` names the class
        # whose per-point objective a run once built).
        views, instances = [], []
        init, build = objectives._OneAgent.__init__, harness.build_instance

        def counting_init(self, family, index):
            views.append(family)
            init(self, family, index)

        def recording_build(cfg):
            instances.append(build(cfg))
            return instances[-1]

        monkeypatch.setattr(objectives._OneAgent, "__init__", counting_init)
        monkeypatch.setattr(harness, "build_instance", recording_build)
        run_experiment(load_config(str(CONFIGS / f"{name}.json")), str(tmp_path / "m.csv"))
        (instance,) = instances
        assert views and all(family is instance.family.average for family in views)
        assert instance.__dict__["objective"].family is instance.family.average
