"""Batched agent families against per-agent references.

The per-point objectives are rows of the families' own results, so they
share the families' formulas. The independent oracle is ``reference.py``: plain
per-agent formulas that every batched quantity, average and value must
agree with to 1e-12 relative. Its ``Loop`` family runs the same formulas
one agent at a time through the package's generic paths, and generated
instances must stay bitwise identical to the per-agent generator.
"""

import numpy as np
import pytest
from scipy.special import expit

from giantnet import (
    AlgorithmConfig,
    DimensionMismatch,
    InvalidSpec,
    MetricsLog,
    NotPositiveDefinite,
    ProblemInstance,
    ProblemSpec,
    centralized_newton,
    decompose,
    generate_problem,
    giant_init,
    giant_step,
    harmonic_hessian_mean,
    make_graph,
    metropolis_weights,
    run,
    spd_factorize_stack,
    spd_solve_stack,
)
from giantnet import algorithms, diagnostics, numerics, objectives
from giantnet.diagnostics import check_block
from giantnet.objectives import HETEROGENEITY_SPREAD, AgentFamily, LogisticFamily, QuadraticFamily

import reference
from conftest import rng_for

REL = 1e-12

SHAPES = [(1, 1), (1, 3), (5, 1), (6, 4)]


def close(a, b):
    return np.linalg.norm(np.asarray(a) - b) <= REL * np.linalg.norm(b)


def instance_for(kind, n, d, seed=5):
    spec = ProblemSpec(kind=kind, n=n, d=d, samples_per_agent=12, heterogeneity=0.7)
    return generate_problem(seed, spec)


def looped(instance):
    """The same agents as ``reference.Loop``: the oracle's formulas, one agent at a time."""
    return ProblemInstance(reference.Loop.of(instance.family), mu=instance.mu, lipschitz=instance.lipschitz)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("n,d", SHAPES)
class TestAgainstPerAgent:
    def test_stacked_quantities(self, kind, n, d):
        instance = instance_for(kind, n, d)
        x = rng_for(20).standard_normal((n, d))
        objs = instance.objectives
        assert close(instance.family.gradients(x), [o.gradient(x[i]) for i, o in enumerate(objs)])
        assert close(instance.family.hessians(x), [o.hessian(x[i]) for i, o in enumerate(objs)])

    def test_averages(self, kind, n, d):
        instance = instance_for(kind, n, d)
        x = rng_for(21).standard_normal(d)
        objs = instance.objectives
        assert close(instance.objective.value(x), np.mean([o.value(x) for o in objs]))
        assert close(instance.objective.gradient(x), np.mean([o.gradient(x) for o in objs], axis=0))
        assert close(instance.family.average.hessians(x[None])[0], np.mean([o.hessian(x) for o in objs], axis=0))

    def test_newton_directions(self, kind, n, d):
        instance = instance_for(kind, n, d)
        rng = rng_for(22)
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((n, d))
        dirs = np.stack(
            [
                spd_solve_stack(spd_factorize_stack(o.hessian(x[i])[None]), w[i][None])[0]
                for i, o in enumerate(instance.objectives)
            ]
        )
        assert close(instance.family.newton_directions(x, w), dirs)

    def test_giant_step_and_harmonic_mean_match_loop_family(self, kind, n, d):
        instance = instance_for(kind, n, d)
        reference = looped(instance)
        mix = metropolis_weights(make_graph("ring", n))
        rng = rng_for(23)
        state = giant_init(instance, rng.standard_normal((n, d)))
        a = giant_step(state, instance, mix, AlgorithmConfig(epsilon=0.3))
        b = giant_step(state, reference, mix, AlgorithmConfig(epsilon=0.3))
        assert close(a.x, b.x) and close(a.w, b.w) and close(a.g, b.g)
        point = rng.standard_normal(d)
        assert close(harmonic_hessian_mean(instance, point), harmonic_hessian_mean(reference, point))

    def test_metrics_record_closed_forms_match_loop_family(self, kind, n, d):
        # oracle: reference.Loop's per-agent mean at the same point
        instance = instance_for(kind, n, d)
        reference = looped(instance)
        f_star = reference.objective.value(centralized_newton(reference, np.zeros(d)))
        x = 2.0 + rng_for(25).standard_normal((n, d))
        # one bare state's record, drift 0: the 1-row case of check_block
        a, b = (MetricsLog(check_block(i, x[None], None, None, 7, f_star)[0]).final for i in (instance, reference))
        assert a.opt_gap > 1e-3
        assert a.consensus_err == b.consensus_err == np.linalg.norm(decompose(x)[1])
        assert close(a.opt_gap, b.opt_gap) and close(a.grad_norm, b.grad_norm)

    def test_averages_reject_points_of_the_wrong_shape(self, kind, n, d):
        instance = instance_for(kind, n, d)
        for inst in (instance, looped(instance)):
            for average in (inst.objective.value, inst.objective.gradient):
                for bad in (np.zeros(d + 1), np.zeros((n, d))):
                    with pytest.raises(DimensionMismatch, match="point has shape"):
                        average(bad)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("n,d", SHAPES)
class TestAgainstReference:
    # oracle: reference.py's per-agent formulas, which share no code with the families
    def test_stacked_quantities_and_values(self, kind, n, d):
        instance = instance_for(kind, n, d)
        x = rng_for(26).standard_normal((n, d))
        values, gradients, hessians = reference.stacked(instance.family, x)
        assert close(instance.family.values(x), values)
        assert close(instance.family.gradients(x), gradients)
        assert close(instance.family.hessians(x), hessians)

    def test_averages(self, kind, n, d):
        instance = instance_for(kind, n, d)
        x = rng_for(27).standard_normal(d)
        value, gradient, hessian = reference.averaged(instance.family, x)
        assert close(instance.objective.value(x), value)
        assert close(instance.objective.gradient(x), gradient)
        assert close(instance.family.average.hessians(x[None])[0], hessian)
        assert close(instance.family.average.values(x[None]), [value])

    def test_per_point_objectives(self, kind, n, d):
        instance = instance_for(kind, n, d)
        x = rng_for(28).standard_normal(d)
        for obj, agent in zip(instance.objectives, reference.agents(instance.family)):
            value, gradient, hessian = agent(x)
            assert close(obj.value(x), value)
            assert close(obj.gradient(x), gradient)
            assert close(obj.hessian(x), hessian)


def test_objectives_and_averages_use_the_family_formulas(monkeypatch):
    # Each cost has one formula, the family's: patching it moves the per-point
    # objectives and the instance's averages alike.
    quadratic = instance_for("quadratic", 3, 2)
    logistic = instance_for("logistic", 3, 2)
    x = rng_for(29).standard_normal(2)
    quad_obj, logi_obj = quadratic.objectives[0], logistic.objectives[0]
    before = (quad_obj.value(x), quadratic.objective.value(x), logi_obj.gradient(x), logistic.objective.gradient(x))
    values, gradients = QuadraticFamily.values, LogisticFamily.gradients
    monkeypatch.setattr(QuadraticFamily, "values", lambda self, x: values(self, x) + 1.0)
    monkeypatch.setattr(LogisticFamily, "gradients", lambda self, x: gradients(self, x) + 1.0)
    after = (quad_obj.value(x), quadratic.objective.value(x), logi_obj.gradient(x), logistic.objective.gradient(x))
    for old, new in zip(before, after):
        assert np.allclose(new, np.add(old, 1.0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "loop"])
def test_average_is_a_one_agent_family_of_the_same_class(kind):
    instance = instance_for("quadratic" if kind == "loop" else kind, 4, 3)
    family = looped(instance).family if kind == "loop" else instance.family
    assert family.average.shape == (1, 3)
    assert type(family.average) is type(family)


def test_pooled_logistic_average_shares_memory_with_the_stacks():
    family = instance_for("logistic", 4, 3).family
    assert family.average.shape == (1, 3)
    assert family.average.features.shape == (1, 4 * 12, 3) and family.average.labels.shape == (1, 4 * 12)
    assert np.shares_memory(family.average.features, family.features)
    assert np.shares_memory(family.average.labels, family.labels)


def test_generation_bitwise_equal_to_per_agent_draws():
    # oracle: the per-agent generator, drawing from Philox in the same order
    spec = ProblemSpec(kind="quadratic", n=4, d=3, heterogeneity=0.8)
    rng = np.random.Generator(np.random.Philox(7))
    top = 1.0 + spec.heterogeneity * HETEROGENEITY_SPREAD
    mats = []
    for _ in range(spec.n):
        eigs = np.exp(rng.uniform(0.0, np.log(top), size=spec.d))
        q, r = np.linalg.qr(rng.standard_normal((spec.d, spec.d)))
        q = q * np.sign(np.diag(r))
        a = (q * eigs) @ q.T
        mats.append(0.5 * (a + a.T))
    offsets = rng.standard_normal(spec.d) + spec.heterogeneity * rng.standard_normal((spec.n, spec.d))
    instance = generate_problem(7, spec)
    assert np.array_equal(instance.family.a, np.stack(mats))
    assert np.array_equal(instance.family.b, offsets)

    spec = ProblemSpec(kind="logistic", n=3, d=2, samples_per_agent=10, heterogeneity=0.5)
    rng = np.random.Generator(np.random.Philox(8))
    x_true = rng.standard_normal(spec.d)
    instance = generate_problem(8, spec)
    for i in range(spec.n):
        shift = rng.standard_normal(spec.d)
        feats = rng.standard_normal((10, spec.d)) + spec.heterogeneity * shift
        labels = np.where(rng.random(10) < expit(feats @ x_true), 1.0, -1.0)
        assert np.array_equal(instance.family.features[i], feats)
        assert np.array_equal(instance.family.labels[i], labels)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_objectives_are_views_into_the_stacks(kind):
    # agent i holds no arrays of its own: it reads row i of its family's results
    instance = instance_for(kind, 4, 3)
    family = instance.family
    assert [(obj.family, obj.index) for obj in instance.objectives] == [(family, i) for i in range(4)]
    assert instance.objective.family is family.average and instance.objective.index == 0
    assert instance.with_reference(np.zeros(3)).family is family


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "loop"])
def test_objective_is_the_average_family_bit_for_bit(kind):
    instance = instance_for("quadratic" if kind == "loop" else kind, 4, 3)
    if kind == "loop":
        instance = looped(instance)
    average, x = instance.family.average, rng_for(31).standard_normal(3)
    assert instance.objective is instance.objective  # cached
    assert instance.objective.value(x) == average.values(x[None])[0]
    assert instance.objective.gradient(x).tobytes() == average.gradients(x[None])[0].tobytes()
    assert instance.objective.hessian(x).tobytes() == average.hessians(x[None])[0].tobytes()


def test_mixed_and_unequal_agents_run_on_the_loop():
    # No built-in family mixes kinds of agent or sample counts; a user family can, and runs as any other.
    rng = rng_for(24)
    a = rng.standard_normal((3, 3))
    quad = (a @ a.T + np.eye(3), rng.standard_normal(3), 0.0)
    logistic_8 = (rng.standard_normal((8, 3)), np.where(rng.random(8) < 0.5, -1.0, 1.0), 0.1)
    logistic_5 = (rng.standard_normal((5, 3)), np.where(rng.random(5) < 0.5, -1.0, 1.0), 0.1)
    funcs = (
        lambda x: reference.quadratic(*quad, x),
        lambda x: reference.logistic(*logistic_8, x),
        lambda x: reference.logistic(*logistic_5, x),
    )
    instance = ProblemInstance(reference.Loop(funcs, 3), mu=0.1, lipschitz=100.0)
    instance = instance.with_reference(centralized_newton(instance, np.zeros(3), tol=1e-12))
    mix = metropolis_weights(make_graph("complete", 3))
    _, log = run(
        "giant", instance, mix, AlgorithmConfig(epsilon=0.1, max_iters=2000, grad_tol=1e-9), np.zeros((3, 3))
    )
    assert log.final.grad_norm <= 1e-9
    assert max(r.tracking_drift for r in log.records) <= 1e-9


@pytest.mark.parametrize(
    "family",
    [(), [], None, QuadraticFamily(np.eye(2)[None], np.zeros((1, 2)), np.zeros(1)).objectives[0]],
    ids=["tuple", "list", "None", "objective"],
)
def test_instance_takes_only_an_agent_family(family):
    with pytest.raises(InvalidSpec, match=f"^family must be an AgentFamily, got {type(family).__name__}$"):
        ProblemInstance(family, mu=1.0, lipschitz=1.0)


def test_indefinite_hessian_in_one_row_raises():
    a = np.stack([np.eye(2)] * 4)
    a[2] = np.diag([1.0, -0.5])
    family = QuadraticFamily(a, np.zeros((4, 2)), np.zeros(4))
    instance = ProblemInstance(family, mu=1.0, lipschitz=1.0)
    mix = metropolis_weights(make_graph("ring", 4))
    state = giant_init(instance, np.ones((4, 2)))
    for _ in range(2):  # a failed factorization is not cached
        with pytest.raises(NotPositiveDefinite):
            giant_step(state, instance, mix, AlgorithmConfig())


@pytest.mark.parametrize("h", [0.0, 1.0, 1e3])
def test_cached_inverse_matches_the_factor_solve(h):
    family = generate_problem(7, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=h)).family
    x, v = rng_for(40).standard_normal((2, 10, 5))
    got = family.newton_directions(x, v)
    want = AgentFamily.newton_directions(family, x, v)  # the factor solve every other family makes
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("k", [1, 3])
def test_cached_inverse_takes_k_right_hand_sides_per_agent(k):
    family = generate_problem(7, ProblemSpec(kind="quadratic", n=10, d=5, heterogeneity=1.0)).family
    x, v = rng_for(40).standard_normal((10, 5)), rng_for(41).standard_normal((10, 5, k))
    got = family.newton_directions(x, v)
    want = AgentFamily.newton_directions(family, x, v)
    assert got.shape == v.shape and np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    if k == 1:  # the same product as one right-hand side
        assert got[..., 0].tobytes() == family.newton_directions(x, v[..., 0]).tobytes()


def _record_calls(monkeypatch, name):
    """Arguments of every call to numerics' ``name``, from whichever giantnet module makes it."""
    calls = []
    original = getattr(numerics, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    for module in (numerics, objectives, diagnostics, algorithms):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recorded)
    return calls


def _giant_linear_algebra(instance, iterations, monkeypatch):
    n, d = instance.family.shape
    factorizations = _record_calls(monkeypatch, "spd_factorize_stack")
    solves = _record_calls(monkeypatch, "spd_solve_stack")
    cfg = AlgorithmConfig(epsilon=0.1, max_iters=iterations, grad_tol=0.0)
    _, log = run("giant", instance, metropolis_weights(make_graph("ring", n)), cfg, rng_for(41).standard_normal((n, d)))
    assert len(log) == iterations + 1
    return factorizations, solves


def test_quadratic_run_factors_and_inverts_once(monkeypatch):
    instance = instance_for("quadratic", 6, 4)
    factorizations, solves = _giant_linear_algebra(instance, 20, monkeypatch)
    assert len(factorizations) == 1
    assert len(solves) == 1 and np.array_equal(solves[0][1], np.broadcast_to(np.eye(4), (6, 4, 4)))


def test_harmonic_mean_takes_the_cached_inverse(monkeypatch):
    # The inverse local Hessians have one path, newton_directions: on a quadratic
    # the harmonic mean factors and solves nothing once a run has cached them.
    instance = instance_for("quadratic", 6, 4)
    factorizations, solves = _giant_linear_algebra(instance, 3, monkeypatch)
    m = harmonic_hessian_mean(instance, instance.reference_solution)
    assert len(factorizations) == len(solves) == 1
    inverse_mean = instance.family._inverse.mean(axis=0)
    assert m.tobytes() == (0.5 * (inverse_mean + inverse_mean.T)).tobytes()


@pytest.mark.parametrize("kind", ["logistic", "loop"])
def test_other_families_factor_and_solve_every_round(kind, monkeypatch):
    # Logistic Hessians change with x; a user family without its own
    # newton_directions gets AgentFamily's factor solve, even over quadratic agents.
    instance = instance_for("logistic" if kind == "logistic" else "quadratic", 6, 4)
    if kind == "loop":
        instance = looped(instance).with_reference(instance.reference_solution)
    else:
        instance = instance.with_reference(centralized_newton(instance, np.zeros(4)))
    factorizations, solves = _giant_linear_algebra(instance, 5, monkeypatch)
    assert len(factorizations) == 5
    assert len(solves) == 5 and all(rhs.shape == (6, 4) for _, rhs in solves)


def test_constant_hessian_stack_is_read_only():
    instance = instance_for("quadratic", 3, 2)
    h = instance.family.hessians(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        h[0, 0, 0] = 5.0


def test_families_reject_stacks_that_disagree_on_n():
    eyes = np.stack([np.eye(2)] * 3)
    with pytest.raises(DimensionMismatch, match="quadratic stacks"):
        QuadraticFamily(eyes, np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(DimensionMismatch, match="quadratic stacks"):
        QuadraticFamily(eyes, np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DimensionMismatch, match="sample stacks"):
        LogisticFamily(np.ones((3, 4, 2)), np.ones((2, 4)), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stack", ["a", "b", "c", "features"])
def test_families_reject_non_finite_stacks(stack, bad):
    if stack == "features":
        features = np.ones((3, 4, 2))
        features[1, 2, 0] = bad
        with pytest.raises(InvalidSpec, match="^features must be finite"):
            LogisticFamily(features, np.ones((3, 4)), 0.1)
        with pytest.raises(InvalidSpec, match="^features must be finite"):
            LogisticFamily(features[1][None], np.ones((1, 4)), 0.1).objectives[0]
        return
    stacks = {"a": np.stack([np.eye(2)] * 3), "b": np.zeros((3, 2)), "c": np.zeros(3)}
    stacks[stack].flat[-1] = bad
    with pytest.raises(InvalidSpec, match=f"^{stack} must be finite"):
        QuadraticFamily(**stacks)
    with pytest.raises(InvalidSpec, match=f"^{stack} must be finite"):
        QuadraticFamily(stacks["a"][2][None], stacks["b"][2][None], np.array([stacks["c"][2]])).objectives[0]


def test_objectives_of_a_user_family_match_its_agents():
    # oracle: reference.agents, the per-agent formulas that Loop evaluates one agent at a time
    for kind in ("quadratic", "logistic"):
        instance = instance_for(kind, 3, 2)
        loop = looped(instance)
        x = rng_for(30).standard_normal(2)
        agents = reference.agents(instance.family)
        assert len(loop.objectives) == len(agents) == 3
        for obj, agent in zip(loop.objectives, agents):
            value, gradient, hessian = agent(x)
            assert obj.value(x) == value
            assert obj.gradient(x).tobytes() == gradient.tobytes()
            assert obj.hessian(x).tobytes() == hessian.tobytes()
        value, gradient, hessian = reference.averaged(instance.family, x)
        assert loop.objective.value(x) == value
        assert loop.objective.gradient(x).tobytes() == gradient.tobytes()
        assert loop.objective.hessian(x).tobytes() == hessian.tobytes()


@pytest.mark.parametrize("label, ridge", [(0.0, 0.1), (1.0, 0.0), (1.0, float("nan"))])
def test_logistic_family_rejects_bad_labels_and_ridge(label, ridge):
    labels = np.ones((3, 4))
    labels[1, 2] = label
    with pytest.raises(InvalidSpec):
        LogisticFamily(np.ones((3, 4, 2)), labels, ridge)


def test_families_convert_list_stacks_and_type_bad_shapes():
    family = QuadraticFamily([[[2.0]]], [[1.0]], [0])
    assert family.a.dtype == family.b.dtype == family.c.dtype == np.float64
    assert np.array_equal(family.gradients(np.ones((1, 1))), [[3.0]])
    family = LogisticFamily([[[1.0, 0.0], [0.0, 1.0]]], [[1, -1]], 0.5)
    assert family.features.dtype == family.labels.dtype == np.float64
    assert family.shape == (1, 2)
    with pytest.raises(DimensionMismatch, match="quadratic stacks"):
        QuadraticFamily([[1.0]], [[0.0]], [0.0])
    with pytest.raises(DimensionMismatch, match="quadratic stacks"):
        QuadraticFamily([[[1.0]]], [0.0], [0.0])
    with pytest.raises(DimensionMismatch, match="sample stacks"):
        LogisticFamily([[1.0, 0.0]], [[1.0]], 0.1)
    with pytest.raises(DimensionMismatch, match="sample stacks"):
        LogisticFamily([[[1.0, 0.0]]], [1.0], 0.1)


@pytest.mark.parametrize("ridge", [True, "0.1", float("nan"), float("inf"), 0, -1])
def test_ridge_must_be_a_positive_real(ridge):
    with pytest.raises(InvalidSpec, match="ridge"):
        LogisticFamily(np.ones((1, 4, 2)), np.ones((1, 4)), ridge).objectives[0]
    with pytest.raises(InvalidSpec, match="ridge"):
        LogisticFamily(np.ones((3, 4, 2)), np.ones((3, 4)), ridge)


@pytest.mark.parametrize("ridge", [1, np.float32(0.25), 0.1])
def test_family_stores_ridge_as_float(ridge):
    family = LogisticFamily(np.ones((3, 4, 2)), np.ones((3, 4)), ridge)
    assert type(family.ridge) is float and family.ridge == float(ridge)
    assert type(LogisticFamily(np.ones((1, 4, 2)), np.ones((1, 4)), ridge).objectives[0].family.ridge) is float


def test_instance_needs_an_agent():
    with pytest.raises(InvalidSpec):
        ProblemInstance((), mu=1.0, lipschitz=1.0)
    empty = QuadraticFamily(np.empty((0, 2, 2)), np.empty((0, 2)), np.empty(0))
    with pytest.raises(InvalidSpec):
        ProblemInstance(empty, mu=1.0, lipschitz=1.0)


def test_instances_and_stacked_families_compare_by_identity():
    instance = instance_for("logistic", 3, 2)
    other = instance.with_reference(np.zeros(2))
    assert instance == instance
    assert (instance == other) is False
    assert (instance.family == instance_for("logistic", 3, 2).family) is False
    assert "Family" not in repr(other) and repr(other).startswith("ProblemInstance(mu=")
