import hashlib

import numpy as np
import pytest
from numpy.random import Generator, Philox

from giantnet import (
    DimensionMismatch,
    InvalidSpec,
    ProblemInstance,
    ProblemSpec,
    centralized_newton,
    generate_problem,
)
from giantnet.objectives import HETEROGENEITY_SPREAD, MAX_HETEROGENEITY, LogisticFamily, QuadraticFamily, _sigmoid

from conftest import rng_for
from reference import finite_difference_gradient, finite_difference_hessian


def quadratic_objective(a, b, c=0.0):
    """0.5 * x'Ax + b'x + c at single points: the one agent of a 1-agent quadratic family."""
    return QuadraticFamily(np.asarray(a)[None], np.asarray(b)[None], np.array([c])).objectives[0]


def logistic_objective(features, labels, ridge):
    """The ridge-logistic loss over (m, d) features at single points: the one agent of a 1-agent family."""
    return LogisticFamily(np.asarray(features)[None], np.asarray(labels)[None], ridge).objectives[0]


def random_objectives(seed=0):
    rng = rng_for(seed)
    a = rng.standard_normal((3, 3))
    quad = quadratic_objective(a.T @ a + 0.5 * np.eye(3), rng.standard_normal(3), 0.7)
    feats = rng.standard_normal((15, 3))
    labels = np.where(rng.random(15) < 0.5, -1.0, 1.0)
    logi = logistic_objective(feats, labels, ridge=0.1)
    return quad, logi


class TestQuadratic:
    def test_half_norm_squared(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        assert obj.value(np.array([3.0, 4.0])) == pytest.approx(12.5)
        assert obj.value(np.zeros(2)) == 0.0

    def test_gradient_is_point_for_identity(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        assert np.allclose(obj.gradient(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_hessian_constant(self):
        rng = rng_for(2)
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        obj = quadratic_objective(a, np.zeros(2))
        for _ in range(5):
            assert np.array_equal(obj.hessian(rng.standard_normal(2)), a)

    def test_dimension_mismatch(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            obj.value(np.ones(3))


class TestLogistic:
    def test_value_single_sample_at_origin(self):
        obj = logistic_objective(np.array([[1.0, 0.0]]), np.array([1.0]), ridge=1.0)
        assert obj.value(np.zeros(2)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_single_sample_at_origin(self):
        # expected value frozen from the central-difference oracle on the
        # declared loss: d/dx log(1 + exp(-y a'x)) at 0 is -y a / 2
        obj = logistic_objective(np.array([[1.0, 0.0]]), np.array([1.0]), ridge=1.0)
        fd = finite_difference_gradient(obj.value, np.zeros(2))
        assert np.allclose(fd, [-0.5, 0.0], atol=1e-9)
        assert np.allclose(obj.gradient(np.zeros(2)), [-0.5, 0.0], atol=1e-12)

    def test_hessian_single_sample_at_origin(self):
        # frozen from the oracle: sigma'(0) a a' + ridge I = 0.25 aa' + I
        obj = logistic_objective(np.array([[1.0, 0.0]]), np.array([1.0]), ridge=1.0)
        expected = np.array([[1.25, 0.0], [0.0, 1.0]])
        fd = finite_difference_hessian(obj.gradient, np.zeros(2))
        assert np.allclose(fd, expected, atol=1e-7)
        assert np.allclose(obj.hessian(np.zeros(2)), expected, atol=1e-12)

    def test_ridge_floors_hessian_spectrum(self):
        rng = rng_for(3)
        feats = rng.standard_normal((10, 3))
        labels = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        obj = logistic_objective(feats, labels, ridge=0.1)
        ub = 0.1 + (np.sum(feats**2, axis=1).max()) / 4.0
        for _ in range(10):
            eigs = np.linalg.eigvalsh(obj.hessian(rng.standard_normal(3)))
            assert eigs[0] >= 0.1 - 1e-12
            assert eigs[-1] <= ub + 1e-9

    def test_rejects_bad_labels_and_ridge(self):
        feats = np.ones((2, 2))
        with pytest.raises(InvalidSpec):
            logistic_objective(feats, np.array([0.0, 1.0]), ridge=0.1)
        with pytest.raises(InvalidSpec):
            logistic_objective(feats, np.array([1.0, -1.0]), ridge=0.0)
        with pytest.raises(InvalidSpec):
            logistic_objective(feats, np.array([1.0, -1.0]), ridge=float("nan"))


class TestSigmoid:
    # scipy is the oracle here only; the package itself imports numpy alone.
    def test_matches_scipy_expit(self):
        from scipy.special import expit

        t = np.linspace(-800.0, 800.0, 160_001)
        np.testing.assert_allclose(_sigmoid(t), expit(t), rtol=1e-15, atol=0)

    def test_exact_values_and_nan(self):
        out = _sigmoid(np.array([0.0, np.inf, -np.inf, np.nan]))
        assert out[0] == 0.5 and out[1] == 1.0 and out[2] == 0.0
        assert np.isnan(out[3])

    def test_very_negative_margin_is_zero_without_warning(self):
        # exp(1000) overflows; the suite turns any RuntimeWarning into an error
        assert _sigmoid(np.array([-1000.0]))[0] == 0.0
        assert _sigmoid(-1000.0) == 0.0


def _losses(margins):
    """``LogisticFamily.values`` with agent i's one margin at ``margins[i]``.

    Feature t, label +1 and x = 1 give margin t exactly; ridge/2 rounds to
    0 at the smallest subnormal ridge, so each value is the loss alone.
    """
    margins = np.asarray(margins, dtype=float)
    family = LogisticFamily(margins[:, None, None], np.ones((margins.size, 1)), 5e-324)
    return family.values(np.ones((margins.size, 1)))


class TestSoftplus:
    # np.logaddexp(0, -t) is the oracle; the package computes its two branches as array passes.
    def test_matches_logaddexp_within_two_ulp(self):
        t = np.concatenate([np.linspace(-1e3, 1e3, 200_001), [800.0, -800.0, 0.0, -0.0]])
        want = np.logaddexp(0.0, -t)
        assert (np.abs(_losses(t) - want) <= 2 * np.spacing(np.abs(want))).all()

    def test_infinite_and_nan_margins(self):
        # logaddexp's values: 0 at +inf, inf at -inf, NaN at NaN (where logaddexp itself
        # warns). A family's stacks are finite, so the margins come from the point:
        # 1e300 * +-1e10 overflows to +-inf in the matmul, which numpy reports, and a NaN
        # point gives a NaN margin. ridge/2 rounds to 0 and x * x stays finite, so each
        # value is the loss alone.
        family = LogisticFamily(np.full((3, 1, 1), 1e300), np.ones((3, 1)), 5e-324)
        with np.errstate(over="ignore"):
            out = family.values(np.array([[1e10], [-1e10], [np.nan]]))
        assert out[0] == 0.0 and out[1] == np.inf and np.isnan(out[2])


class TestDerivativeConsistency:
    @pytest.mark.parametrize("which", ["quadratic", "logistic"])
    def test_gradient_matches_finite_differences(self, which):
        quad, logi = random_objectives()
        obj = quad if which == "quadratic" else logi
        rng = rng_for(10)
        for _ in range(50):
            x = rng.standard_normal(3)
            fd = finite_difference_gradient(obj.value, x)
            g = obj.gradient(x)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-5

    @pytest.mark.parametrize("which", ["quadratic", "logistic"])
    def test_hessian_matches_finite_differences(self, which):
        quad, logi = random_objectives()
        obj = quad if which == "quadratic" else logi
        rng = rng_for(11)
        for _ in range(50):
            x = rng.standard_normal(3)
            fd = finite_difference_hessian(obj.gradient, x)
            h = obj.hessian(x)
            assert np.linalg.norm(fd - h) / np.linalg.norm(h) <= 1e-4

    def test_gradient_vanishes_at_own_minimizer(self):
        quad, logi = random_objectives()
        x_quad = np.linalg.solve(quad.family.a[0], -quad.family.b[0])
        assert np.linalg.norm(quad.gradient(x_quad)) <= 1e-8
        single = ProblemInstance(logi.family, mu=0.1, lipschitz=10.0)
        x_logi = centralized_newton(single, np.zeros(3), tol=1e-12)
        assert np.linalg.norm(logi.gradient(x_logi)) <= 1e-8


class TestConvexityProperties:
    @pytest.mark.parametrize("which", ["quadratic", "logistic"])
    def test_convexity(self, which):
        quad, logi = random_objectives()
        obj = quad if which == "quadratic" else logi
        rng = rng_for(12)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            t = rng.uniform(0.01, 0.99)
            mix = obj.value(t * x + (1 - t) * y)
            assert mix <= t * obj.value(x) + (1 - t) * obj.value(y) + 1e-12

    def test_strong_convexity_with_declared_mu(self):
        instance = generate_problem(5, ProblemSpec(kind="quadratic", n=4, d=3, heterogeneity=0.5))
        rng = rng_for(13)
        for obj in instance.objectives:
            for _ in range(20):
                x, y = rng.standard_normal(3), rng.standard_normal(3)
                lhs = obj.value(y)
                rhs = (
                    obj.value(x)
                    + obj.gradient(x) @ (y - x)
                    + 0.5 * instance.mu * np.sum((y - x) ** 2)
                )
                assert lhs >= rhs - 1e-10


# sha256, as little-endian float64 bytes, of generator output for seed 3 that is only
# Philox draws and elementwise arithmetic on them: the quadratic offsets b and the logistic
# features. They pin the stream and its draw order across versions and machines. What goes
# through LAPACK or BLAS (matrices, labels, L) is instead checked against a per-agent loop
# on the same machine, because its last bits depend on the BLAS build and CPU kernel.
GOLDEN_QUADRATIC_OFFSETS = {
    (1000, 5, 1): "70f52fb6a4205fbd4c016ed0f3d746f1d3853da08e860e025956444ee678c7da",
    (10, 5, 1): "455249661379e89cdd182afac988c3fef1eaf584af86edc70a27216924c97c7b",
    (100, 20, 1): "08d9e4154b14ba28c7e1d1661daedc18e05c7991800f798a1f6ca9700ce03e5c",
    (50, 50, 1): "e831e44c7ca14effc812e6d0a60fb0bbb4ce1837bde92acc5648a2111834b585",
    (7, 3, 0): "33d9b8fb3277664d16fbe3eb3801579e97360c6f9339e0274b29709f4a9ae5d2",
    (1, 1, 2): "d33b30f032e582fb364cb8e93c86d5a7a0b9e54788d73596a489b9cf232a4f45",
}
# At h = 0 the matrices are identities, so the whole family and (mu, L) are pinned.
GOLDEN_IDENTITY_QUADRATIC = "93bd44de37c8bb0431a99d4e6ddd33cf0cc8c5b7b7b56a7fe381761dbf95108f"
GOLDEN_LOGISTIC_FEATURES = {
    (100, 20, 50, 0): "7ba4e5098a92c0723f6fc83986793692dc1aeb133341e81879494a530b0f4fa0",
    (7, 4, 12, 0.7): "798e75bace1af9a2369b1b237a050158a710f074226fd9ba30ac8e74fed0e38c",
    (1, 1, 1, 1): "580e83251762d28eceda783efc883d63189ad3dad3873c1adc8aa0d3f884b5db",
    (20, 30, 5, 1): "74cf99290fea8c769e4f0b95905e98ad8c941b38fc1c8d0b680745aea6d52b2e",
}


def instance_digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def per_agent_quadratic_matrices(seed, n, d, h):
    """The quadratic matrices built one agent at a time: its draws, then its QR and products."""
    rng = Generator(Philox(seed))
    top = 1.0 + h * HETEROGENEITY_SPREAD
    mats = np.empty((n, d, d))
    for i in range(n):
        eigs = np.exp(rng.uniform(0.0, np.log(top), size=d))
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q = q * np.sign(np.diag(r))
        a = (q * eigs) @ q.T
        mats[i] = 0.5 * (a + a.T)
    return mats


def per_agent_logistic(seed, spec):
    """Features, labels and L built one agent at a time, each agent's algebra after its draws."""
    n, d, m, h = spec.n, spec.d, spec.samples_per_agent, spec.heterogeneity
    rng = Generator(Philox(seed))
    x_true = rng.standard_normal(d)
    features = np.empty((n, m, d))
    labels = np.empty((n, m))
    lipschitz = 0.0
    for i in range(n):
        shift = rng.standard_normal(d)
        feats = rng.standard_normal((m, d)) + h * shift
        features[i] = feats
        labels[i] = np.where(rng.random(m) < _sigmoid(feats @ x_true), 1.0, -1.0)
        lipschitz = max(lipschitz, spec.ridge + np.linalg.eigvalsh(feats.T @ feats)[-1] / (4.0 * m))
    return features, labels, lipschitz


class TestGenerateProblem:
    def test_deterministic_in_seed(self):
        spec = ProblemSpec(kind="quadratic", n=4, d=3, heterogeneity=0.8)
        a = generate_problem(7, spec)
        b = generate_problem(7, spec)
        assert np.array_equal(a.family.a, b.family.a)
        assert np.array_equal(a.family.b, b.family.b)
        assert np.array_equal(a.reference_solution, b.reference_solution)

    @pytest.mark.parametrize("n, d, h", list(GOLDEN_QUADRATIC_OFFSETS))
    def test_quadratic_offsets_golden_digest(self, n, d, h):
        inst = generate_problem(3, ProblemSpec(kind="quadratic", n=n, d=d, heterogeneity=h))
        assert instance_digest(inst.family.b) == GOLDEN_QUADRATIC_OFFSETS[n, d, h]

    def test_identity_quadratic_golden_digest(self):
        inst = generate_problem(3, ProblemSpec(kind="quadratic", n=7, d=3, heterogeneity=0))
        fam = inst.family
        assert instance_digest(fam.a, fam.b, fam.c, [inst.mu, inst.lipschitz]) == GOLDEN_IDENTITY_QUADRATIC
        # Every offset is b0, so the minimizer of the averaged cost is -b0.
        np.testing.assert_allclose(inst.reference_solution, -fam.b[0], rtol=1e-14)

    @pytest.mark.parametrize("n, d, h", [shape for shape in GOLDEN_QUADRATIC_OFFSETS if shape[2] != 0])
    def test_quadratic_matrices_match_per_agent_loop(self, n, d, h):
        inst = generate_problem(3, ProblemSpec(kind="quadratic", n=n, d=d, heterogeneity=h))
        assert np.array_equal(inst.family.a, per_agent_quadratic_matrices(3, n, d, h))

    @pytest.mark.parametrize("n, d, m, h", list(GOLDEN_LOGISTIC_FEATURES))
    def test_logistic_features_golden_digest(self, n, d, m, h):
        spec = ProblemSpec(kind="logistic", n=n, d=d, samples_per_agent=m, heterogeneity=h)
        inst = generate_problem(3, spec)
        assert inst.reference_solution is None
        assert instance_digest(inst.family.features) == GOLDEN_LOGISTIC_FEATURES[n, d, m, h]

    @pytest.mark.parametrize("n, d, m, h", list(GOLDEN_LOGISTIC_FEATURES))
    def test_logistic_matches_per_agent_loop(self, n, d, m, h):
        spec = ProblemSpec(kind="logistic", n=n, d=d, samples_per_agent=m, heterogeneity=h)
        inst = generate_problem(3, spec)
        features, labels, lipschitz = per_agent_logistic(3, spec)
        assert np.array_equal(inst.family.features, features)
        assert np.array_equal(inst.family.labels, labels)
        assert inst.lipschitz == lipschitz

    def test_logistic_deterministic(self):
        spec = ProblemSpec(kind="logistic", n=3, d=2, samples_per_agent=10)
        a = generate_problem(8, spec)
        b = generate_problem(8, spec)
        assert np.array_equal(a.family.features, b.family.features)
        assert np.array_equal(a.family.labels, b.family.labels)

    def test_zero_heterogeneity_gives_identical_agents(self):
        instance = generate_problem(9, ProblemSpec(kind="quadratic", n=5, d=3, heterogeneity=0.0))
        family = instance.family
        for a, b in zip(family.a[1:], family.b[1:]):
            assert np.array_equal(a, family.a[0])
            assert np.array_equal(b, family.b[0])

    def test_reference_solves_averaged_normal_equations(self):
        instance = generate_problem(10, ProblemSpec(kind="quadratic", n=4, d=3, heterogeneity=1.0))
        x_star = instance.reference_solution
        # oracle: averaged stationarity residual computed directly
        family = instance.family
        resid = np.mean([a @ x_star + b for a, b in zip(family.a, family.b)], axis=0)
        assert np.linalg.norm(resid) <= 1e-10
        # and agreement with an independent dense solve
        a_mean = np.mean(list(family.a), axis=0)
        b_mean = np.mean(list(family.b), axis=0)
        assert np.allclose(x_star, np.linalg.solve(a_mean, -b_mean), atol=1e-10)

    def test_declared_bounds_hold(self):
        instance = generate_problem(11, ProblemSpec(kind="quadratic", n=6, d=4, heterogeneity=1.0))
        for a in instance.family.a:
            eigs = np.linalg.eigvalsh(a)
            assert eigs[0] >= instance.mu - 1e-9
            assert eigs[-1] <= instance.lipschitz + 1e-9

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            ProblemSpec(kind="quadratic", n=0, d=3)
        with pytest.raises(InvalidSpec):
            ProblemSpec(kind="logistic", n=2, d=2, ridge=-1.0)
        with pytest.raises(InvalidSpec):
            ProblemSpec(kind="cubic", n=2, d=2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.5),
            ("n", True),
            ("d", "3"),
            ("samples_per_agent", 2.5),
            ("ridge", True),
            ("ridge", "0.1"),
            ("ridge", float("inf")),
            ("heterogeneity", float("inf")),
            ("heterogeneity", 1e308),  # 1 + 10 h overflows
            ("heterogeneity", True),
        ],
    )
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_spec_fields_are_typed(self, kind, field, value):
        key = "lambda" if field == "ridge" else field  # messages name the config key
        with pytest.raises(InvalidSpec, match=f"^{key} "):
            ProblemSpec(kind=kind, **{"n": 2, "d": 2, field: value})

    @pytest.mark.parametrize(
        "bounds",
        [{"mu": "1"}, {"mu": True}, {"lipschitz": "10"}, {"lipschitz": True}, {"mu": None},
         {"lipschitz": float("inf")}, {"mu": float("inf"), "lipschitz": float("inf")}],
    )
    def test_instance_bounds_are_typed(self, bounds):
        quad = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.raises(InvalidSpec, match="^bounds must be finite"):
            ProblemInstance(quad.family, **{"mu": 0.5, "lipschitz": 2.0, **bounds})
        assert ProblemInstance(quad.family, mu=np.float32(0.5), lipschitz=2).lipschitz == 2

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, "1", None, np.int64(-2), pytest.param(-(2**200), id="-2^200")])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_seed_is_typed(self, kind, seed):
        spec = ProblemSpec(kind=kind, n=2, d=2)
        with pytest.raises(InvalidSpec, match="^seed must be a nonnegative integer"):
            generate_problem(seed, spec)
        x = np.ones((2, 2))
        reference = generate_problem(3, spec).family.gradients(x)
        assert generate_problem(np.uint8(3), spec).family.gradients(x).tobytes() == reference.tobytes()

    def test_largest_heterogeneity_generates(self):
        spec = ProblemSpec(kind="quadratic", n=2, d=2, heterogeneity=MAX_HETEROGENEITY)
        assert np.isfinite(generate_problem(1, spec).lipschitz)


class TestStackRows:
    """A family of n > 1 agents takes stacks of n rows only; a family of one agent takes any number."""

    def test_quadratic_gradients_of_one_row_for_three_agents(self):
        family = generate_problem(1, ProblemSpec(kind="quadratic", n=3, d=2)).family
        with pytest.raises(DimensionMismatch, match=r"^stack has shape \(1, 2\) for 3 agents$"):
            family.gradients(np.zeros((1, 2)))

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_every_batched_method_rejects_another_row_count(self, kind, rows):
        family = generate_problem(1, ProblemSpec(kind=kind, n=3, d=2, samples_per_agent=5)).family
        bad, good = np.zeros((rows, 2)), np.zeros((3, 2))
        calls = [
            lambda: family.gradients(bad),
            lambda: family.values(bad),
            lambda: family.values_and_gradients(bad),
            lambda: family.hessians(bad),
            lambda: family.newton_directions(bad, good),
            lambda: family.newton_directions(good, bad),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_one_agent_family_takes_any_number_of_rows(self, kind):
        family = generate_problem(1, ProblemSpec(kind=kind, n=3, d=2, samples_per_agent=5)).family.average
        x = rng_for(31).standard_normal((5, 2))
        values, gradients = family.values_and_gradients(x)
        assert values.shape == (5,) and gradients.shape == family.gradients(x).shape == (5, 2)
        assert family.hessians(x[:4]).shape[1:] == (2, 2)
