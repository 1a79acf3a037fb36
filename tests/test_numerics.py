import sys

import numpy as np
import pytest

from giantnet import (
    DimensionMismatch,
    MixingMatrix,
    NotPositiveDefinite,
    NotStochastic,
    NotSymmetric,
    make_graph,
    metropolis_weights,
    second_singular_value,
    spd_factorize_stack,
    spd_solve_stack,
)
from giantnet.numerics import _RowSparse

from conftest import rng_for
from reference import csr_product


class TestFactorize:
    # one matrix is a stack of one
    def test_identity(self):
        assert np.allclose(spd_factorize_stack(np.eye(3)[None])[0], np.eye(3))

    def test_diagonal_square_roots(self):
        assert np.allclose(spd_factorize_stack(np.diag([4.0, 9.0])[None])[0], np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        lower = spd_factorize_stack(h[None])[0]
        # oracle: explicit multiplication of the factor by its transpose
        assert np.allclose(lower @ lower.T, h, atol=1e-14)
        assert np.allclose(np.triu(lower, 1), 0.0)

    def test_rejects_indefinite(self):
        rng = rng_for(0)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            eigs = rng.uniform(0.5, 2.0, size=d)
            eigs[int(rng.integers(d))] = -rng.uniform(0.1, 1.0)
            h = (q * eigs) @ q.T
            h = 0.5 * (h + h.T)
            with pytest.raises(NotPositiveDefinite):
                spd_factorize_stack(h[None])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spd_factorize_stack(np.array([[[1.0, 0.5], [0.1, 1.0]]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            spd_factorize_stack(np.ones((1, 2, 3)))


class TestSolve:
    # one matrix and one right-hand side are stacks of one
    def test_identity(self):
        lower = spd_factorize_stack(np.eye(2)[None])
        assert np.allclose(spd_solve_stack(lower, np.array([[4.0, 6.0]]))[0], [4.0, 6.0])

    def test_scalar_scaling(self):
        f = spd_factorize_stack(2.0 * np.eye(2)[None])
        assert np.allclose(spd_solve_stack(f, np.array([[4.0, 6.0]]))[0], [2.0, 3.0])

    def test_residual_oracle(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([3.0, 3.0])
        v = spd_solve_stack(spd_factorize_stack(h[None]), b[None])[0]
        # oracle: multiply back and compare with the right-hand side
        assert np.allclose(h @ v, b, atol=1e-14)
        assert np.allclose(v, [1.0, 1.0])

    def test_random_spd_residuals(self):
        rng = rng_for(1)
        for _ in range(30):
            d = int(rng.integers(1, 12))
            a = rng.standard_normal((d, d))
            h = a.T @ a + 1e-3 * np.eye(d)
            b = rng.standard_normal(d)
            v = spd_solve_stack(spd_factorize_stack(h[None]), b[None])[0]
            assert np.linalg.norm(h @ v - b) / np.linalg.norm(b) <= 1e-9

    def test_dimension_mismatch(self):
        f = spd_factorize_stack(np.eye(3)[None])
        with pytest.raises(DimensionMismatch):
            spd_solve_stack(f, np.ones((1, 4)))


def random_spd_stack(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)


class TestStack:
    def test_asymmetric_is_typed(self):
        h = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(NotSymmetric):
            spd_factorize_stack(h[None])
        stack = np.stack([np.eye(2), h, np.eye(2)])
        with pytest.raises(NotSymmetric) as info:
            spd_factorize_stack(stack)
        assert isinstance(info.value, ValueError)

    def test_one_indefinite_matrix_fails_the_stack(self):
        stack = random_spd_stack(rng_for(2), 6, 3)
        stack[4] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            spd_factorize_stack(stack)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            spd_factorize_stack(np.eye(3))
        lower = spd_factorize_stack(np.stack([np.eye(3)] * 2))
        with pytest.raises(DimensionMismatch):
            spd_solve_stack(lower, np.ones((3, 3)))
        with pytest.raises(DimensionMismatch):
            spd_solve_stack(lower, np.ones(2))
        with pytest.raises(DimensionMismatch):
            spd_solve_stack(lower[0], np.ones((3, 3)))

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 4), (7, 1), (12, 6)])
    def test_matches_per_matrix_factor_and_solve(self, n, d):
        # oracle: numpy's Cholesky and general solve, one matrix at a time
        rng = rng_for(3)
        h = random_spd_stack(rng, n, d)
        b = rng.standard_normal((n, d))
        rhs = rng.standard_normal((n, d, 3))
        lower = spd_factorize_stack(h)
        x = spd_solve_stack(lower, b)
        xs = spd_solve_stack(lower, rhs)
        assert x.shape == b.shape and xs.shape == rhs.shape
        for i in range(n):
            assert np.allclose(lower[i], np.linalg.cholesky(h[i]), rtol=1e-12, atol=0)
            ref = np.linalg.solve(h[i], b[i])
            assert np.linalg.norm(x[i] - ref) <= 1e-12 * np.linalg.norm(ref)
            ref = np.linalg.solve(h[i], rhs[i])
            assert np.linalg.norm(xs[i] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_inputs_untouched(self):
        rng = rng_for(4)
        lower = spd_factorize_stack(random_spd_stack(rng, 3, 4))
        b = rng.standard_normal((3, 4))
        kept = b.copy()
        spd_solve_stack(lower, b)
        assert np.array_equal(b, kept)


def agent_major_solve(lower, b):
    """The agent-major substitution that spd_solve_stack ran over strided slices."""
    x = np.array(b, dtype=float)
    cols = x.reshape(x.shape[0], x.shape[1], -1)
    d = lower.shape[1]
    for k in range(d):
        cols[:, k] /= lower[:, k, k, None]
        cols[:, k + 1:] -= lower[:, k + 1:, k, None] * cols[:, k, None]
    for k in reversed(range(d)):
        cols[:, k] /= lower[:, k, k, None]
        cols[:, :k] -= lower[:, k, :k, None] * cols[:, k, None]
    return x


def assert_fresh_and_equal(x, lower, b):
    assert np.array_equal(x, agent_major_solve(lower, b))
    assert x.shape == b.shape and x.dtype == np.float64
    assert x.flags.c_contiguous and x.flags.writeable
    assert not np.shares_memory(x, lower) and not np.shares_memory(x, b)


class TestCoordinateMajorSolve:
    """spd_solve_stack gives the agent-major loop's bits, on every layout of its inputs."""

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 4), (7, 1), (10, 5), (100, 20), (1000, 5)])
    def test_bitwise_equal_to_agent_major_loop(self, n, d, k):
        rng = rng_for(50 + n + d)
        lower = spd_factorize_stack(random_spd_stack(rng, n, d))
        b = rng.standard_normal((n, d) if k is None else (n, d, k))
        kept = b.copy()
        assert_fresh_and_equal(spd_solve_stack(lower, b), lower, b)
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("n,d", [(1, 1), (4, 3), (10, 5)])
    def test_read_only_broadcast_identity(self, n, d):
        # The right-hand side harmonic_hessian_mean passes.
        lower = spd_factorize_stack(random_spd_stack(rng_for(60), n, d))
        eye = np.broadcast_to(np.eye(d), lower.shape)
        assert not eye.flags.writeable
        assert_fresh_and_equal(spd_solve_stack(lower, eye), lower, eye)

    @pytest.mark.parametrize("k", [None, 2])
    def test_non_contiguous_factors_and_rhs(self, k):
        rng = rng_for(61)
        n, d = 9, 4
        lower = spd_factorize_stack(random_spd_stack(rng, n, d))
        strided = np.empty((d, d, 2 * n)).transpose(2, 0, 1)[::2]  # neither C nor F order
        strided[...] = lower
        assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
        shape = (n, d) if k is None else (n, d, k)
        b = np.asfortranarray(rng.standard_normal(shape))
        x = spd_solve_stack(strided, b)
        assert_fresh_and_equal(x, strided, b)
        assert np.array_equal(x, spd_solve_stack(lower, np.ascontiguousarray(b)))


class TestSecondSingularValue:
    def test_uniform_average_matrix(self):
        p = np.full((3, 3), 1.0 / 3.0)
        assert second_singular_value(p) == pytest.approx(0.0, abs=1e-12)

    def test_identity_has_no_mixing(self):
        assert second_singular_value(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_metropolis_ring4_against_eigen_oracle(self):
        p = metropolis_weights(make_graph("ring", 4)).p
        # oracle: full symmetric eigendecomposition; drop the Perron
        # eigenvalue 1 and take the largest remaining magnitude
        eigs = np.linalg.eigvalsh(p)
        rest = np.delete(eigs, np.argmin(np.abs(eigs - 1.0)))
        expected = np.abs(rest).max()
        assert expected == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert second_singular_value(p) == pytest.approx(expected, abs=1e-12)

    def test_transpose_invariance(self):
        for seed in range(5):
            g = make_graph("erdos_renyi", 12, p=0.4, seed=seed)
            p = metropolis_weights(g).p
            assert second_singular_value(p) == pytest.approx(
                second_singular_value(p.T), abs=1e-12
            )

    @pytest.mark.parametrize("transposed", [True, False])
    def test_rejects_a_matrix_that_is_not_square(self, transposed):
        shape = (3, 2) if transposed else (2, 3)
        with pytest.raises(DimensionMismatch, match=rf"^expected a square matrix, got shape \({shape[0]}, {shape[1]}\)$"):
            second_singular_value(np.full(shape, 0.5))

    @pytest.mark.parametrize("p", [[[1.0, 0.0], [0.0]], "ab"], ids=["ragged", "string"])
    def test_rejects_a_matrix_numpy_cannot_convert(self, p):
        with pytest.raises(DimensionMismatch, match="^expected a square matrix, got a (list|str) numpy cannot "):
            second_singular_value(p)

    def test_measures_a_matrix_that_is_not_stochastic(self):
        # whether P is doubly stochastic is MixingMatrix's check; sigma2 only measures
        p = np.eye(3)
        p[0, 0] = 0.9
        assert second_singular_value(p) == pytest.approx(_svd_oracle(p), abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_not_stochastic_or_nan(self, bad, capfd):
        p = np.full((3, 3), bad)
        # NaN is not known to be nonnegative; inf is, and equals its transpose, but its rows sum to inf
        check = "nonnegativity: deviation nan" if np.isnan(bad) else "row_sums: deviation inf"
        with pytest.raises(NotStochastic, match=f"^mixing matrix fails {check} "):
            MixingMatrix(p)
        assert np.isnan(second_singular_value(p))
        assert capfd.readouterr().err == ""  # no LAPACK complaint: it was never called


def _svd_oracle(p):
    return np.linalg.svd(p - 1 / p.shape[0], compute_uv=False)[0]


def _oracle_cases():
    sizes = [1, 2, 3, 8, 17, 100, 1000]
    cases = [(kind, n) for kind in ("ring", "complete", "star", "erdos_renyi") for n in sizes]
    # a grid needs n to be a multiple of ceil(sqrt(n)); it takes the nearest such sizes
    return cases + [("grid", n) for n in (1, 2, 6, 20, 100, 992)]


class TestSecondSingularValueOracle:
    """Symmetric P takes the eigensolver, any other P the SVD; both match the SVD oracle."""

    @pytest.mark.parametrize("kind,n", _oracle_cases())
    def test_metropolis_matches_svd(self, kind, n):
        p = metropolis_weights(make_graph(kind, n, p=0.3, seed=n)).p
        dense = p if isinstance(p, np.ndarray) else p.toarray()  # CSR above the sparse threshold
        assert second_singular_value(p) == second_singular_value(dense)
        assert abs(second_singular_value(dense) - _svd_oracle(dense)) <= 1e-13

    def test_non_normal_asymmetric_gets_the_singular_value(self):
        p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
        projected = p - 1 / 3
        radius = np.abs(np.linalg.eigvals(projected)).max()
        sigma = _svd_oracle(p)
        assert radius < sigma - 0.4  # an eigenvalue shortcut would read 0.5, not 1
        assert second_singular_value(p) == sigma

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 100, 383, 384, 1000, 4099, 10_000])
    def test_ring_matches_the_closed_form(self, n):
        p = metropolis_weights(make_graph("ring", n)).p
        assert abs(second_singular_value(p) - (1 / 3 + 2 / 3 * np.cos(2 * np.pi / n))) <= 1e-15

    def test_path_follows_circulance(self, monkeypatch):
        p = metropolis_weights(make_graph("ring", 12)).p
        moved = p.copy()  # one symmetric pair moved: still symmetric and doubly stochastic
        moved[5, 6] += 0.1
        moved[6, 5] += 0.1
        moved[5, 5] -= 0.1
        moved[6, 6] -= 0.1
        expected = _svd_oracle(p), _svd_oracle(moved)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def refuse(*args, **kwargs):
            raise AssertionError("a circulant P reached a dense solver")

        def record(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert abs(second_singular_value(p) - expected[0]) <= 1e-15
        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        assert abs(second_singular_value(moved) - expected[1]) <= 1e-13
        assert calls == [(12, 12)]

    def test_path_follows_exact_symmetry(self, monkeypatch):
        p = metropolis_weights(make_graph("erdos_renyi", 12, p=0.4, seed=3)).p
        near = p.copy()
        near[0, 1] += 1e-15  # symmetric only to within roundoff
        expected = _svd_oracle(near)
        sym_value = second_singular_value(p)

        def refuse(*args, **kwargs):
            raise AssertionError("wrong solver for this matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert second_singular_value(near) == expected
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert second_singular_value(p) == sym_value


def _random_csr(lengths: np.ndarray, seed: int) -> _RowSparse:
    """Rows of the given lengths over random ascending columns; values with stored zeros and -0.0."""
    rng = rng_for(seed)
    n = len(lengths)
    cols = np.concatenate([np.sort(rng.choice(n, size=k, replace=False)) for k in lengths])
    vals = rng.standard_normal(len(cols)) * np.exp(rng.uniform(-20, 20, len(cols)))
    pick = rng.random(len(cols))
    vals[pick < 0.1] = 0.0
    vals[(pick >= 0.1) & (pick < 0.2)] = -0.0
    return _RowSparse(np.repeat(np.arange(n), lengths), cols, vals, n)


def _awkward_stack(shape, seed: int) -> np.ndarray:
    """Values over 40 orders of magnitude with +-0.0, +-inf and NaNs of several payloads."""
    rng = rng_for(seed)
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
    pick = rng.random(shape)
    payloads = rng.integers(1, 2**51, shape).astype(np.uint64) | np.uint64(0x7FF8000000000000)
    for lo, hi, value in ((0.0, 0.05, 0.0), (0.05, 0.1, -0.0), (0.1, 0.13, np.inf), (0.13, 0.16, -np.inf)):
        x[(pick >= lo) & (pick < hi)] = value
    nan = pick >= 0.96
    x[nan] = payloads[nan].view(np.float64)
    return x


class TestRowProduct:
    """``csr @ x`` adds each row from +0.0, left to right in column order, as plain Python does."""

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "stack"])
    @pytest.mark.parametrize("w", range(1, 13))
    def test_bitwise_equal_to_the_row_sum(self, w, shape):
        n = 600
        csr = _random_csr(np.full(n, w), seed=40 + w)
        x = _awkward_stack((n, *shape), seed=50 + w)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, and large products
            out = csr @ x
        assert out.shape == x.shape
        assert out.tobytes() == csr_product(csr, x).tobytes()

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "stack"])
    def test_ragged_wide_and_empty_rows(self, shape):
        lengths = rng_for(60).integers(0, 13, 600)
        lengths[-1] = 0  # an empty last row: the product still has n rows
        csr = _random_csr(lengths, seed=61)
        x = _awkward_stack((600, *shape), seed=62)
        with np.errstate(invalid="ignore", over="ignore"):
            out = csr @ x
        assert set(lengths) == set(range(13))
        assert out.tobytes() == csr_product(csr, x).tobytes()
        assert out[lengths == 0].tobytes() == np.zeros_like(out[lengths == 0]).tobytes()  # +0.0, not -0.0

    def test_keys_follow_the_stack_width(self):
        lengths = np.tile([3, 0, 9, 1], 75)
        csr = _random_csr(lengths, seed=63)
        for d in (4, 1, 4, 7):
            x = _awkward_stack((300, d), seed=64 + d)
            with np.errstate(invalid="ignore", over="ignore"):
                out = csr @ x
            assert out.tobytes() == csr_product(csr, x).tobytes()

    def test_reference_bits_do_not_depend_on_a_tracer(self):
        # CPython 3.11 adds two NaNs keeping the left payload, but the right one under sys.settrace (coverage, pdb)
        csr = _random_csr(np.full(600, 5), seed=45)
        x = _awkward_stack((600, 3), seed=55)
        plain, previous = csr_product(csr, x).tobytes(), sys.gettrace()

        def tracer(frame, event, arg):
            return tracer

        sys.settrace(tracer)
        try:
            traced = csr_product(csr, x).tobytes()
        finally:
            sys.settrace(previous)
        assert traced == plain

    def test_integer_stack_is_promoted(self):
        csr = _random_csr(np.tile([3, 1, 0, 5], 25), seed=65)
        x = np.arange(200).reshape(100, 2)
        out = csr @ x
        assert out.dtype == np.float64
        assert out.tobytes() == csr_product(csr, x).tobytes()
