import io
import tracemalloc

import numpy as np
import pytest

from giantnet import (
    ConnectivityFailure,
    DimensionMismatch,
    InvalidParams,
    MixingMatrix,
    NotStochastic,
    NotSymmetric,
    make_graph,
    metropolis_weights,
    second_singular_value,
    validate_mixing,
)
from giantnet import topology
from giantnet.numerics import _RowSparse
from giantnet.topology import MAX_CONNECTIVITY_RETRIES, MAX_NODES, MixingCheck, check_graph

from conftest import rng_for
from reference import csr_product


class TestMakeGraph:
    def test_ring_four(self):
        g = make_graph("ring", 4)
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_complete_three(self):
        assert len(make_graph("complete", 3).edges) == 3

    def test_star(self):
        g = make_graph("star", 5)
        assert g.edges.tolist() == [[0, i] for i in range(1, 5)]
        assert g.degrees[0] == 4

    def test_grid_exact_factor(self):
        g = make_graph("grid", 6)  # 3 x 2 lattice
        assert g.is_connected()
        assert len(g.edges) == 7

    def test_grid_rejects_nonfactoring_n(self):
        with pytest.raises(InvalidParams):
            make_graph("grid", 7)

    def test_erdos_renyi_deterministic(self):
        a = make_graph("erdos_renyi", 10, p=0.5, seed=123)
        b = make_graph("erdos_renyi", 10, p=0.5, seed=123)
        assert a.edges.tolist() == b.edges.tolist()
        assert a.is_connected()

    def test_erdos_renyi_param_checks(self):
        with pytest.raises(InvalidParams):
            make_graph("erdos_renyi", 5, p=0.0)
        with pytest.raises(InvalidParams):
            make_graph("erdos_renyi", 5, p=1.5)

    def test_erdos_renyi_connectivity_failure(self):
        # p so small that a 30-node graph is essentially never connected
        with pytest.raises(ConnectivityFailure):
            make_graph("erdos_renyi", 30, p=1e-6, seed=0)

    def test_rejects_bad_kind_and_n(self):
        with pytest.raises(InvalidParams):
            make_graph("torus", 4)
        with pytest.raises(InvalidParams):
            make_graph("ring", 0)

    def test_singleton_graphs(self):
        for kind in ("ring", "complete", "star"):
            g = make_graph(kind, 1)
            assert g.edges.tolist() == []
            assert g.is_connected()

    @pytest.mark.parametrize(
        "kind, n, kwargs, name",
        [
            ("ring", 2.5, {}, "n"),
            ("complete", 3.0, {}, "n"),
            ("grid", 4.0, {}, "n"),
            ("star", 3.0, {}, "n"),
            ("ring", True, {}, "n"),
            ("erdos_renyi", 5, {"p": "0.5"}, "p"),
            ("ring", 5, {"p": float("nan")}, "p"),
            ("erdos_renyi", 5, {"seed": 1.5}, "seed"),
            ("ring", 5, {"seed": "a"}, "seed"),
            ("ring", 10**23, {}, "n"),  # beyond int64, where numpy raised untyped errors
            ("grid", 10**23, {}, "n"),
        ],
    )
    def test_arguments_are_typed(self, kind, n, kwargs, name):
        # typed before use: a float n would build float edges, a string p or seed hit a bare TypeError
        with pytest.raises(InvalidParams, match=f"^{name} must be"):
            make_graph(kind, n, **kwargs)

    def test_largest_n_keeps_edge_keys_in_int64(self):
        assert (MAX_NODES - 1) * MAX_NODES + MAX_NODES - 1 <= np.iinfo(np.int64).max
        check_graph("ring", MAX_NODES)
        with pytest.raises(InvalidParams, match="^n must be"):
            check_graph("ring", MAX_NODES + 1)

    def test_numpy_integers_accepted(self):
        g = make_graph("ring", np.int64(4), seed=np.int64(1))
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == make_graph("ring", 4).edges.tolist()


class TestMetropolisWeights:
    def test_single_node(self):
        p = metropolis_weights(make_graph("ring", 1)).p
        assert np.array_equal(p, [[1.0]])

    def test_complete_three_is_uniform(self):
        # hand-applied rule: 1 / (1 + max(2, 2)) = 1/3 off-diagonal,
        # diagonal 1 - 2/3 = 1/3
        p = metropolis_weights(make_graph("complete", 3)).p
        assert np.allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_two_node_path(self):
        g = make_graph("ring", 2)
        p = metropolis_weights(g).p
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_complete_graph_projects_in_one_round(self):
        p = metropolis_weights(make_graph("complete", 7)).p
        assert np.allclose(p, 1.0 / 7.0, atol=1e-15)
        assert second_singular_value(p) <= 1e-12

    @pytest.mark.parametrize("kind", ["ring", "complete", "star", "erdos_renyi"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_validity_across_generators(self, kind, n):
        g = make_graph(kind, n, p=0.6, seed=n)
        report = validate_mixing(metropolis_weights(g).p, g)
        assert report.passed, str(report)


class TestMix:
    def test_k_rounds_are_one_product_by_the_power(self):
        # a dense P applies P^3 once; a CSR P applies P three times, a few ulp from the power
        x = rng_for(5).standard_normal((6, 3))
        for mix in both_forms(6):
            p = mix.p
            assert np.array_equal(mix.mix(x), p @ x)
            if isinstance(p, _RowSparse):
                assert np.array_equal(mix.mix(x, 3), p @ (p @ (p @ x)))
                assert_rounds_match_the_power(mix, x, 3)
            else:
                assert np.array_equal(mix.mix(x, 3), p @ p @ p @ x)
            for k in (0, -1):
                with pytest.raises(InvalidParams, match="^k must be a positive integer"):
                    mix.mix(x, k)

    @pytest.mark.parametrize("k, accepted", [(2.5, False), (True, False), (2.0, False), (np.int64(2), True)])
    def test_rounds_are_integers(self, k, accepted):
        x = rng_for(5).standard_normal((6, 3))
        for mix in both_forms(6):
            squared = mix.mix(x, 2)
            mix.mix(x)  # on a dense P, True and 2.0 hash like the memoized 1 and 2
            if accepted:
                assert np.array_equal(mix.mix(x, k), squared)
                continue
            with pytest.raises(InvalidParams, match="^k must be"):
                mix.power(k)
            with pytest.raises(InvalidParams, match="^k must be"):
                mix.mix(x, k)

    @pytest.mark.parametrize("p", [np.ones((3, 4)), np.ones(3), np.ones((2, 2, 2))])
    def test_rejects_non_square_weights(self, p):
        with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got shape \("):
            MixingMatrix(p)

    @pytest.mark.parametrize("p", [[[1.0, 0.0], [0.0]], "ab"], ids=["ragged", "string"])
    def test_rejects_weights_numpy_cannot_convert(self, p):
        with pytest.raises(DimensionMismatch, match="^expected a square matrix, got a (list|str) numpy cannot "):
            MixingMatrix(p)

    @pytest.mark.parametrize("n, sparse", [(4, False), (12, True)])
    @pytest.mark.parametrize("shape", [(), (4, 2), (3, 2), (1, 1, 1)], ids=["scalar", "3d", "3d-other", "4d"])
    def test_rejects_anything_but_a_vector_or_a_stack(self, monkeypatch, n, sparse, shape):
        if sparse:
            monkeypatch.setattr(topology, "SPARSE_RATIO", 0)
        mix = metropolis_weights(make_graph("ring", n))
        assert isinstance(mix.p, _RowSparse) == sparse
        x = np.float64(1.0) if shape == () else np.ones((n, *shape))
        with pytest.raises(DimensionMismatch, match=r"^mix takes an \(n,\) vector or an \(n, d\) stack, got shape"):
            mix.mix(x)

    @pytest.mark.parametrize("n, sparse", [(4, False), (12, True)])
    def test_rejects_a_list_without_converting_it(self, monkeypatch, n, sparse):
        if sparse:
            monkeypatch.setattr(topology, "SPARSE_RATIO", 0)
        mix = metropolis_weights(make_graph("ring", n))
        assert isinstance(mix.p, _RowSparse) == sparse
        with pytest.raises(DimensionMismatch, match=r"^mix takes an \(n,\) vector or an \(n, d\) stack, got a list$"):
            mix.mix([[float(i)] for i in range(n)])

    @pytest.mark.parametrize("shape", [(5,), (5, 2)])
    def test_wrong_agent_count_names_it(self, shape):
        with pytest.raises(DimensionMismatch, match="^mixing matrix is 4x4 for 5 agents$"):
            metropolis_weights(make_graph("ring", 4)).mix(np.ones(shape))

    def test_weights_become_a_float_array(self):
        mix = MixingMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert isinstance(mix.p, np.ndarray) and mix.p.dtype == float
        assert np.array_equal(mix.mix(np.array([1.0, 3.0])), [2.0, 2.0])
        p = np.full((2, 2), 0.5)
        assert MixingMatrix(p).p is p

    def test_powers_built_once_and_shared(self):
        mix = metropolis_weights(make_graph("ring", 6))
        assert mix.power(1) is mix.p
        assert np.array_equal(mix.power(3), mix.p @ mix.p @ mix.p)

    @pytest.mark.parametrize(
        "kind, n, sparse",
        # the benchmark's graphs: ring10 and er100 stay dense, ring1000 goes sparse
        [("ring", 10, False), ("erdos_renyi", 100, False), ("ring", 200, False), ("ring", 1000, True)],
    )
    def test_sparse_path_chosen_from_n_and_nnz(self, kind, n, sparse):
        mix = metropolis_weights(make_graph(kind, n, p=0.1))
        assert isinstance(mix.p, _RowSparse) == sparse

    @pytest.mark.parametrize("shape", [(1,), (5,), ()], ids=["d1", "d5", "vector"])
    @pytest.mark.parametrize("kind, n", [("ring", 400), ("star", 400), ("grid", 676)])
    def test_sparse_product_agrees_with_dense(self, kind, n, shape):
        mix = metropolis_weights(make_graph(kind, n))
        # positive entries: no cancellation, so the few ulp of a reordered sum stay relative
        x = rng_for(6).uniform(1.0, 2.0, size=(n, *shape))
        out = mix.mix(x)
        assert isinstance(mix.p, _RowSparse)
        assert out.shape == x.shape
        np.testing.assert_allclose(out, mix.p.toarray() @ x, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n, sparse", [(6, False), (700, True)])
    def test_k_rounds_are_the_product_by_the_power_on_both_paths(self, n, sparse):
        mix = metropolis_weights(make_graph("ring", n))
        x = rng_for(7).standard_normal((n, 3))
        assert isinstance(mix.p, _RowSparse) == sparse
        if sparse:  # two products by P add in another order than one by P^2
            assert_rounds_match_the_power(mix, x, 2)
        else:
            assert np.array_equal(mix.mix(x, 2), MixingMatrix(mix.power(2)).mix(x))

    # MixingMatrix rejects a P with a zero row; its CSR form's product is pinned here without one.
    def test_zero_row_mixes_to_exact_zeros(self):
        p = metropolis_weights(make_graph("ring", 400)).p.toarray()
        p[7] = 0.0
        csr = _RowSparse.of(p)  # the scan stores nothing for a zero row
        x = rng_for(8).standard_normal((400, 3))
        out = csr @ x
        assert np.bincount(csr.rows, minlength=csr.n)[7] == 0
        assert out[7].tobytes() == np.zeros(3).tobytes()
        np.testing.assert_allclose(out, p @ x, rtol=0, atol=1e-14 * np.abs(x).max())

    def test_empty_csr_row_mixes_to_exact_zeros(self):
        p = metropolis_weights(make_graph("ring", 400)).p.toarray()
        p[[7, 399]] = 0.0  # the last row among them
        csr = _RowSparse.of(p)
        x = rng_for(8).standard_normal((400, 3))
        out = csr @ x
        assert np.bincount(csr.rows, minlength=csr.n)[[7, 399]].tolist() == [0, 0]
        assert out[[7, 399]].tobytes() == np.zeros((2, 3)).tobytes()
        assert out.tobytes() == csr_product(csr, x).tobytes()
        assert (csr @ x[:, 0]).tobytes() == csr_product(csr, x[:, 0]).tobytes()

    @pytest.mark.parametrize("n", [6, 400])
    def test_repeated_calls_are_bitwise_equal(self, n):
        mix = metropolis_weights(make_graph("ring", n))
        x = rng_for(9).standard_normal((n, 4))
        first = mix.mix(x)
        assert np.array_equal(mix.mix(x), first)
        assert np.array_equal(mix.mix(x.copy()), first)


class TestCsrMixing:
    """k rounds on a CSR P are k products by P, each row added as plain Python adds it."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [384, 1000])
    def test_ring_rounds_are_row_sums(self, n, k):
        assert_rounds_are_row_sums(metropolis_weights(make_graph("ring", n)), k, seed=70 + k)

    @pytest.mark.parametrize("kind, n, k", [("star", 400, 1), ("grid", 676, 1), ("grid", 676, 2), ("wide", 400, 2)])
    def test_ragged_and_wide_rounds_are_row_sums(self, kind, n, k):
        mix = wide_rows(n) if kind == "wide" else metropolis_weights(make_graph(kind, n))
        assert_rounds_are_row_sums(mix, k, seed=74 + k)


def assert_rounds_are_row_sums(mix: MixingMatrix, k: int, seed: int) -> None:
    """k rounds of ``mix`` on a stack and on its first column, bit for bit ``csr_product`` k times."""
    x = rng_for(seed).standard_normal((mix.n, 4))
    want = x
    for _ in range(k):
        want = csr_product(mix.p, want)
    assert isinstance(mix.p, _RowSparse)
    assert mix.mix(x, k).tobytes() == want.tobytes()
    assert mix.mix(x[:, 0], k).tobytes() == want[:, 0].tobytes()
    assert_rounds_match_the_power(mix, x, k)


class TestCsrWeights:
    @pytest.mark.parametrize("kind, n", [("ring", 1000), ("grid", 676), ("star", 500), ("ring", 400)])
    def test_csr_above_the_threshold_matches_the_dense_weights(self, monkeypatch, kind, n):
        g = make_graph(kind, n)
        csr = metropolis_weights(g).p
        monkeypatch.setattr(topology, "SPARSE_RATIO", np.inf)  # every P dense
        dense = metropolis_weights(g).p
        assert isinstance(csr, _RowSparse) and isinstance(dense, np.ndarray)
        rows, cols, vals = csr.rows, csr.cols, csr.vals
        assert (np.diff(rows * n + cols) > 0).all()  # each row's columns ascend
        assert np.array_equal(rows, np.nonzero(dense)[0]) and np.array_equal(cols, np.nonzero(dense)[1])
        off = rows != cols
        assert vals[off].tobytes() == dense[rows[off], cols[off]].tobytes()
        # the diagonals add their rows in another order (the star's hub, 499 terms, moves by
        # 4.4e-16); a ring's two equal weights add exactly
        if kind == "ring":
            assert csr.toarray().tobytes() == dense.tobytes()
        np.testing.assert_allclose(vals[~off], np.diag(dense), rtol=0, atol=1e-15)

    # transposed_values' searchsorted and the column-order row sums read the keys rows * n + cols
    @pytest.mark.parametrize(
        "kind, n, p", [("ring", 1000, 0.5), ("grid", 1024, 0.5), ("star", 500, 0.5), ("erdos_renyi", 2000, 0.004)]
    )
    def test_stored_keys_ascend_strictly(self, kind, n, p):
        csr = metropolis_weights(make_graph(kind, n, p=p)).p
        assert isinstance(csr, _RowSparse) and csr.n == n
        assert (np.diff(csr.rows * n + csr.cols) > 0).all()

    def test_conversion_keys_ascend_strictly(self):
        p = rng_for(77).random((50, 50))
        p[p < 0.7] = 0.0
        p[3, 4], p[5, 6], p[7] = np.nan, -0.0, 0.0  # NaN is stored; -0.0 and an empty row are not
        csr = _RowSparse.of(p)
        assert (np.diff(csr.rows * 50 + csr.cols) > 0).all()
        assert np.array_equal(np.stack((csr.rows, csr.cols)), np.nonzero(p != 0))
        assert np.array_equal(csr.toarray(), p, equal_nan=True)
        assert _RowSparse.of(csr) is csr

    @pytest.mark.parametrize(
        "rows, cols",
        [([1, 0, 0, 1], [0, 0, 1, 1]), ([0, 0, 0, 1], [0, 1, 1, 1])],
        ids=["out-of-row-order", "a-position-twice"],
    )
    def test_entries_out_of_key_order_are_rejected(self, rows, cols):
        # out of row order, the symmetric doubly stochastic P of 0.5s read as asymmetric
        with pytest.raises(DimensionMismatch, match="^stored entries must be sorted by row, then column, with no "):
            _RowSparse(np.array(rows), np.array(cols), np.full(4, 0.5), 2)
        assert MixingMatrix(_RowSparse(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.full(4, 0.5), 2)).n == 2

    @pytest.mark.parametrize("kind, n", [("ring", 700), ("grid", 676), ("star", 400)])
    def test_csr_powers_match_the_dense_powers(self, kind, n):
        # a CSR P's power is its dense form's; k rounds on P agree with it to roundoff
        mix = metropolis_weights(make_graph(kind, n))
        assert isinstance(mix.p, _RowSparse)
        dense = mix.p.toarray()
        assert np.array_equal(mix.power(4), dense @ dense @ dense @ dense)
        x = rng_for(75).standard_normal((n, 3))
        for k in (1, 2, 3, 4):
            assert_rounds_match_the_power(mix, x, k)

    def test_weights_and_three_rounds_hold_no_dense_matrix(self):
        # tracemalloc sees numpy's buffers; a dense P at n = 3000 is 72 MB
        g, x = make_graph("ring", 3000), np.ones((3000, 1))
        tracemalloc.start()
        try:
            mix = metropolis_weights(g)
            mix.mix(x, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(mix.p, _RowSparse)
        assert peak < 2**20

    def test_star_rounds_hold_no_filled_in_power(self):
        # a star's P^2 is full: 10^6 entries where P stores 2,998; x is 40 kB
        mix = metropolis_weights(make_graph("star", 1000))
        x = rng_for(76).standard_normal((1000, 5))
        tracemalloc.start()
        try:
            mix.mix(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(mix.p, _RowSparse)
        assert peak < 2**20

    def test_validation_allocates_only_the_eigensolve_input(self):
        n = 1500  # a star is CSR but not circulant, so sigma2 takes the eigensolver
        g = make_graph("star", n)
        p = metropolis_weights(g).p
        assert isinstance(p, _RowSparse)
        tracemalloc.start()
        try:
            report = validate_mixing(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, str(report)
        assert peak <= n * n * 8 + 2**20

    def test_circulant_validation_allocates_no_dense_matrix(self):
        n = 2000  # one n x n array is 32 MB
        g = make_graph("ring", n)
        p = metropolis_weights(g).p
        tracemalloc.start()
        try:
            report = validate_mixing(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, str(report)
        assert peak < 2 * 2**20


def as_csr(p: np.ndarray, stored=()) -> _RowSparse:
    """``p`` as CSR holding its nonzeros and, explicitly, its entries at the positions ``stored``."""
    keep = p != 0
    for i, j in stored:
        keep[i, j] = True
    rows, cols = np.nonzero(keep)
    return _RowSparse(rows, cols, p[rows, cols], len(p))


def assert_same_reports(a, b):
    assert [(c.name, c.passed) for c in a.checks] == [(c.name, c.passed) for c in b.checks]
    for x, y in zip(a.checks, b.checks):
        assert np.array_equal(x.deviation, y.deviation, equal_nan=True), (x, y)
    assert np.float64(a.checks[-1].deviation).tobytes() == np.float64(b.checks[-1].deviation).tobytes()


def broken_ring(case: str):
    """Ring-400 Metropolis weights, dense, with one defect, and the positions a CSR form stores explicitly."""
    p = metropolis_weights(make_graph("ring", 400)).p.toarray()
    stored = ()
    if case == "negative":
        p[5, 6] = -0.25
    elif case == "off-graph":
        p[0, 200] = p[200, 0] = 0.1
    elif case == "one-sided":  # (200, 0) is absent, so the pair is asymmetric
        p[0, 200] = 0.1
    elif case == "row-off":
        p[3, 3] += 1e-6
    elif case == "moved":  # row 0 still sums to 1; columns 0 and 1 do not
        p[0, 1] += 0.1
        p[0, 0] -= 0.1
    elif case == "nan":
        p[0, 1] = np.nan
    elif case == "inf":
        p[0, 1] = p[1, 0] = np.inf
    elif case == "negative-zero":  # stored by the CSR form, skipped by the dense scan
        p[0, 200] = p[200, 0] = -0.0
        stored = ((0, 200), (200, 0))
    elif case == "stored-zero":  # a stored 0 whose transpose is absent
        stored = ((0, 200),)
    return p, stored


BROKEN = {
    "negative": {"nonnegativity", "symmetry", "row_sums", "column_sums"},
    "off-graph": {"sparsity", "row_sums", "column_sums", "sigma2"},
    "one-sided": {"sparsity", "symmetry", "row_sums", "column_sums", "sigma2"},
    "row-off": {"row_sums", "column_sums"},
    "moved": {"symmetry", "column_sums", "sigma2"},
    "nan": {"nonnegativity", "symmetry", "row_sums", "column_sums", "sigma2"},
    "inf": {"row_sums", "column_sums", "sigma2"},  # the inf pair is symmetric: equal entries deviate by 0
    "negative-zero": set(),
    "stored-zero": set(),
}
WEIGHT_CHECKS = ("nonnegativity", "symmetry", "row_sums", "column_sums")  # MixingMatrix's, in its order


class TestCsrValidation:
    """One validation path: a CSR matrix and its dense form give the same report."""

    @pytest.mark.parametrize(
        "kind, n", [("ring", 1000), ("grid", 676), ("star", 500), ("complete", 300), ("erdos_renyi", 1000)]
    )
    def test_csr_and_dense_reports_agree(self, kind, n):
        g = make_graph(kind, n, p=0.01)
        p = metropolis_weights(g).p
        assert isinstance(p, _RowSparse) == (kind in ("ring", "grid", "star"))
        csr = p if isinstance(p, _RowSparse) else _RowSparse.of(p)
        report = validate_mixing(csr, g)
        assert report.passed, str(report)
        assert_same_reports(report, validate_mixing(csr.toarray(), g))

    @pytest.mark.parametrize("case", BROKEN)
    def test_broken_csr_and_dense_reports_agree(self, case):
        g = make_graph("ring", 400)
        p, stored = broken_ring(case)
        csr = as_csr(p, stored)
        report = validate_mixing(csr, g)
        assert {c.name for c in report.failures()} == BROKEN[case]
        assert_same_reports(report, validate_mixing(p, g))
        assert_same_reports(report, validate_mixing(csr.toarray(), g))

    @pytest.mark.parametrize("case", ["negative-zero", "stored-zero"])
    def test_stored_zeros_take_the_dense_forms_path(self, monkeypatch, case):
        # the nonzeros are a circulant ring's, whatever zeros the CSR form stores
        p, stored = broken_ring(case)
        csr = as_csr(p, stored)
        assert len(csr.vals) > np.count_nonzero(p)
        dense_value = second_singular_value(p)

        def refuse(*args, **kwargs):
            raise AssertionError("a circulant P reached a dense solver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert np.float64(second_singular_value(csr)).tobytes() == np.float64(dense_value).tobytes()
        assert second_singular_value(p) == dense_value

    def test_deviations_measure_the_defect(self):
        g = make_graph("ring", 400)
        deviation = {
            case: {c.name: c.deviation for c in validate_mixing(as_csr(broken_ring(case)[0]), g).checks}
            for case in ("off-graph", "one-sided", "moved")
        }
        assert deviation["off-graph"]["sparsity"] == 0.1
        assert deviation["one-sided"]["symmetry"] == 0.1
        assert deviation["moved"]["row_sums"] <= 1e-15 and abs(deviation["moved"]["column_sums"] - 0.1) <= 1e-15


class TestConstructionChecks:
    """``MixingMatrix`` raises on the first of ``validate_mixing``'s weight checks that fails, with its deviation."""

    @pytest.mark.parametrize("case", BROKEN)
    def test_raises_on_the_first_failed_weight_check(self, case):
        g = make_graph("ring", 400)
        p, stored = broken_ring(case)
        deviation = {c.name: c.deviation for c in validate_mixing(p, g).checks}
        failed = [name for name in WEIGHT_CHECKS if name in BROKEN[case]]
        for form in (p, as_csr(p, stored)):
            if not failed:
                MixingMatrix(form)
                continue
            first = failed[0]
            with pytest.raises(NotSymmetric if first == "symmetry" else NotStochastic,
                               match=f"^mixing matrix fails {first}: deviation {deviation[first]:.3e} "):
                MixingMatrix(form)

    def test_moved_weight_on_ring10_is_rejected(self):
        # rows still sum to 1; the run this P drove ended at tracking drift 0.31 after 2,000 iterations
        p = metropolis_weights(make_graph("ring", 10)).p.copy()
        p[0, 1] -= 0.05
        p[0, 0] += 0.05
        with pytest.raises(NotSymmetric, match=r"^mixing matrix fails symmetry: deviation 5\.000e-02 "):
            MixingMatrix(p)

    def test_zero_rows_are_rejected(self):
        p = metropolis_weights(make_graph("ring", 400)).p.toarray()
        p[7] = 0.0  # (6, 7) and (8, 7) lose their partners
        with pytest.raises(NotSymmetric, match=r"^mixing matrix fails symmetry: deviation 3\.333e-01 "):
            MixingMatrix(p)
        p[:, 7] = 0.0  # symmetric again; row 7 sums to 0
        with pytest.raises(NotStochastic, match=r"^mixing matrix fails row_sums: deviation 1\.000e\+00 "):
            MixingMatrix(p)
        p[[7, 399]] = p[:, [7, 399]] = 0.0
        csr = _RowSparse.of(p)
        assert np.bincount(csr.rows, minlength=csr.n)[[7, 399]].tolist() == [0, 0]
        with pytest.raises(NotStochastic, match=r"^mixing matrix fails row_sums: deviation 1\.000e\+00 "):
            MixingMatrix(csr)

    @pytest.mark.parametrize("delta, accepted", [(1e-13, True), (1e-9, False)])
    def test_sums_are_held_to_weight_tol(self, delta, accepted):
        p = metropolis_weights(make_graph("ring", 10)).p.copy()
        p[3, 3] += delta  # row 3 and column 3 sum to 1 + delta
        for form in (p, _RowSparse.of(p)):
            if accepted:
                MixingMatrix(form)
            else:
                with pytest.raises(NotStochastic, match="^mixing matrix fails row_sums"):
                    MixingMatrix(form)

    def test_column_sums_are_checked_where_rows_and_symmetry_hold(self):
        # column 0 gains 0.9e-12 from rows 1 and 9, whose diagonals give it back: every row sums
        # to 1, every pair is symmetric within WEIGHT_TOL, and column 0 sums to 1 + 1.8e-12
        p = metropolis_weights(make_graph("ring", 10)).p.copy()
        for i in (1, 9):
            p[i, 0] += 0.9e-12
            p[i, i] -= 0.9e-12
        assert [c.name for c in validate_mixing(p, make_graph("ring", 10)).failures()] == ["column_sums"]
        for form in (p, _RowSparse.of(p)):
            with pytest.raises(NotStochastic, match="^mixing matrix fails column_sums"):
                MixingMatrix(form)

    @pytest.mark.parametrize("kind, n, p", [("ring", 1000, 0.5), ("grid", 1024, 0.5), ("erdos_renyi", 2000, 0.004)])
    def test_large_metropolis_weights_are_accepted(self, kind, n, p):
        mix = metropolis_weights(make_graph(kind, n, p=p))  # the constructor checks P
        assert isinstance(mix.p, _RowSparse)
        assert MixingMatrix(mix.p.toarray()).n == n


def both_forms(n: int) -> tuple[MixingMatrix, MixingMatrix]:
    """Ring-n Metropolis weights as a dense P and as the CSR form of the same matrix."""
    dense = metropolis_weights(make_graph("ring", n))
    return dense, MixingMatrix(_RowSparse.of(dense.p))


def wide_rows(n: int) -> MixingMatrix:
    """A CSR P with 9 equal entries per row, at offsets -4..4 on a cycle."""
    cols = np.sort((np.arange(n)[:, None] + np.arange(-4, 5)) % n, axis=1)
    return MixingMatrix(_RowSparse(np.repeat(np.arange(n), 9), cols.ravel(), np.full(9 * n, 1 / 9), n))


def assert_rounds_match_the_power(mix: MixingMatrix, x: np.ndarray, k: int) -> None:
    """k rounds of ``mix`` on ``x`` against one product by the dense P^k: a few ulp of ``x`` apart."""
    np.testing.assert_allclose(mix.mix(x, k), mix.power(k) @ x, rtol=0, atol=1e-14 * np.abs(x).max())


class TestValidateMixing:
    def test_wrong_shape_is_the_one_failed_check(self):
        report = validate_mixing(np.eye(3), make_graph("ring", 4))
        assert report.checks == (MixingCheck("shape", False, 1.0),)

    @pytest.mark.parametrize("shape, deviation", [((), np.inf), ((4,), np.inf), ((4, 4, 1), np.inf), ((4, 5), 1.0), ((5, 5), 1.0)])
    def test_wrong_shape_reports_its_largest_offset(self, shape, deviation):
        # the largest |dim - n| of a matrix; any other ndim is infinitely far from (n, n)
        report = validate_mixing(np.full(shape, 0.25), make_graph("ring", 4))
        assert report.checks == (MixingCheck("shape", False, deviation),)

    @pytest.mark.parametrize("p", [[[1.0, 0.0], [0.0]], "ab"], ids=["ragged", "string"])
    def test_weights_numpy_cannot_convert_fail_shape(self, p):
        report = validate_mixing(p, make_graph("ring", 2))
        assert report.checks == (MixingCheck("shape", False, np.inf),)

    def test_ring_sigma2_limit_is_where_the_docstring_puts_it(self, monkeypatch):
        # 1 - sigma2 = 4 pi^2 / (3 n^2) crosses SIGMA2_MARGIN between these sizes
        graphs = {n: make_graph("ring", n) for n in (110_000, 120_000)}
        weights = {n: metropolis_weights(g).p for n, g in graphs.items()}

        def refuse(*args, **kwargs):  # a dense P - 11'/n here would take about 115 GB
            raise AssertionError("a circulant P reached the dense sigma2 path")

        monkeypatch.setattr(np, "full", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        reports = {n: validate_mixing(weights[n], g) for n, g in graphs.items()}
        assert reports[110_000].passed, str(reports[110_000])
        assert [c.name for c in reports[120_000].failures()] == ["sigma2"]
        for n, report in reports.items():
            gap = 1.0 - report.checks[-1].deviation
            assert gap == pytest.approx(4 * np.pi**2 / (3 * n * n), rel=1e-5)

    def test_identity_fails_sigma2(self):
        g = make_graph("ring", 4)
        report = validate_mixing(np.eye(4), g)
        failed = {c.name for c in report.failures()}
        assert failed == {"sigma2"}

    def test_row_stochastic_asymmetric_fails(self):
        g = make_graph("ring", 3)
        p = np.array([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.4, 0.0, 0.6]])
        report = validate_mixing(p, g)
        failed = {c.name for c in report.failures()}
        assert "symmetry" in failed or "column_sums" in failed

    def test_off_graph_weight_detected(self):
        g = make_graph("ring", 4)
        p = metropolis_weights(make_graph("complete", 4)).p
        report = validate_mixing(p, g)
        assert "sparsity" in {c.name for c in report.failures()}

    # The sparsity check reads |p| off the graph and the diagonal only.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_on_an_edge_is_not_a_sparsity_failure(self, bad):
        g = make_graph("ring", 4)
        p = metropolis_weights(g).p.copy()
        p[0, 1] = p[1, 0] = bad
        check = validate_mixing(p, g).checks[1]
        assert check.name == "sparsity" and check.passed and check.deviation == 0.0

    @pytest.mark.parametrize("weight", [np.nan, -0.25])
    def test_weight_off_the_graph_fails_sparsity(self, weight):
        g = make_graph("ring", 4)
        p = metropolis_weights(g).p.copy()
        p[0, 2] = weight  # 0 and 2 are not neighbours on the 4-ring
        check = validate_mixing(p, g).checks[1]
        assert check.name == "sparsity" and not check.passed
        assert np.array_equal(check.deviation, abs(weight), equal_nan=True)

    def test_negative_zero_off_the_graph_is_zero(self):
        g = make_graph("ring", 4)
        p = metropolis_weights(g).p.copy()
        p[0, 2] = p[2, 0] = -0.0
        report = validate_mixing(p, g)
        check = report.checks[1]
        assert check.name == "sparsity" and check.deviation == 0.0 and not np.signbit(check.deviation)
        assert report.passed, str(report)

    @pytest.mark.parametrize("weight, failed", [(1.0, set()), (0.5, {"row_sums", "column_sums"})])
    def test_single_node(self, weight, failed):
        report = validate_mixing(np.array([[weight]]), make_graph("ring", 1))
        sparsity = report.checks[1]
        assert sparsity.name == "sparsity" and sparsity.passed and sparsity.deviation == 0.0
        assert {c.name for c in report.failures()} == failed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_reported_not_raised(self, bad):
        report = validate_mixing(np.full((4, 4), bad), make_graph("ring", 4))
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert "sigma2" in failed
        # inf is nonnegative; NaN is not known to be.
        assert ("nonnegativity" in failed) == np.isnan(bad)

    def test_valid_matrix_nonnegativity_deviation_is_positive_zero(self):
        g = make_graph("ring", 5)
        check = validate_mixing(metropolis_weights(g).p, g).checks[0]
        assert check.name == "nonnegativity"
        assert check.deviation == 0.0 and not np.signbit(check.deviation)

    @pytest.mark.parametrize("kind,n", [("star", 500), ("complete", 300), ("ring", 1000)])
    def test_large_star_complete_ring_pass(self, kind, n):
        g = make_graph(kind, n)
        report = validate_mixing(metropolis_weights(g).p, g)
        assert report.passed, str(report)

    def test_consensus_contraction_property(self):
        rng = rng_for(21)
        for seed in range(4):
            g = make_graph("erdos_renyi", 9, p=0.45, seed=seed)
            p = metropolis_weights(g).p
            sigma = second_singular_value(p)
            for _ in range(10):
                tilde = rng.standard_normal((9, 3))
                tilde -= tilde.mean(axis=0)
                assert np.linalg.norm(p @ tilde) <= (sigma + 1e-9) * np.linalg.norm(tilde)


def test_edge_list_export():
    g = make_graph("ring", 4)
    buf = io.StringIO()
    from giantnet.topology import write_edge_list

    write_edge_list(g, buf)
    assert buf.getvalue() == "0 1\n0 3\n1 2\n2 3\n"


# Reference: the per-pair loops that the edge array replaced.
def _reference_edges(kind, n, p, seed):
    def edge(i, j):
        return (i, j) if i < j else (j, i)

    if kind == "ring":
        return sorted({edge(i, (i + 1) % n) for i in range(n) if n > 1})
    if kind == "complete":
        return sorted({(i, j) for i in range(n) for j in range(i + 1, n)})
    if kind == "star":
        return sorted({(0, i) for i in range(1, n)})
    if kind == "grid":
        rows = int(np.ceil(np.sqrt(n)))
        cols = n // rows
        edges = set()
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.add(edge(i, i + 1))
                if r + 1 < rows:
                    edges.add(edge(i, i + cols))
        return sorted(edges)
    rng = np.random.Generator(np.random.Philox(seed))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        draws = rng.random(len(pairs))
        edges = {pair for pair, u in zip(pairs, draws) if u < p}
        if _reference_connected(n, edges):
            return sorted(edges)
    raise AssertionError("reference found no connected graph")


def _reference_connected(n, edges):
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def _reference_degrees(n, edges):
    return [sum(1 for e in edges if i in e) for i in range(n)]


def _reference_weights(n, edges):
    deg = _reference_degrees(n, edges)
    p = np.zeros((n, n))
    for i, j in edges:
        p[i, j] = p[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        p[i, i] = 1.0 - p[i].sum()
    return p


def _reference_off_graph(p, n, edges):
    edges = set(edges)
    off = 0.0
    for i in range(n):
        for j in range(n):
            if i != j and (min(i, j), max(i, j)) not in edges:
                off = max(off, abs(p[i, j]))
    return off


REFERENCE_CASES = (
    [(kind, n, 0.5, 0) for kind in ("ring", "complete", "star") for n in (1, 2, 3, 4, 7, 50)]
    + [("grid", n, 0.5, 0) for n in (1, 4, 6, 12)]
    + [
        ("erdos_renyi", n, p, seed)
        for n, p, seed in [(1, 0.5, 0), (2, 0.7, 1), (7, 0.5, 3), (12, 0.3, 5), (12, 1.0, 0),
                           (50, 0.1, 2), (50, 0.1, 9), (50, 0.4, 7)]
    ]
)


@pytest.mark.parametrize("kind,n,p,seed", REFERENCE_CASES)
def test_matches_per_pair_reference(kind, n, p, seed):
    g = make_graph(kind, n, p=p, seed=seed)
    edges = _reference_edges(kind, n, p, seed)
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(edges), 2)
    assert g.edges.tolist() == [list(e) for e in edges]
    assert not g.edges.flags.writeable
    assert g.degrees.tolist() == _reference_degrees(n, edges)

    p_mix = metropolis_weights(g).p
    assert p_mix.tobytes() == _reference_weights(n, edges).tobytes()
    report = validate_mixing(p_mix, g)
    assert report.passed, str(report)

    # An asymmetric dense matrix puts weight on every pair, on and off the graph.
    dense = rng_for(n).random((n, n))
    (sparsity,) = [c for c in validate_mixing(dense, g).checks if c.name == "sparsity"]
    assert sparsity.deviation == _reference_off_graph(dense, n, edges)


@pytest.mark.parametrize("kind,n,p,seed", REFERENCE_CASES)
def test_csr_weights_match_per_pair_reference(monkeypatch, kind, n, p, seed):
    monkeypatch.setattr(topology, "SPARSE_RATIO", 0)  # every P is built as CSR
    g = make_graph(kind, n, p=p, seed=seed)
    csr = metropolis_weights(g).p
    assert isinstance(csr, _RowSparse)
    dense, want = csr.toarray(), _reference_weights(n, _reference_edges(kind, n, p, seed))
    off = ~np.eye(n, dtype=bool)
    assert dense[off].tobytes() == want[off].tobytes()
    np.testing.assert_allclose(np.diag(dense), np.diag(want), rtol=0, atol=1e-15)  # row sums in column order
    report = validate_mixing(csr, g)
    assert report.passed, str(report)
