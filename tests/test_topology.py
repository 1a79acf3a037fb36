import io

import numpy as np
import pytest

from giantnet import (
    ConnectivityFailure,
    InvalidParams,
    make_graph,
    metropolis_weights,
    second_singular_value,
    validate_mixing,
)
from giantnet.topology import MAX_CONNECTIVITY_RETRIES

from conftest import rng_for


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


class TestValidateMixing:
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_reported_not_raised(self, bad):
        report = validate_mixing(np.full((4, 4), bad), make_graph("ring", 4))
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert "sigma2" in failed
        # inf is nonnegative; NaN is not known to be.
        assert ("nonnegativity" in failed) == np.isnan(bad)

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
