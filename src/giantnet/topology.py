"""Communication graphs and doubly stochastic mixing matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityFailure, InvalidParams
from .numerics import second_singular_value

GRAPH_KINDS = ("ring", "complete", "star", "grid", "erdos_renyi")

# Maximum resampling attempts for erdos_renyi before giving up.
MAX_CONNECTIVITY_RETRIES = 1000

WEIGHT_TOL = 1e-12
# sigma2 must sit strictly below 1; the margin absorbs SVD roundoff on
# projections whose true second singular value equals 1 exactly.
SIGMA2_MARGIN = 1e-9


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..n-1; edges stored as (i, j) with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if i in e)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


@dataclass(frozen=True)
class MixingMatrix:
    """Consensus weights over a graph; rows and columns sum to one."""

    p: np.ndarray

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def power(self, k: int) -> np.ndarray:
        """P^k by repeated left-to-right multiplication.

        The association order is pinned so that k rounds of mixing and a
        single multiplication by the precomputed power are bitwise equal.
        """
        if k < 1:
            raise InvalidParams("power requires k >= 1")
        out = self.p
        for _ in range(k - 1):
            out = out @ self.p
        return out


def _edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def check_graph(kind: str, n: int, p: float = 0.5, seed: int = 0) -> None:
    """Raise InvalidParams, led by the parameter's name, for arguments ``make_graph`` rejects."""
    if not n >= 1:
        raise InvalidParams(f"n must be >= 1, got {n}")
    if kind not in GRAPH_KINDS:
        raise InvalidParams(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    if kind == "grid" and n % int(np.ceil(np.sqrt(n))):
        raise InvalidParams(f"n must be a multiple of ceil(sqrt(n)) for a grid, got {n}")
    if kind == "erdos_renyi" and not 0.0 < p <= 1.0:
        raise InvalidParams(f"p must be in (0, 1], got {p}")
    if not seed >= 0:
        raise InvalidParams(f"seed must be nonnegative, got {seed}")


def make_graph(kind: str, n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """Generate a connected graph of the requested kind.

    ``p`` is the edge probability, used only by ``erdos_renyi``, which
    resamples (up to MAX_CONNECTIVITY_RETRIES times) until connected.
    Sampling uses the Philox generator, so results are deterministic in
    ``seed``. The grid kind lays nodes on a ceil(sqrt(n)) wide lattice and
    refuses node counts that do not factor exactly.
    """
    check_graph(kind, n, p, seed)
    if kind == "ring":
        edges = {_edge(i, (i + 1) % n) for i in range(n) if n > 1}
    elif kind == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "star":
        edges = {(0, i) for i in range(1, n)}
    elif kind == "grid":
        rows = int(np.ceil(np.sqrt(n)))
        cols = n // rows
        edges = set()
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.add(_edge(i, i + 1))
                if r + 1 < rows:
                    edges.add(_edge(i, i + cols))
    else:
        rng = np.random.Generator(np.random.Philox(seed))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(MAX_CONNECTIVITY_RETRIES):
            draws = rng.random(len(pairs))
            edges = {pair for pair, u in zip(pairs, draws) if u < p}
            g = Graph(n=n, edges=frozenset(edges))
            if g.is_connected():
                return g
        raise ConnectivityFailure(
            f"no connected graph with n={n}, p={p} in {MAX_CONNECTIVITY_RETRIES} attempts"
        )
    return Graph(n=n, edges=frozenset(edges))


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Symmetric doubly stochastic weights from local degrees only.

    P_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal takes the slack.
    """
    p = np.zeros((g.n, g.n))
    deg = [g.degree(i) for i in range(g.n)]
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        p[i, j] = p[j, i] = w
    for i in range(g.n):
        p[i, i] = 1.0 - p[i].sum()
    return MixingMatrix(p)


@dataclass(frozen=True)
class MixingCheck:
    name: str
    passed: bool
    deviation: float


@dataclass(frozen=True)
class ValidationReport:
    """Per-property outcome of checking a candidate mixing matrix against a graph."""

    checks: tuple[MixingCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[MixingCheck]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<16} {status}  deviation={c.deviation:.3e}")
        return "\n".join(lines)


def validate_mixing(p: np.ndarray, g: Graph) -> ValidationReport:
    """Check the mixing-matrix invariants, reporting measured deviations.

    Failures come back as report entries, never exceptions, so that
    user-supplied matrices can be inspected. Checks: nonnegativity,
    sparsity conformance to the graph, symmetry, row sums, column sums
    and sigma2 < 1.
    """
    p = np.asarray(p, dtype=float)
    checks = []
    if p.shape != (g.n, g.n):
        checks.append(MixingCheck("shape", False, float(abs(p.shape[0] - g.n))))
        return ValidationReport(tuple(checks))

    neg = max(0.0, float(-p.min()))
    checks.append(MixingCheck("nonnegativity", neg <= WEIGHT_TOL, neg))

    off_graph = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if i != j and _edge(i, j) not in g.edges:
                off_graph = max(off_graph, abs(p[i, j]))
    checks.append(MixingCheck("sparsity", off_graph <= WEIGHT_TOL, off_graph))

    asym = float(np.abs(p - p.T).max())
    checks.append(MixingCheck("symmetry", asym <= WEIGHT_TOL, asym))

    row_dev = float(np.abs(p.sum(axis=1) - 1.0).max())
    checks.append(MixingCheck("row_sums", row_dev <= WEIGHT_TOL, row_dev))
    col_dev = float(np.abs(p.sum(axis=0) - 1.0).max())
    checks.append(MixingCheck("column_sums", col_dev <= WEIGHT_TOL, col_dev))

    sigma2 = second_singular_value(p, check=False)
    checks.append(MixingCheck("sigma2", sigma2 <= 1.0 - SIGMA2_MARGIN, sigma2))
    return ValidationReport(tuple(checks))


def write_edge_list(g: Graph, stream) -> None:
    """Write one ``i j`` line per edge, 0-indexed, sorted for determinism."""
    for i, j in sorted(g.edges):
        stream.write(f"{i} {j}\n")
