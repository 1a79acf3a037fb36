"""Communication graphs and doubly stochastic mixing matrices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on nodes 0..n-1.

    ``edges`` is a read-only (E, 2) int64 array of distinct pairs (i, j)
    with i < j, in lexicographic order.
    """

    n: int
    edges: np.ndarray

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.n)
        deg.flags.writeable = False
        return deg

    def is_connected(self) -> bool:
        """Frontier sweep from node 0: each pass marks every neighbour of the reached set."""
        a, b = self.edges.T
        reached = np.arange(self.n) == 0
        while True:
            size = np.count_nonzero(reached)
            reached[b[reached[a]]] = True
            reached[a[reached[b]]] = True
            if np.count_nonzero(reached) == size:
                return size == self.n


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
        a = np.arange(n if n > 1 else 0)
        return _graph(n, a, (a + 1) % n)
    if kind == "complete":
        return _graph(n, *np.triu_indices(n, 1))
    if kind == "star":
        return _graph(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
    if kind == "grid":
        cols = n // int(np.ceil(np.sqrt(n)))
        a = np.arange(n)
        right, down = a[a % cols < cols - 1], a[: n - cols]
        return _graph(n, np.concatenate([right, down]), np.concatenate([right + 1, down + cols]))
    rng = np.random.Generator(np.random.Philox(seed))
    a, b = np.triu_indices(n, 1)
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        keep = rng.random(a.size) < p
        g = _graph(n, a[keep], b[keep])
        if g.is_connected():
            return g
    raise ConnectivityFailure(
        f"no connected graph with n={n}, p={p} in {MAX_CONNECTIVITY_RETRIES} attempts"
    )


def _graph(n: int, a: np.ndarray, b: np.ndarray) -> Graph:
    """The graph with an edge {a[k], b[k]} for every k (a[k] != b[k]); repeats collapse."""
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    edges = np.stack(np.divmod(keys, n), axis=1)
    edges.flags.writeable = False
    return Graph(n=n, edges=edges)


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Symmetric doubly stochastic weights from local degrees only.

    P_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal takes the slack.
    """
    a, b = g.edges.T
    p = np.zeros((g.n, g.n))
    p[a, b] = p[b, a] = 1.0 / (1.0 + np.maximum(g.degrees[a], g.degrees[b]))
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
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

    neg = float(np.maximum(0.0, -p.min()))  # NaN propagates, unlike max()
    checks.append(MixingCheck("nonnegativity", neg <= WEIGHT_TOL, neg))

    # The n*n sentinel keeps every searchsorted index in bounds, even with no edges.
    i, j = np.nonzero(p)
    keys = np.minimum(i, j) * g.n + np.maximum(i, j)
    edge_keys = np.append(g.edges[:, 0] * g.n + g.edges[:, 1], g.n * g.n)
    off = (i != j) & (edge_keys[np.searchsorted(edge_keys, keys)] != keys)
    off_graph = float(np.abs(p[i[off], j[off]]).max(initial=0.0))
    checks.append(MixingCheck("sparsity", off_graph <= WEIGHT_TOL, off_graph))

    # inf - inf gives NaN, which fails its check; numpy need not warn about it.
    with np.errstate(invalid="ignore"):
        asym = float(np.abs(p - p.T).max())
        row_dev = float(np.abs(p.sum(axis=1) - 1.0).max())
        col_dev = float(np.abs(p.sum(axis=0) - 1.0).max())
    checks.append(MixingCheck("symmetry", asym <= WEIGHT_TOL, asym))
    checks.append(MixingCheck("row_sums", row_dev <= WEIGHT_TOL, row_dev))
    checks.append(MixingCheck("column_sums", col_dev <= WEIGHT_TOL, col_dev))

    # The SVD raises on NaN or infinite entries; report sigma2 as NaN instead.
    sigma2 = second_singular_value(p, check=False) if np.isfinite(p).all() else float("nan")
    checks.append(MixingCheck("sigma2", sigma2 <= 1.0 - SIGMA2_MARGIN, sigma2))
    return ValidationReport(tuple(checks))


def write_edge_list(g: Graph, stream) -> None:
    """Write one ``i j`` line per edge, 0-indexed, sorted for determinism."""
    for i, j in g.edges.tolist():
        stream.write(f"{i} {j}\n")
