"""Communication graphs and doubly stochastic mixing matrices.

A consensus round exchanges messages between neighbours only, so P has
n + 2E nonzeros. P's form is decided once, by ``metropolis_weights``: it
builds P straight from the edge list as row-sorted triplets
(``numerics._RowSparse``) when ``SPARSE_RATIO`` calls n + 2E sparse, and
as a dense n x n array otherwise. ``MixingMatrix.mix`` runs k rounds in
P's form: on a sparse P as k products by P, each one neighbour exchange
in O((n + 2E) d); on a dense P as one dense ``@`` by the kept P^k. A
dense P is applied dense, however sparse it is. ``MixingMatrix`` and
``validate_mixing`` check either form on the triplets of
``_RowSparse.of``. Only the sigma2 eigensolve allocates n x n arrays; a
circulant P (a ring's Metropolis weights) gets sigma2 in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConnectivityFailure, DimensionMismatch, InvalidParams, NotStochastic, NotSymmetric
from .numerics import _RowSparse, is_finite_real, is_integer, second_singular_value

GRAPH_KINDS = ("ring", "complete", "star", "grid", "erdos_renyi")

# Maximum resampling attempts for erdos_renyi before giving up.
MAX_CONNECTIVITY_RETRIES = 1000

# The largest n whose edge keys lo * n + hi (see _graph) fit in int64.
MAX_NODES = math.isqrt(2**63 - 1)

WEIGHT_TOL = 1e-12
# sigma2 must sit strictly below 1. The margin absorbs the roundoff of the
# eigensolver, the SVD or the circulant closed form on matrices whose true
# sigma2 is exactly 1 (a disconnected support, the identity), and so
# rejects every matrix with 1 - sigma2 below it, however it is computed.
SIGMA2_MARGIN = 1e-9

# metropolis_weights builds P sparse when nnz * SPARSE_RATIO <= n^2; nothing
# else reads this rule. Dense @ against sparse, microseconds per product,
# medians of 9 (Metropolis weights, numpy 2.4.6 with OpenBLAS, 2 vCPUs):
#
#   P                          n^2/nnz   d=1          d=5          d=20
#   ring n=100                      33   2.7 / 3.7    5.3 / 9.0    9.3 / 22
#   Erdos-Renyi n=100, p=0.1        10   2.8 / 6.6    5.8 / 29      14 / 71
#   ring n=200                      67   7.0 / 5.6     17 / 14      38 / 38
#   ring n=300                     100    14 / 5.3     35 / 21      76 / 57
#   ring n=400                     133    27 / 7.1     87 / 27     160 / 94
#   ring n=1000                    333   231 / 19     972 / 79    1390 / 211
#   grid n=900                     185   157 / 24     755 / 123    966 / 328
#   star n=1000                    334   202 / 20     944 / 83    1770 / 251
#   Erdos-Renyi n=1000, p=0.01      93   217 / 51     943 / 207   1230 / 900
#
# The crossover sits between n^2/nnz = 33 and 67 at d = 1 and 5, and near
# 67 at d = 20, so 128 errs towards the dense product: ring10 and er100
# (n^2/nnz about 3 and 9) stay dense by a wide margin.
SPARSE_RATIO = 128


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


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Consensus weights over a graph, checked at construction to be symmetric doubly stochastic.

    ``p`` is either a ``_RowSparse``, kept as is (``metropolis_weights``
    gives one above the sparse threshold; ``p.toarray()`` is its dense
    form), or anything else, converted to a float array (a float array is
    kept as is) that must be square: ``_RowSparse.of`` raises
    DimensionMismatch otherwise. Either form must pass
    ``validate_mixing``'s nonnegativity, symmetry, row-sum and column-sum
    checks, each within ``WEIGHT_TOL``: the first that fails raises
    NotSymmetric (symmetry) or NotStochastic (the others) with its
    deviation. The graph and sigma2 are ``validate_mixing``'s alone. As
    ``mix`` memoizes ``power(k)`` on a dense P, ``p`` must not be modified.

    ``metropolis_weights`` decides P's form once, and ``mix`` never
    converts it. On a sparse P, k rounds are k products by P, each adding
    every row's stored products in column order (see ``_RowSparse``).
    That is many times faster than the dense product above the crossover
    (ring n=1000, d=5, in the table beside ``SPARSE_RATIO``: 79 us,
    against 972 us dense) and differs from it by a few ulp per round. On
    a dense P, including any dense P a caller supplies, k rounds are one
    dense ``@`` by P^k, with the bits ``power(k) @ x`` gives.
    """

    p: np.ndarray | _RowSparse
    _products: dict = field(default_factory=dict, init=False, repr=False)  # k -> a dense P^k, as mix applies it

    def __post_init__(self):
        sparse = _RowSparse.of(self.p)
        if sparse is not self.p:  # a dense P is kept as its float array; ``of`` converted it already
            object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        for c in _weight_checks(sparse):
            if not c.passed:
                error = NotSymmetric if c.name == "symmetry" else NotStochastic
                raise error(f"mixing matrix fails {c.name}: deviation {c.deviation:.3e} (WEIGHT_TOL {WEIGHT_TOL:g})")

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def power(self, k: int) -> np.ndarray:
        """P^k as a dense array, by repeated left-to-right multiplication.

        On a dense P, ``power(1)`` is ``p`` itself, and the association
        order is pinned: ``mix`` applies ``power(k)`` itself, so a K = 2
        giant step on P is bitwise a K = 1 step on ``p @ p`` (acceptance
        criterion 9). A sparse P gives the power of its ``toarray()``
        form, an n x n array, for checks at small n: ``mix`` never calls
        this on a sparse P, and its k products by P agree with one product
        by the power to a few ulp, not bit for bit. Each call builds the
        power afresh; ``mix`` keeps what it applies.
        """
        if not (is_integer(k) and k >= 1):
            raise InvalidParams(f"k must be a positive integer, got {k}")
        p = self.p.toarray() if isinstance(self.p, _RowSparse) else self.p
        out = p
        for _ in range(k - 1):
            out = out @ p
        return out

    def mix(self, x: np.ndarray, k: int = 1) -> np.ndarray:
        """k consensus rounds on an (n, d) stack or an (n,) vector: P^k @ x.

        On a sparse P the rounds are k products by P; on a dense P they are
        one product by ``power(k)``, built at the first call for that k.
        Raises InvalidParams unless k is a positive integer, and
        DimensionMismatch for any other shape of ``x`` and for an ``x``
        that is not an array (nothing is converted).
        """
        if not (is_integer(k) and k >= 1):  # 2.0 or True would hit the memo of 2 or 1
            raise InvalidParams(f"k must be a positive integer, got {k}")
        if getattr(x, "ndim", None) not in (1, 2):  # P^k @ a 3-D stack would mix along its second axis
            got = f"shape {x.shape}" if hasattr(x, "shape") else f"a {type(x).__name__}"
            raise DimensionMismatch(f"mix takes an (n,) vector or an (n, d) stack, got {got}")
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"mixing matrix is {self.n}x{self.n} for {x.shape[0]} agents")
        if isinstance(self.p, _RowSparse):
            for _ in range(k):  # one neighbour exchange per round
                x = self.p @ x
            return x
        op = self._products.get(k)  # a hit skips power, so power runs once per k and instance
        if op is None:
            op = self._products[k] = self.power(k)
        return op @ x


def check_graph(kind: str, n: int, p: float = 0.5, seed: int = 0) -> None:
    """Raise InvalidParams, led by the parameter's name, for arguments ``make_graph`` rejects.

    ``n`` and ``seed`` must be integers and ``p`` a finite real for every kind, never bools.
    """
    if not (is_integer(n) and 1 <= n <= MAX_NODES):
        raise InvalidParams(f"n must be an integer in [1, {MAX_NODES}], got {n!r}")
    if kind not in GRAPH_KINDS:
        raise InvalidParams(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    if kind == "grid" and n % int(np.ceil(np.sqrt(n))):
        raise InvalidParams(f"n must be a multiple of ceil(sqrt(n)) for a grid, got {n}")
    if not is_finite_real(p):
        raise InvalidParams(f"p must be a finite real number, got {p!r}")
    if kind == "erdos_renyi" and not 0.0 < p <= 1.0:
        raise InvalidParams(f"p must be in (0, 1], got {p}")
    if not (is_integer(seed) and seed >= 0):
        raise InvalidParams(f"seed must be a nonnegative integer, got {seed!r}")


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
    rng = Generator(Philox(seed))
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
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0, so the first always stays
    edges = np.stack(np.divmod(keys, n), axis=1)
    edges.flags.writeable = False
    return Graph(n=n, edges=edges)


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Symmetric doubly stochastic weights from local degrees only.

    P_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal takes the slack.
    The form is chosen from nnz = n + 2E before anything is built: if
    nnz * SPARSE_RATIO <= n^2, P is sparse, built from the edge list in
    O(nnz log nnz), with each diagonal entry 1 minus its row's
    off-diagonals added in column order; otherwise P is a dense n x n
    array whose diagonal is 1 minus its row's ``sum``. On a ring, and
    wherever a row's off-diagonals add exactly, the two forms hold the
    same bits.
    """
    n, (a, b) = g.n, g.edges.T
    w = 1.0 / (1.0 + np.maximum(g.degrees[a], g.degrees[b]))
    if (n + 2 * len(w)) * SPARSE_RATIO > n * n:
        p = np.zeros((n, n))
        p[a, b] = p[b, a] = w
        np.fill_diagonal(p, 1.0 - p.sum(axis=1))
        return MixingMatrix(p)
    node = np.arange(n)
    rows, cols = np.concatenate([a, b, node]), np.concatenate([b, a, node])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    vals = np.concatenate([w, w, np.zeros(n)])[order]
    # bincount adds each row's entries in column order; the diagonal's 0 adds nothing
    vals[rows == cols] = 1.0 - np.bincount(rows, vals, n)
    return MixingMatrix(_RowSparse(rows, cols, vals, n))


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


def _weight_checks(p: _RowSparse) -> tuple[MixingCheck, ...]:
    """Nonnegativity, symmetry, row sums and column sums of a sparse P, each within ``WEIGHT_TOL``.

    Symmetry compares each stored entry with its transposed partner (0 if
    absent), and an entry equal to its partner deviates by 0, infinities
    included; each sum adds its row's or column's entries in storage order.
    """
    n, rows, cols, vals = p.n, p.rows, p.cols, p.vals
    # 0.0 - 0.0 is +0.0 where -0.0 is not; NaN propagates. The initial 0.0 stands for the zeros.
    neg = float(0.0 - vals.min(initial=0.0))
    partner = p.transposed_values()
    # inf - inf gives NaN, which np.where drops for an equal pair; numpy need not warn about it.
    with np.errstate(invalid="ignore"):
        asym = float(np.abs(np.where(vals == partner, 0.0, vals - partner)).max(initial=0.0))
        row_dev = float(np.abs(np.bincount(rows, vals, n) - 1.0).max(initial=0.0))
        col_dev = float(np.abs(np.bincount(cols, vals, n) - 1.0).max(initial=0.0))
    deviations = {"nonnegativity": neg, "symmetry": asym, "row_sums": row_dev, "column_sums": col_dev}
    return tuple(MixingCheck(name, dev <= WEIGHT_TOL, dev) for name, dev in deviations.items())


def validate_mixing(p: np.ndarray | _RowSparse, g: Graph) -> ValidationReport:
    """Check the mixing-matrix invariants, reporting measured deviations.

    Failures come back as report entries, never exceptions, so that
    user-supplied matrices can be inspected. ``p`` is a ``_RowSparse`` or
    anything else. A ``p`` that is not (n, n) gets one failed ``shape``
    check, whose deviation is the largest |dim - n| of a 2-D ``p`` and inf
    for any other ndim, or where numpy makes no float array of ``p``.
    Every check reads the triplets of ``_RowSparse.of(p)``; an entry not
    among them is 0. Checks: nonnegativity, sparsity conformance to
    the graph, symmetry, row sums, column sums (all but sparsity are
    ``MixingMatrix``'s, from ``_weight_checks``) and sigma2 <= 1 -
    ``SIGMA2_MARGIN``. A circulant ``p`` gets sigma2 in closed form and,
    if sparse, allocates no n x n array. For a sparse ``p`` that is not
    circulant, only the sigma2 eigensolve allocates n x n arrays: its
    input and LAPACK's copy.

    The sigma2 check fails by construction on graphs that mix too slowly
    for the margin: a ring with n >~ 1.15e5 nodes has
    1 - sigma2 = 4 pi^2 / (3 n^2) < ``SIGMA2_MARGIN``.
    """
    try:
        shape = p.shape if isinstance(p, _RowSparse) else np.asarray(p, dtype=float).shape
    except (TypeError, ValueError, OverflowError):  # a ragged list, a string: no dimension matches
        shape = ()
    if shape != (g.n, g.n):
        off = max(abs(dim - g.n) for dim in shape) if len(shape) == 2 else math.inf
        return ValidationReport((MixingCheck("shape", False, float(off)),))
    p = _RowSparse.of(p)
    nonnegativity, *weights = _weight_checks(p)

    # What |p| holds off the graph and the diagonal; -0.0 reads 0 and NaN propagates.
    rows, cols, vals = p.rows, p.cols, p.vals
    keys = np.minimum(rows, cols) * g.n + np.maximum(rows, cols)
    edge_keys = g.edges[:, 0] * g.n + g.edges[:, 1]  # ascending, as the edges are sorted
    on_graph = np.concatenate((edge_keys, [-1]))[np.searchsorted(edge_keys, keys)] == keys
    off_graph = float(np.abs(vals[(rows != cols) & ~on_graph]).max(initial=0.0))
    sparsity = MixingCheck("sparsity", off_graph <= WEIGHT_TOL, off_graph)

    sigma2 = second_singular_value(p)  # NaN for non-finite p, which fails
    contraction = MixingCheck("sigma2", sigma2 <= 1.0 - SIGMA2_MARGIN, sigma2)
    return ValidationReport((nonnegativity, sparsity, *weights, contraction))


def write_edge_list(g: Graph, stream) -> None:
    """Write one ``i j`` line per edge, 0-indexed, sorted for determinism."""
    for i, j in g.edges.tolist():
        stream.write(f"{i} {j}\n")
