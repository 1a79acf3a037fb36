"""Linear algebra helpers: dense kernels for small matrices, and row-sorted triplets for sparse ones.

The dense kernels are sized for desk-scale simulations (dimensions up
to a few hundred): Cholesky factorization of SPD matrices, triangular
solves that realize inverse-Hessian action (an inverse that is kept is
a solve against the identity; no inversion routine is called), and the
spectral quantity governing consensus contraction. ``_RowSparse`` holds
a square matrix as its stored (row, column, value) triplets, sorted by
row; it is the form a mixing matrix over a sparse graph takes, so that
it costs O(n + E), not n^2 floats.

The Cholesky kernels act on all agents at once: ``spd_factorize_stack``
makes one batched Cholesky call over an (n, d, d) stack and returns the
(n, d, d) lower-triangular factors, and ``spd_solve_stack`` runs
substitution that loops over the d coordinates while each step covers
every agent. A single matrix is a stack of one:
``spd_solve_stack(spd_factorize_stack(h[None]), b[None])[0]``.
Per-matrix LAPACK triangular solves cost a call per agent, which
dominates at n >= 100. The substitution runs coordinate-major: it copies
the factors to a C-contiguous (d, d, n) array and the right-hand sides
to (d, n[, k]), so every step reads and updates contiguous rows instead
of strided slices of the agent-major stacks. Each entry sees the same
operations in the same order as it would agent-major, so the results
are the same bits.

The consensus contraction factor sigma2 only measures (whether P is
doubly stochastic is ``topology.MixingMatrix``'s check). It reads the
matrix as ``_RowSparse.of`` gives it, whether it comes dense or sparse.
When every triplet equals its transposed partner (0 where that is not
stored) and every row holds row 0's nonzeros shifted along the cycle (P
is circulant: Metropolis weights on a ring always are, on a complete
graph when every row's diagonal rounds alike), sigma2 is the largest
magnitude of P's closed-form eigenvalues, in O(n w) for rows of w
nonzeros and without an n x n array. Any other P gets P - 11'/n built
once, as an n x n array of -1/n plus the nonzeros (the bits of the dense
``p - 1/n``), and handed to the symmetric eigensolver if it is
symmetric, to a full SVD otherwise. For a sparse P that is not
circulant, that array and the eigensolver's copy of it are the only
n x n arrays sigma2 allocates. A matrix with a NaN or infinite entry has
sigma2 NaN and reaches neither solver.

``is_integer`` and ``is_finite_real`` are the type tests
every constructor applies to its scalar fields.

All functions are pure; returned arrays are fresh and never alias inputs.
``_RowSparse`` is the exception: ``of`` returns a ``_RowSparse`` argument
itself, and ``@`` keeps its keys between calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Hessians of twice-differentiable objectives are analytically symmetric;
# looser inputs signal caller bugs rather than roundoff.
SYMMETRY_RTOL = 1e-10


def is_integer(value) -> bool:
    """True for Python and NumPy integers; a bool is a flag, not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real Python or NumPy scalar, not a bool, finite as a float: no NaN, infinity or integer past float range."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        return real and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``, taken over all of the row's entries.

    Each row's squares are summed by one dot product over its entries in
    memory order, as ``np.linalg.norm`` sums a flattened array (``v`` is
    C-ordered or holds one row), then a correctly rounded square root is
    taken. So row i has the bits of ``np.linalg.norm(v[i])``, NaN and inf
    included, and the rows take one stacked product instead of a call each.
    """
    flat = v.ravel(order="K").reshape(v.shape[0], -1)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])


def spd_factorize_stack(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an (n, d, d) stack of SPD matrices.

    Each matrix is checked for symmetry to ``SYMMETRY_RTOL`` relative to
    its own largest entry; the factors come from one batched call. Raises
    NotSymmetric or NotPositiveDefinite if any matrix of the stack fails,
    DimensionMismatch on a bad shape.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise DimensionMismatch(f"expected an (n, d, d) stack, got shape {h.shape}")
    scale = np.abs(h).max(axis=(1, 2))
    asym = np.abs(h - h.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any((scale > 0) & (asym > SYMMETRY_RTOL * scale)):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc


def spd_solve_stack(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H_i x_i = b_i for every i given the stacked factors of the H_i.

    ``lower`` is an (n, d, d) stack from :func:`spd_factorize_stack`;
    ``b`` is (n, d), or (n, d, k) for k right-hand sides per matrix.
    Forward then backward substitution, each step vectorized over the
    agents; identity right-hand sides give the inverses. The substitution works on
    coordinate-major copies, the factors as (d, d, n) and the right-hand
    sides as (d, n[, k]), so row k of the copy holds coordinate k of every
    agent contiguously. The result is a fresh C-contiguous (n, d[, k])
    array.
    """
    b = np.asarray(b, dtype=float)
    if lower.ndim != 3 or b.ndim not in (2, 3) or b.shape[:2] != lower.shape[:2]:
        raise DimensionMismatch(
            f"right-hand sides have shape {b.shape}, factors are {lower.shape}"
        )
    lt = lower.transpose(1, 2, 0).copy()  # lt[i, j] is entry (i, j) of every factor
    if b.ndim == 3:
        lt = lt[..., None]  # broadcast over the k right-hand sides
    swap = (1, 0, 2)[:b.ndim]  # (n, d[, k]) <-> (d, n[, k])
    y = b.transpose(swap).copy()
    d = lt.shape[0]
    for k in range(d):  # L y = b, column-oriented
        y[k] /= lt[k, k]
        y[k + 1:] -= lt[k + 1:, k] * y[k]
    for k in reversed(range(d)):  # L' x = y
        y[k] /= lt[k, k]
        y[:k] -= lt[k, :k] * y[k]
    return y.transpose(swap).copy()


class _RowSparse:
    """A square n x n matrix as its stored entries: ``rows``, ``cols`` and ``vals``, sorted by row, then column.

    No position is stored twice, so the keys rows * n + cols ascend
    strictly in storage order (the constructor raises DimensionMismatch
    otherwise): ``transposed_values`` finds partners by ``searchsorted``
    over them, and every row sum adds its entries in column order. A
    stored entry may be 0, and a row may store none.
    ``of`` is the one conversion into this form. ``@`` takes an (n,)
    vector or an (n, d) stack: it gathers x at the stored columns, scales
    the gather by the values, and adds each row's products a_ij * x_j
    with one ``np.bincount`` over the keys r * d + k, for the entry's row
    r and the stack's column k. bincount adds each row left to right in
    column order from +0.0, so an empty row gives exact zeros, as a dense
    zero row does. The keys are kept for the last d seen, as one nnz * d
    int64 array.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
        keys = rows * n + cols
        if not (keys[1:] > keys[:-1]).all():
            raise DimensionMismatch("stored entries must be sorted by row, then column, with no position twice")
        self.rows, self.cols, self.vals, self.n = rows, cols, vals, n
        self._keys = np.zeros(0, dtype=np.int64)  # the bincount keys of __matmul__, for the last d

    @classmethod
    def of(cls, p) -> _RowSparse:
        """``p`` itself if it is a ``_RowSparse``, else the nonzeros of ``np.asarray(p, dtype=float)``.

        The array must be square. Its nonzeros come from one ``p != 0``
        scan, row-major: NaN is kept, -0.0 is not. Raises DimensionMismatch
        for any other shape, and for a ``p`` numpy cannot convert.
        """
        if isinstance(p, _RowSparse):
            return p
        try:
            p = np.asarray(p, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # a ragged list, a string
            raise DimensionMismatch(
                f"expected a square matrix, got a {type(p).__name__} numpy cannot convert: {exc}"
            ) from exc
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {p.shape}")
        rows, cols = np.nonzero(p != 0)  # booleans scan faster than floats
        return cls(rows, cols, p[rows, cols], len(p))

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n

    def transposed_values(self) -> np.ndarray:
        """The entry at (j, i) for each stored (i, j), in storage order; 0.0 where none is stored."""
        keys, wanted = self.rows * self.n + self.cols, self.cols * self.n + self.rows
        at = np.searchsorted(keys, wanted)
        at[np.concatenate((keys, [-1]))[at] != wanted] = len(keys)  # absent: the appended 0.0
        return np.concatenate((self.vals, [0.0]))[at]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:  # the (nnz, 1) values times an (nnz,) gather would broadcast to (nnz, nnz)
            return (self @ x[:, None])[:, 0]
        n, d = self.n, x.shape[1]
        if len(self._keys) != len(self.cols) * d:  # kept for another d; with no entries, any d fits
            self._keys = (self.rows[:, None] * d + np.arange(d)).ravel()
        # take gathers the rows about a quarter faster than x[self.cols]; the gather is
        # fresh, so it is scaled in place, which spares a second nnz * d array
        terms = x.take(self.cols, axis=0).astype(np.result_type(x, self.vals), copy=False)
        np.multiply(self.vals[:, None], terms, out=terms)
        return np.bincount(self._keys, terms.ravel(), minlength=n * d).reshape(n, d)


def second_singular_value(p: np.ndarray | _RowSparse) -> float:
    """Largest singular value of P - (1/n) * ones: the consensus contraction factor.

    For a doubly stochastic P this is the per-round shrink rate of the
    disagreement component; values below 1 certify mixing. Any square P
    gets a value (whether P is doubly stochastic is ``MixingMatrix``'s
    check); any other shape, or a ``p`` numpy cannot convert, raises
    DimensionMismatch. P is read as the triplets of ``_RowSparse.of(p)``.
    P - 11'/n is built once from them,
    with the bits of the dense ``p - 1/n``. If every triplet equals its
    transposed partner (0 where none is stored), P equals its transpose
    exactly, the projected matrix is symmetric and its largest singular
    value is its largest eigenvalue magnitude. A symmetric P that is also
    circulant, every row holding the same nonzero (offset, value) pairs
    as row 0 bit for bit, takes that magnitude from the closed-form
    eigenvalues of ``_circulant_sigma2`` and builds no n x n array;
    stored zeros do not count, so a sparse P and its dense form take the
    same path. Any other symmetric P takes max(|lambda_min|,
    |lambda_max|) from ``eigvalsh``. Any other matrix, including one
    symmetric only to within roundoff, gets a full SVD. A NaN or infinite
    entry gives NaN without a LAPACK call.
    """
    p = _RowSparse.of(p)
    if not np.isfinite(p.vals).all():
        return float("nan")
    symmetric = np.array_equal(p.vals, p.transposed_values())
    if symmetric:
        sigma2 = _circulant_sigma2(p)
        if sigma2 is not None:
            return sigma2
    projected = np.full(p.shape, -1.0 / p.n)
    projected[p.rows, p.cols] += p.vals  # -1/n + v is v - 1/n: the bits of p - 1/n
    if symmetric:
        w = np.linalg.eigvalsh(projected)  # ascending
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.svd(projected, compute_uv=False)[0])


def _circulant_sigma2(p: _RowSparse) -> float | None:
    """sigma2 of a symmetric P from its stored entries if P is circulant, else None.

    P is circulant when every row holds the same (offset, value) pairs
    as row 0, offset being (col - row) mod n. Only nonzeros count, so a
    stored 0 or -0.0 changes nothing; with zeros and NaN gone, ``==``
    compares bits. The check costs O(nnz log nnz).

    Row 0 of a circulant P holds c_j at offset j, and P - 11'/n has the
    eigenvalues lambda_k = sum_j c_j cos(2 pi (j k mod n) / n) for k >= 1
    and lambda_0 = sum_j c_j - 1. P is symmetric, so c_j = c_{n-j} and
    lambda_k = lambda_{n-k}: k runs to n // 2. j k is reduced mod n in
    int64 before scaling, which keeps every angle below 2 pi. The
    eigenvalues cost O(n w) for a row of w nonzeros.
    """
    n, nz = p.n, p.vals != 0
    rows, cols, vals = p.rows[nz], p.cols[nz], p.vals[nz]
    counts = np.bincount(rows, minlength=n)
    if not (counts == counts[0]).all():
        return None
    offsets = (cols - rows) % n
    order = np.argsort(rows * n + offsets)  # rows * n + offset < n^2 fits in int64 below MAX_NODES
    offsets, vals = offsets[order].reshape(n, -1), vals[order].reshape(n, -1)
    same = (offsets == offsets[0]) & (vals == vals[0])
    if not same.all():
        return None
    k = np.arange(n // 2 + 1)
    lam = np.cos((k[:, None] * offsets[0] % n) * (2 * np.pi / n)) @ vals[0]
    lam[0] -= 1.0
    return float(np.abs(lam).max())
