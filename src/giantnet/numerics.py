"""Dense linear algebra helpers for small matrices.

Everything here is sized for desk-scale simulations (dimensions up to a
few hundred): Cholesky factorization of SPD matrices, triangular solves
that realize inverse-Hessian action (an inverse that is kept is a solve
against the identity; no inversion routine is called), and the spectral
quantity governing consensus contraction.

A Cholesky factor is a plain lower-triangular array: (d, d) from
``spd_factorize``, (n, d, d) from ``spd_factorize_stack``, and the solves
take it as it comes. The ``*_stack`` variants act on all agents at once:
one batched Cholesky call over an (n, d, d) stack, and substitution that
loops over the d coordinates while each step covers every agent.
Per-matrix LAPACK triangular solves cost a call per agent, which
dominates at n >= 100. The substitution runs coordinate-major: it copies
the factors to a C-contiguous (d, d, n) array and the right-hand sides
to (d, n[, k]), so every step reads and updates contiguous rows instead
of strided slices of the agent-major stacks. Each entry sees the same
operations in the same order as it would agent-major, so the results
are the same bits.

The consensus contraction factor sigma2 comes from the symmetric
eigensolver when the mixing matrix equals its transpose exactly, and
from a full SVD otherwise; a matrix with a NaN or infinite entry has
sigma2 NaN and reaches neither.

``is_integer``, ``is_real`` and ``is_finite_real`` are the type tests
every constructor applies to its scalar fields.

All functions are pure; returned arrays are fresh and never alias inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotStochastic, NotSymmetric

# Hessians of twice-differentiable objectives are analytically symmetric;
# looser inputs signal caller bugs rather than roundoff.
SYMMETRY_RTOL = 1e-10

STOCHASTIC_ATOL = 1e-9


def is_integer(value) -> bool:
    """True for Python and NumPy integers; a bool is a flag, not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for Python and NumPy real scalars (integers included, NaN too); never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """``is_real`` and finite as a float: no NaN, no infinity, no integer too large for a float."""
    try:
        return is_real(value) and math.isfinite(value)
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


def spd_factorize(h: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive definite matrix as L @ L.T.

    It is the one-matrix case of :func:`spd_factorize_stack`.

    Parameters
    ----------
    h : (d, d) array
        Symmetric matrix, e.g. a local Hessian. Symmetry is checked to
        ``SYMMETRY_RTOL`` relative tolerance.

    Returns
    -------
    (d, d) array
        The lower-triangular factor L, which :func:`spd_solve` takes.

    Raises
    ------
    DimensionMismatch
        If ``h`` is not square.
    NotSymmetric
        If ``h`` deviates from its transpose beyond the tolerance.
    NotPositiveDefinite
        If a pivot is non-positive, i.e. ``h`` is not positive definite.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    return spd_factorize_stack(h[None])[0]


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


def spd_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b given the lower Cholesky factor of H from :func:`spd_factorize`.

    ``b`` may be a vector of length d or a (d, k) matrix of stacked
    right-hand sides. It is the one-matrix case of :func:`spd_solve_stack`.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lower.shape[0]:
        raise DimensionMismatch(
            f"right-hand side has leading dimension {b.shape[0]}, factor is {lower.shape[0]}"
        )
    return spd_solve_stack(lower[None], b[None])[0]


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


def second_singular_value(p: np.ndarray, check: bool = True) -> float:
    """Largest singular value of P - (1/n) * ones: the consensus contraction factor.

    For a doubly stochastic P this is the per-round shrink rate of the
    disagreement component; values below 1 certify mixing. If P equals
    its transpose exactly, the projected matrix is symmetric and its
    largest singular value is its largest eigenvalue magnitude,
    max(|lambda_min|, |lambda_max|), taken from ``eigvalsh``. Any other
    matrix, including one symmetric only to within roundoff, gets a full
    SVD. A NaN or infinite entry gives NaN without a LAPACK call.

    Parameters
    ----------
    p : (n, n) array
        Mixing matrix.
    check : bool
        When true, require row and column sums to equal 1 within
        ``STOCHASTIC_ATOL`` and raise :class:`NotStochastic` otherwise,
        which every non-finite matrix fails. Validation code passes
        ``check=False`` to measure broken inputs.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {p.shape}")
    if check:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
            sums = np.concatenate([p.sum(axis=1), p.sum(axis=0)])
            dev = float(np.abs(sums - 1.0).max())
        if not dev <= STOCHASTIC_ATOL:  # NaN fails too
            raise NotStochastic(f"row/column sums deviate from 1 by {dev:.3e}")
    if not np.isfinite(p).all():
        return float("nan")
    projected = p - 1.0 / p.shape[0]
    if np.array_equal(p, p.T):
        w = np.linalg.eigvalsh(projected)  # ascending
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.svd(projected, compute_uv=False)[0])
