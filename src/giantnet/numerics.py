"""Dense linear algebra helpers for small matrices.

Everything here is sized for desk-scale simulations (dimensions up to a
few hundred): Cholesky factorization of SPD matrices, triangular solves
that realize inverse-Hessian action without ever forming an inverse, and
the spectral quantity governing consensus contraction.

The ``*_stack`` variants act on all agents at once: one batched Cholesky
call over an (n, d, d) stack, and substitution that loops over the d
coordinates while each step covers every agent. Per-matrix LAPACK
triangular solves cost a call per agent, which dominates at n >= 100.

All functions are pure; returned arrays are fresh and never alias inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotStochastic, NotSymmetric

# Hessians of twice-differentiable objectives are analytically symmetric;
# looser inputs signal caller bugs rather than roundoff.
SYMMETRY_RTOL = 1e-10

STOCHASTIC_ATOL = 1e-9


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""

    lower: np.ndarray

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        return spd_solve(self, b)


def spd_factorize(h: np.ndarray) -> SpdFactorization:
    """Factor a symmetric positive definite matrix as L @ L.T.

    Parameters
    ----------
    h : (d, d) array
        Symmetric matrix, e.g. a local Hessian. Symmetry is checked to
        ``SYMMETRY_RTOL`` relative tolerance.

    Returns
    -------
    SpdFactorization

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
    scale = np.abs(h).max()
    if scale > 0 and np.abs(h - h.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        lower = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    return SpdFactorization(lower)


def spd_factorize_stack(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an (n, d, d) stack of SPD matrices.

    Each matrix gets the checks of :func:`spd_factorize`; the factors come
    from one batched call. Raises NotSymmetric or NotPositiveDefinite if
    any matrix of the stack fails, DimensionMismatch on a bad shape.
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


def spd_solve(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """Solve H x = b given the Cholesky factorization of H.

    ``b`` may be a vector of length d or a (d, k) matrix of stacked
    right-hand sides. It is the one-matrix case of :func:`spd_solve_stack`.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.dimension:
        raise DimensionMismatch(
            f"right-hand side has leading dimension {b.shape[0]}, factor is {f.dimension}"
        )
    return spd_solve_stack(f.lower[None], b[None])[0]


def spd_solve_stack(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H_i x_i = b_i for every i given the stacked factors of the H_i.

    ``lower`` is an (n, d, d) stack from :func:`spd_factorize_stack`;
    ``b`` is (n, d), or (n, d, k) for k right-hand sides per matrix.
    Forward then backward substitution, each step vectorized over the
    agents; the inverse is never formed.
    """
    x = np.array(b, dtype=float)
    if lower.ndim != 3 or x.ndim not in (2, 3) or x.shape[:2] != lower.shape[:2]:
        raise DimensionMismatch(
            f"right-hand sides have shape {x.shape}, factors are {lower.shape}"
        )
    cols = x.reshape(x.shape[0], x.shape[1], -1)  # a view: updates land in x
    d = lower.shape[1]
    for k in range(d):  # L y = b, column-oriented
        cols[:, k] /= lower[:, k, k, None]
        cols[:, k + 1:] -= lower[:, k + 1:, k, None] * cols[:, k, None]
    for k in reversed(range(d)):  # L' x = y
        cols[:, k] /= lower[:, k, k, None]
        cols[:, :k] -= lower[:, k, :k, None] * cols[:, k, None]
    return x


def second_singular_value(p: np.ndarray, check: bool = True) -> float:
    """Largest singular value of P - (1/n) * ones: the consensus contraction factor.

    For a doubly stochastic P this is the per-round shrink rate of the
    disagreement component; values below 1 certify mixing. Computed by a
    full SVD of the projected matrix, which is fine at simulation scale.

    Parameters
    ----------
    p : (n, n) array
        Mixing matrix.
    check : bool
        When true, require row and column sums to equal 1 within
        ``STOCHASTIC_ATOL`` and raise :class:`NotStochastic` otherwise.
        Validation code passes ``check=False`` to measure broken inputs.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {p.shape}")
    if check:
        row_dev = np.abs(p.sum(axis=1) - 1.0).max()
        col_dev = np.abs(p.sum(axis=0) - 1.0).max()
        if max(row_dev, col_dev) > STOCHASTIC_ATOL:
            raise NotStochastic(
                f"row/column sums deviate from 1 by {max(row_dev, col_dev):.3e}"
            )
    n = p.shape[0]
    projected = p - 1.0 / n
    return float(np.linalg.svd(projected, compute_uv=False)[0])
