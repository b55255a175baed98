"""Dense-matrix primitives shared by all selection algorithms.

Matrices are plain float64 numpy arrays in column-major (Fortran) layout,
validated once at construction time by :func:`as_matrix`.  All operations
here are pure functions of their inputs.

This module owns the projection error ``||T - P_S T||_F^2`` of a target
``T`` on a column set ``S``: :func:`reconstruction_error` (``T = A``), the
pipeline's errors, the CLI summaries and the relative-accuracy metric all
take it from :func:`_projection_errors`, which serves several targets from
one QR of the selection.  The brute-force oracles in
:mod:`colsel.evaluate` keep their own ``lstsq`` route, so that they stay an
independent check on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DegenerateBasisError",
    "SvdResult",
    "as_matrix",
    "check_column_set",
    "column_norms_sq",
    "frobenius_sq",
    "orthonormal_basis",
    "reconstruction_error",
    "randomized_svd",
]

# A basis column whose residual against the previously orthogonalized
# columns falls below this fraction of its original norm is treated as
# linearly dependent.  Scale-invariant; the greedy module's
# candidate-deactivation rule uses it too.
RANK_TOLERANCE = 1e-12

# The energy form ||T||^2 - ||Q^T T||^2 of a projection error can lose about
# eps * m * ||T||^2 to rounding; when that bound exceeds this fraction of the
# computed error, the explicit residual is formed instead.  The bound is
# nearly attained for small m, so the fraction sits an order of magnitude
# below the 1e-10 relative accuracy the errors are meant to have.
_ENERGY_TOLERANCE = 1e-11

# Extra probe columns and power iterations of :func:`randomized_svd`.
_OVERSAMPLE = 10
_POWER_ITERS = 2


class DegenerateBasisError(ValueError):
    """Selected columns are numerically rank deficient."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(
            "columns %s are numerically dependent on the other selected columns"
            % (self.indices,)
        )


def as_matrix(values) -> np.ndarray:
    """Validate and convert input to a float64, column-major 2-D array.

    This is the single checkpoint for entry validation: rejects empty
    shapes and non-finite entries so downstream operations can assume
    clean data.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim}-D input")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be at least 1x1, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return np.asfortranarray(a)


def check_column_set(columns: Sequence[int], n_cols: int) -> list[int]:
    """Validate a column index set: integer, distinct, within range."""
    out = [int(i) for i in columns]
    if len(set(out)) != len(out):
        raise ValueError(f"column indices must be distinct, got {out}")
    for i in out:
        if i < 0 or i >= n_cols:
            raise ValueError(f"column index {i} out of range for {n_cols} columns")
    return out


def column_norms_sq(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the columns, without an m x n temporary."""
    return np.einsum("ij,ij->j", a, a)


def frobenius_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.sum(column_norms_sq(a)))


def orthonormal_basis(a: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Orthonormal basis Q for the span of the selected columns of ``a``.

    Raises :class:`DegenerateBasisError` naming the offending indices when
    the selected columns are numerically rank deficient.
    """
    cols = check_column_set(columns, a.shape[1])
    if not cols:
        raise ValueError("cannot build a basis from an empty column set")
    sub = a[:, cols]
    m = a.shape[0]
    if len(cols) > m:
        raise DegenerateBasisError(cols[m:])
    q, r = np.linalg.qr(sub)
    col_norms = np.sqrt(column_norms_sq(sub))
    diag = np.abs(np.diag(r))
    bad = np.flatnonzero(diag <= RANK_TOLERANCE * col_norms)
    if bad.size:
        raise DegenerateBasisError([cols[j] for j in bad])
    return q


def _projection_errors(
    a: np.ndarray,
    columns: Sequence[int],
    targets: Sequence[np.ndarray],
    energies: Sequence[float] | None = None,
) -> list[float]:
    """Squared Frobenius errors of the targets after projection onto the selected columns.

    One Householder QR of the selected columns gives Q for every target,
    and each error is the energy form ``||T||^2 - ||Q^T T||^2``, which
    costs one product Q^T T.  When its rounding bound ``eps * m * ||T||^2``
    is not small against the result, the explicit residual
    ``T - Q (Q^T T)`` is summed instead.  ``energies`` are the targets'
    ``||T||_F^2`` when the caller already has them.  Raises
    :class:`DegenerateBasisError` when the selected columns are numerically
    rank deficient; the empty selection yields each ``||T||_F^2``.
    """
    if energies is None:
        energies = [frobenius_sq(target) for target in targets]
    if not check_column_set(columns, a.shape[1]):
        return list(energies)
    q = orthonormal_basis(a, columns)
    errors = []
    for target, energy in zip(targets, energies):
        qt = q.T @ target
        error = energy - frobenius_sq(qt)
        if np.finfo(np.float64).eps * a.shape[0] * energy > _ENERGY_TOLERANCE * error:
            error = frobenius_sq(target - q @ qt)
        errors.append(error)
    return errors


def reconstruction_error(a: np.ndarray, columns: Sequence[int]) -> float:
    """Squared Frobenius error of ``a`` after projection onto the selected columns.

    The empty selection yields the squared Frobenius norm of ``a``.
    """
    return _projection_errors(a, columns, [a])[0]


@dataclass(frozen=True)
class SvdResult:
    """Truncated singular value decomposition, factors with orthonormal columns."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def randomized_svd(a: np.ndarray, k: int, seed: int = 0) -> SvdResult:
    """Randomized truncated SVD (range finder with power iterations).

    Deterministic for a fixed seed.  Used by the ``hybrid-svd`` and
    ``sketch-svd`` baselines; the evaluation metric takes its best-rank
    error from an exact decomposition.
    """
    m, n = a.shape
    if k < 1 or k > min(m, n):
        raise ValueError(f"rank k must satisfy 1 <= k <= {min(m, n)}, got {k}")
    rng = np.random.default_rng(seed)
    width = min(k + _OVERSAMPLE, min(m, n))
    probe = rng.standard_normal((n, width))
    q, _ = np.linalg.qr(a @ probe)
    for _ in range(_POWER_ITERS):
        q, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ q)
    b = q.T @ a
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    return SvdResult(
        u=q @ u[:, :k], singular_values=s[:k].copy(), v=vt[:k].T.copy()
    )
