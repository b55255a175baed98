"""Dense-matrix primitives shared by all selection algorithms.

Matrices are plain float64 numpy arrays in column-major (Fortran) layout,
validated once at construction time by :func:`as_matrix`.  Column indices
are validated once too: public names check them with
:func:`check_column_set`, column blocks with :func:`check_blocks`, and
private kernels such as :func:`_projection_errors` trust their callers.
All operations here are pure functions of their inputs.

This module owns the projection error ``||T - P_S T||_F^2`` of a target
``T`` on a column set ``S``: :func:`reconstruction_error` (``T = A``), the
pipeline's errors, the CLI summaries and the relative-accuracy metric all
take it from :func:`_projection_errors`, which serves several targets from
one QR of the selection.  The brute-force oracles in
:mod:`colsel.baselines` keep their own ``lstsq`` route, so that they stay an
independent check on it.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

# A column whose residual against the columns before it falls to this
# fraction of its norm adds nothing to their span.  Greedy's pick and
# deactivation rules compare squared norms with it, so they stop a
# selection earlier, at a residual of 1e-6 of the norm: the basis of a
# set greedy picks keeps every column.  Scale-invariant.
RANK_TOLERANCE = 1e-12

# The energy form ||T||^2 - ||Q^T T||^2 of a projection error can lose about
# eps * m * ||T||^2 to rounding; when that bound exceeds this fraction of the
# computed error, the explicit residual is formed instead.  The bound is
# nearly attained for small m, so the fraction sits an order of magnitude
# below the 1e-10 relative accuracy the errors are meant to have.
_ENERGY_TOLERANCE = 1e-11

# Columns per block of the finite-entry check: its boolean mask holds one block.
_FINITE_BLOCK = 128


def all_finite(a: np.ndarray) -> bool:
    """The finite-entry rule: no NaN or Inf in the 2-D ``a``, checked in column blocks."""
    return all(np.isfinite(a[:, j:j + _FINITE_BLOCK]).all()
               for j in range(0, a.shape[1], _FINITE_BLOCK))


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
    a = np.asfortranarray(a)
    if not all_finite(a):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return a


def _is_int_type(t: type) -> bool:
    """The type rule of counts and indices: a Python or numpy int, but no bool."""
    return t is not bool and issubclass(t, (int, np.integer))


def check_column_set(columns: Sequence[int], n_cols: int) -> list[int]:
    """Validate global column indices as Python ints: integers, distinct, in ``[0, n_cols)``.

    Python and numpy ints of any width pass; floats, bools, strings, object
    arrays, repeats and indices out of range raise ValueError naming the
    first offender.  A list is checked by element type: numpy reads
    ``[True, 2]`` as ints.
    """
    if isinstance(columns, np.ndarray):
        if columns.ndim != 1 or columns.size and columns.dtype.kind not in "iu":
            raise ValueError(f"column indices must be 1-D integers, got {columns!r}")
        values = columns
    else:
        columns = list(columns)
        types = set(map(type, columns))
        strays = {t for t in types if not _is_int_type(t)}
        if strays:
            bad = next(i for i in columns if type(i) in strays)
            raise ValueError(f"column indices must be integers, got {bad!r}")
        values = np.array(columns)
        if values.dtype.kind not in "iu":  # ints past int64, or int64 with uint64
            values = np.array(columns, dtype=object)
    order = np.argsort(values, kind="stable")
    repeats = order[1:][values[order[1:]] == values[order[:-1]]]
    if repeats.size:
        raise ValueError(f"column indices must be distinct, {values[repeats.min()]} repeats")
    outside = (values < 0) | (values >= n_cols)
    if outside.any():
        raise ValueError(f"column index {values[outside][0]} out of range for {n_cols} columns")
    return values.astype(np.int64).tolist()


def check_blocks(blocks: Sequence[tuple], n_cols: int) -> list[list[int]]:
    """The block rule: ``(columns, global index map)`` pairs over distinct global columns.

    There is at least one block, and all have one row count.  Each block
    holds one column per index, and each map and their join pass
    :func:`check_column_set` for ``n_cols``.  Returns the maps as Python ints.
    """
    if not blocks:
        raise ValueError("at least one partition is required")
    m = np.shape(blocks[0][0])[0]
    maps = []
    for columns, indices in blocks:
        shape = np.shape(columns)
        if shape[0] != m:
            raise ValueError(f"inconsistent row counts across partitions: {shape[0]} != {m}")
        maps.append(check_column_set(indices, n_cols))
        if shape[1:] != (len(maps[-1]),):
            raise ValueError("partition block width does not match its index map")
    check_column_set(chain(*maps), n_cols)
    return maps


def column_norms_sq(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the columns, without an m x n temporary."""
    return np.einsum("ij,ij->j", a, a)


def frobenius_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.sum(column_norms_sq(a)))


def _orthonormal_basis(a: np.ndarray, cols: list[int]) -> np.ndarray:
    """Orthonormal basis Q for the span of the nonempty checked column set ``cols`` of ``a``.

    In a Householder QR of the columns, column j is dependent when
    ``|r_jj| <= RANK_TOLERANCE * ||a_j||``.  The first dependent column j
    is dropped with every later column whose residual against the columns
    before j, the norm of its rows from j on in R, is as small; then the
    rest are factored again.  Later flags are not trusted: the reflector
    of column j can claim a direction that a later, independent column
    needs.  Past the first m, columns are dependent once those m pass.
    Q has one column per kept column, none when all are dependent.
    """
    m = a.shape[0]
    while cols:
        sub = a[:, cols[:m]]
        q, r = np.linalg.qr(sub)
        norms = np.sqrt(column_norms_sq(sub))
        dependent = np.abs(np.diag(r)) <= RANK_TOLERANCE * norms
        if not dependent.any():
            return q
        j = int(dependent.argmax())
        kept = np.sqrt(column_norms_sq(r[j:, j:])) > RANK_TOLERANCE * norms[j:]
        cols = cols[:j] + [c for c, keep in zip(cols[j:m], kept) if keep] + cols[m:]
    return np.zeros((m, 0))


def _projection_errors(
    a: np.ndarray,
    columns: list[int],
    targets: Sequence[np.ndarray],
    energies: Sequence[float] | None = None,
) -> list[float]:
    """Squared Frobenius errors of the targets after projection onto the selected columns.

    One Householder QR of the selected columns gives Q for every target,
    and each error is the energy form ``||T||^2 - ||Q^T T||^2``, which
    costs one product Q^T T.  When its rounding bound ``eps * m * ||T||^2``
    is not small against the result, the explicit residual
    ``T - Q (Q^T T)`` is summed instead.  ``energies`` are the targets'
    ``||T||_F^2`` when the caller already has them.  ``columns`` must
    already have passed :func:`check_column_set`.  Dependent columns add
    nothing to the span (see :func:`_orthonormal_basis`), so every set has
    an error; the empty selection yields each ``||T||_F^2``.
    """
    if energies is None:
        energies = [frobenius_sq(target) for target in targets]
    if not columns:
        return list(energies)
    q = _orthonormal_basis(a, columns)
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
    return _projection_errors(a, check_column_set(columns, a.shape[1]), [a])[0]
