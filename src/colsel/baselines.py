"""The selectors greedy is compared against, and a brute-force oracle.

Baselines: uniform sampling, the two-phase hybrid and SVD-guided
generalized selection, with the randomized SVD the last two use.  Every
draw is a draw of :func:`colsel.sketch.sample_columns`, and the SVD's
probe is a ``gaussian`` sketch.  The oracle recomputes every error with dense
``lstsq`` projections, never the QR kernel of :mod:`colsel.linalg`, and
computes no score, so the recursions, their stop rule and the kernel are
checked against an independent route.  One definition serves plain and
generalized selection: each step takes the candidate whose addition
leaves the smallest error of the target (``a`` itself for plain greedy),
and a separate target stops once no candidate lowers that error by more
than 1e-12 of its energy.  It is guarded to test-scale inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generalized import generalized_select
from .greedy import SelectionResult, _check_budget, greedy_select
from .linalg import _is_int_type, column_norms_sq, frobenius_sq
from .sketch import SketchSpec, derive_seed, sample_columns, sketch_matrix

ORACLE_SIZE_LIMIT = 64

HYBRID_MODES = ("uniform", "column-norm", "svd-rows")

# Extra probe columns and power iterations of :func:`randomized_svd`.
_OVERSAMPLE = 10
_POWER_ITERS = 2


@dataclass(frozen=True)
class SvdResult:
    """Truncated singular value decomposition, factors with orthonormal columns."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def randomized_svd(a: np.ndarray, k: int, seed: int = 0) -> SvdResult:
    """Randomized truncated SVD (range finder with power iterations).

    The range finder starts from the ``gaussian`` sketch of ``a`` with
    ``seed``, which passes the seed rule, so no probe matrix is held.  Used
    by the ``hybrid-svd`` and ``sketch-svd`` baselines; the evaluation
    metric takes its best-rank error from an exact decomposition.
    """
    m, n = a.shape
    if not _is_int_type(type(k)) or k < 1 or k > min(m, n):
        raise ValueError(f"rank k must satisfy 1 <= k <= {min(m, n)}, got {k}")
    width = min(k + _OVERSAMPLE, m, n)
    q, _ = np.linalg.qr(sketch_matrix(a, SketchSpec("gaussian", width, seed)))
    for _ in range(_POWER_ITERS):
        q, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ q)
    b = q.T @ a
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    return SvdResult(u=q @ u[:, :k], singular_values=s[:k].copy(), v=vt[:k].T.copy())


def uniform_select(n: int, l: int, seed: int) -> list[int]:
    """Uniform sample of ``l`` distinct column indices: draw 0 of ``seed``, in the order drawn."""
    _check_budget(l, n)
    return sample_columns(n, l, seed).tolist()


def hybrid_select(a: np.ndarray, l: int, probability_mode: str, seed: int) -> list[int]:
    """Two-phase selection: probabilistic over-sampling, then greedy reduction.

    The randomized phase samples ceil(l*ln(l)) distinct columns (capped at
    the column count) with the requested probabilities; the deterministic
    phase runs the greedy selection restricted to the sample.  A zero
    matrix gives no columns, as greedy does, also in column-norm mode,
    where it has no sampling mass.
    """
    n = a.shape[1]
    _check_budget(l, n)
    if l < 2:
        raise ValueError("hybrid selection needs l >= 2 so the sample can exceed l")
    if probability_mode not in HYBRID_MODES:
        raise ValueError(
            f"unknown probability mode {probability_mode!r}, expected one of {HYBRID_MODES}"
        )
    sample_size = math.ceil(l * math.log(l))  # the draw caps it at n
    mass = None
    if probability_mode == "column-norm":
        mass = column_norms_sq(a)
    elif probability_mode == "svd-rows":
        svd = randomized_svd(a, min(l, *a.shape), seed=derive_seed(seed, "hybrid-svd"))
        mass = np.sum(svd.v * svd.v, axis=1)
    if mass is not None and not mass.any():
        return []
    # a weighted draw never picks a zero-mass column, so it may draw fewer
    sampled = np.sort(sample_columns(n, sample_size, derive_seed(seed, "hybrid-sample"),
                                     weights=mass))
    restricted = greedy_select(a[:, sampled], min(l, sampled.size))
    return [int(sampled[j]) for j in restricted.indices]


def sketch_svd_select(a: np.ndarray, l: int, k: int | None, seed: int) -> list[int]:
    """Select columns that best reconstruct the leading singular directions.

    The target is the rank-``k`` factor U_k scaled by its singular values.
    The budget is checked first; ``k=None`` takes rank ``l``, capped at the
    smaller dimension of ``a``, as :func:`hybrid_select` does.
    """
    _check_budget(l, a.shape[1])
    k = min(l, *a.shape) if k is None else k
    svd = randomized_svd(a, k, seed=derive_seed(seed, "sketch-svd"))
    target = svd.u * svd.singular_values
    return generalized_select(a, target, l).indices


def _residual(a: np.ndarray, cols: list[int], target: np.ndarray) -> np.ndarray:
    """Residual of ``target`` after least-squares fit on selected columns."""
    if not cols:
        return target
    sub = a[:, cols]
    coef, *_ = np.linalg.lstsq(sub, target, rcond=None)
    return target - sub @ coef


def _naive_oracle(a: np.ndarray, b: np.ndarray | None, l: int) -> SelectionResult:
    """Reference selection by explicit recomputation of every error.

    Each step fits the target (``a`` when ``b`` is None) on the picks plus
    each active candidate with a dense least-squares solve and takes the
    candidate with the smallest error; ties within 1e-9 of the current
    error go to the smallest index.  A column is active while it is
    unselected and its residual norm squared exceeds 1e-12 of its initial
    one; the run stops as exhausted when no column is active.  A separate
    target, one that does not hold ``a``'s values, stops as reconstructed
    once no candidate lowers its error by more than 1e-12 of its energy.
    """
    if max(a.shape) > ORACLE_SIZE_LIMIT:
        raise ValueError(f"oracle is restricted to matrices with m, n <= {ORACLE_SIZE_LIMIT}")
    if b is not None and a.shape[0] != b.shape[0]:
        raise ValueError("source and target must have the same number of rows")
    _check_budget(l, a.shape[1])
    separate = b is not None and not np.array_equal(b, a)
    target = b if separate else a
    den_init = np.sum(a * a, axis=0)
    selected: list[int] = []
    gains: list[float] = []
    energy = current = frobenius_sq(target)
    for _ in range(l):
        res = _residual(a, selected, a)
        active = np.sum(res * res, axis=0) > 1e-12 * den_init
        active[selected] = False
        if not active.any():
            return SelectionResult(selected, gains, exhausted=True)
        remaining = [int(i) for i in np.flatnonzero(active)]
        errors = np.array([frobenius_sq(_residual(a, selected + [i], target)) for i in remaining])
        best = errors.min()
        if separate and current - best <= 1e-12 * energy:
            return SelectionResult(selected, gains, target_reconstructed=True)
        pos = next(j for j, err in enumerate(errors) if err <= best + 1e-9 * current)
        gains.append(current - float(errors[pos]))
        current = float(errors[pos])
        selected.append(remaining[pos])
    return SelectionResult(selected, gains)


def naive_greedy_oracle(a: np.ndarray, l: int) -> SelectionResult:
    """Reference greedy selection: :func:`_naive_oracle` with ``a`` as its own target."""
    return _naive_oracle(a, None, l)


def naive_generalized_oracle(a: np.ndarray, b: np.ndarray, l: int) -> SelectionResult:
    """Reference generalized selection: :func:`_naive_oracle` with target ``b``."""
    return _naive_oracle(a, b, l)
