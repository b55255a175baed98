"""The relative-accuracy metric and the best rank-l error it measures against.

Every projection error comes from the QR kernel of :mod:`colsel.linalg`,
dependent column sets included: their error is the error of their span.
The uniform trials are draws of :func:`colsel.sketch.sample_columns`.  No
selector is imported here; the baselines are in :mod:`colsel.baselines`.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _is_int_type, _projection_errors, check_column_set, frobenius_sq
from .sketch import sample_columns

# Up to this size the best-rank error comes from a dense SVD; beyond it,
# from the eigenvalues of the smaller Gram matrix.
EXACT_SVD_LIMIT = 512

# Outside this range of ||A||_F^2 the metric scales A by a power of two.
# Inside it, A's entries and its Gram's stay far from the thresholds where
# LAPACK's SVD and eigensolvers rescale by factors that are not powers of
# two, so the metric of 2**k * A is the metric of A, bit for bit.
_ENERGY_RANGE = (2.0**-400, 2.0**400)


class MetricUndefinedError(ValueError):
    """Uniform sampling is already near-optimal; the relative metric is undefined."""


def best_rank_error(a: np.ndarray, rank: int, seed: int = 0) -> float:
    """Frobenius error of the best rank-``rank`` approximation.

    Up to EXACT_SVD_LIMIT from the singular values of a dense SVD; beyond
    it from the eigenvalues of the smaller Gram matrix (AAᵀ or AᵀA), which
    are exact to rounding but square the conditioning, so that tail
    eigenvalues below about eps·‖A‖₂² are lost.  Both are deterministic;
    ``seed`` is accepted for compatibility and unused.
    """
    m, n = a.shape
    if rank >= min(m, n):
        return 0.0
    if min(m, n) <= EXACT_SVD_LIMIT:
        s = np.linalg.svd(a, compute_uv=False)
        return float(np.sqrt(np.sum(s[rank:] ** 2)))
    gram = a @ a.T if m <= n else a.T @ a
    # ascending, so the tail is the first min(m, n) - rank eigenvalues
    tail = np.linalg.eigvalsh(gram)[: min(m, n) - rank]
    return float(np.sqrt(np.sum(np.maximum(tail, 0.0))))


def evaluate_selection(
    a: np.ndarray, indices, uniform_trials: int = 10, seed: int = 0
) -> tuple[float, float]:
    """A selection's squared error and its relative accuracy, as ``(error, accuracy)``.

    See :func:`relative_accuracy` for the metric.  When ||A||_F^2 leaves
    ``_ENERGY_RANGE``, the metric runs on a copy of A scaled by a power of
    two, and the error is scaled back.
    """
    cols = check_column_set(indices, a.shape[1])
    if not cols:
        raise ValueError("selection must contain at least one column")
    if not _is_int_type(type(uniform_trials)) or uniform_trials < 1:
        raise ValueError("uniform_trials must be >= 1")
    with np.errstate(over="ignore"):
        energy = frobenius_sq(a)
    shift = 0
    if not _ENERGY_RANGE[0] <= energy <= _ENERGY_RANGE[1]:
        # the largest magnitude moves into [1, 2)
        shift = math.frexp(max(a.max(), -a.min()))[1] - 1
        a = np.ldexp(a, -shift)
        energy = frobenius_sq(a)
    error = _projection_errors(a, cols, [a], [energy])[0]
    n, l = a.shape[1], len(cols)
    uniform_errors = []
    for trial in range(uniform_trials):
        subset = sample_columns(n, l, seed, trial).tolist()
        uniform_errors.append(math.sqrt(_projection_errors(a, subset, [a], [energy])[0]))
    err_uniform = float(np.mean(uniform_errors))
    err_best = best_rank_error(a, l)
    denom = err_uniform - err_best
    if denom <= 1e-12 * math.sqrt(energy):
        raise MetricUndefinedError("uniform sampling matches the best rank approximation; "
                                   "the relative metric is undefined")
    accuracy = 100.0 * (err_uniform - math.sqrt(error)) / denom
    # Python floats: an error past the float range is inf, without a warning
    return error * 2.0**shift * 2.0**shift, accuracy


def relative_accuracy(a: np.ndarray, columns, uniform_trials: int = 10, seed: int = 0) -> float:
    """Percent accuracy of a selection between uniform sampling (0) and SVD (100).

    Both numerator and denominator use Frobenius norms (not their squares).
    The uniform reference is the mean error over ``uniform_trials`` subsets:
    trial t is draw t of ``seed``, so a one-trial call reproduces
    :func:`colsel.baselines.uniform_select` (draw 0) with the same seed.
    It is the accuracy that :func:`evaluate_selection` returns.
    """
    return evaluate_selection(a, columns, uniform_trials, seed)[1]
