"""Evaluation metric, sampling baselines, and brute-force oracles.

The metric takes every projection error from the QR kernel that
:mod:`colsel.linalg` owns.  Only :func:`relative_accuracy` falls back to
``lstsq``, for dependent column sets such as uniform draws with repeated
columns.  The oracles recompute every quantity directly with dense
``lstsq`` projections and never call that kernel: they exist so the
recursive production paths, and the kernel itself, can be validated against
an independent route, and are guarded to test-scale inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .generalized import generalized_select
from .greedy import SelectionResult, greedy_select
from .linalg import (
    DegenerateBasisError,
    _projection_errors,
    check_column_set,
    column_norms_sq,
    frobenius_sq,
    randomized_svd,
)
from .seeds import derive_seed

__all__ = [
    "MetricUndefinedError",
    "evaluate_selection",
    "relative_accuracy",
    "uniform_select",
    "hybrid_select",
    "sketch_svd_select",
    "naive_greedy_oracle",
    "naive_generalized_oracle",
]

# Up to this size the best-rank error comes from a dense SVD; beyond it,
# from the eigenvalues of the smaller Gram matrix.
EXACT_SVD_LIMIT = 512

ORACLE_SIZE_LIMIT = 64

HYBRID_MODES = ("uniform", "column-norm", "svd-rows")


class MetricUndefinedError(ValueError):
    """Uniform sampling is already near-optimal; the relative metric is undefined."""


def _residual(a: np.ndarray, cols: list[int], target: np.ndarray) -> np.ndarray:
    """Residual of ``target`` after least-squares fit on selected columns."""
    if not cols:
        return target
    sub = a[:, cols]
    coef, *_ = np.linalg.lstsq(sub, target, rcond=None)
    return target - sub @ coef


def _lstsq_error(a: np.ndarray, cols: list[int], target: np.ndarray) -> float:
    """Squared residual of ``target`` after least-squares fit on selected columns."""
    return frobenius_sq(_residual(a, cols, target))


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


def uniform_select(n: int, l: int, seed: int) -> list[int]:
    """Uniform sample of ``l`` distinct column indices."""
    if l < 1 or l > n:
        raise ValueError(f"budget l must satisfy 1 <= l <= {n}, got {l}")
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(n, size=l, replace=False)]


def _tolerant_error(a: np.ndarray, cols: list[int], energy: float) -> float:
    """Projection error of ``a`` on ``cols``, also for dependent columns.

    Uniform draws can legitimately be linearly dependent (more columns
    than rows, or repeated columns); their span is still well-defined, so
    those few fall back to ``lstsq``.
    """
    try:
        return _projection_errors(a, cols, [a], [energy])[0]
    except DegenerateBasisError:
        return _lstsq_error(a, cols, a)


def _accuracy(
    a: np.ndarray, l: int, error: float, energy: float, uniform_trials: int, seed: int
) -> float:
    """Relative accuracy of a selection of ``l`` columns with squared error ``error``."""
    if l < 1:
        raise ValueError("selection must contain at least one column")
    if uniform_trials < 1:
        raise ValueError("uniform_trials must be >= 1")
    n = a.shape[1]
    rng = np.random.default_rng(seed)
    uniform_errors = []
    for _ in range(uniform_trials):
        subset = [int(i) for i in rng.choice(n, size=l, replace=False)]
        uniform_errors.append(math.sqrt(_tolerant_error(a, subset, energy)))
    err_uniform = float(np.mean(uniform_errors))
    err_best = best_rank_error(a, l)
    denom = err_uniform - err_best
    if denom <= 1e-12 * math.sqrt(energy):
        raise MetricUndefinedError(
            "uniform sampling matches the best rank approximation; "
            "the relative metric is undefined"
        )
    return 100.0 * (err_uniform - math.sqrt(error)) / denom


def relative_accuracy(
    a: np.ndarray, columns, uniform_trials: int = 10, seed: int = 0
) -> float:
    """Percent accuracy of a selection between uniform sampling (0) and SVD (100).

    Both numerator and denominator use Frobenius norms (not their squares).
    The uniform reference is the mean error over ``uniform_trials`` subsets
    drawn from a single stream seeded by ``seed``, so a one-trial call
    reproduces :func:`uniform_select` with the same seed.  Dependent
    columns, in the selection or in a uniform subset, are measured by the
    error of their span.
    """
    cols = check_column_set(columns, a.shape[1])
    energy = frobenius_sq(a)
    error = _tolerant_error(a, cols, energy)
    return _accuracy(a, len(cols), error, energy, uniform_trials, seed)


def hybrid_select(a: np.ndarray, l: int, probability_mode: str, seed: int) -> list[int]:
    """Two-phase selection: probabilistic over-sampling, then greedy reduction.

    The randomized phase samples ceil(l*ln(l)) distinct columns (capped at
    the column count) with the requested probabilities; the deterministic
    phase runs the greedy selection restricted to the sample.
    """
    m, n = a.shape
    if l < 2:
        raise ValueError("hybrid selection needs l >= 2 so the sample can exceed l")
    if l > n:
        raise ValueError(f"budget l must satisfy l <= {n}, got {l}")
    if probability_mode not in HYBRID_MODES:
        raise ValueError(
            f"unknown probability mode {probability_mode!r}, expected one of {HYBRID_MODES}"
        )
    sample_size = min(n, math.ceil(l * math.log(l)))
    rng = np.random.default_rng(derive_seed(seed, "hybrid-sample"))
    if probability_mode == "uniform":
        sampled = rng.choice(n, size=sample_size, replace=False)
    else:
        if probability_mode == "column-norm":
            mass = column_norms_sq(a)
        else:
            k = min(l, min(m, n))
            svd = randomized_svd(a, k, seed=derive_seed(seed, "hybrid-svd"))
            mass = np.sum(svd.v * svd.v, axis=1)
        total = float(mass.sum())
        if total <= 0.0:
            raise ValueError("sampling probabilities have zero total mass")
        probs = mass / total
        # sampling without replacement cannot pick zero-probability columns
        sample_size = min(sample_size, int(np.count_nonzero(probs)))
        sampled = rng.choice(n, size=sample_size, replace=False, p=probs)
    sampled = np.sort(sampled)
    restricted = greedy_select(a[:, sampled], min(l, sampled.size))
    return [int(sampled[j]) for j in restricted.indices]


def sketch_svd_select(a: np.ndarray, l: int, k: int, seed: int) -> list[int]:
    """Select columns that best reconstruct the leading singular directions.

    The target is the rank-``k`` factor U_k scaled by its singular values.
    """
    svd = randomized_svd(a, k, seed=derive_seed(seed, "sketch-svd"))
    target = svd.u * svd.singular_values
    return generalized_select(a, target, l).indices


def _check_oracle_scale(a: np.ndarray) -> None:
    m, n = a.shape
    if m > ORACLE_SIZE_LIMIT or n > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"oracle is restricted to matrices with m, n <= {ORACLE_SIZE_LIMIT}"
        )


def naive_greedy_oracle(a: np.ndarray, l: int) -> SelectionResult:
    """Reference greedy selection by explicit recomputation of every error.

    At each step evaluates the reconstruction error of every active
    candidate with a dense least-squares solve; ties within 1e-9 of the
    current error go to the smallest index.  A column is active while it is
    unselected and its residual norm squared exceeds 1e-12 of its initial
    one; the run stops as exhausted when no column is active.
    """
    _check_oracle_scale(a)
    n = a.shape[1]
    if l < 1 or l > n:
        raise ValueError(f"budget l must satisfy 1 <= l <= {n}, got {l}")
    den_init = np.sum(a * a, axis=0)
    selected: list[int] = []
    gains: list[float] = []
    current = frobenius_sq(a)
    exhausted = False
    for _ in range(l):
        res = _residual(a, selected, a)
        active = np.sum(res * res, axis=0) > 1e-12 * den_init
        active[selected] = False
        if not active.any():
            exhausted = True
            break
        remaining = [int(i) for i in np.flatnonzero(active)]
        errors = np.array([_lstsq_error(a, selected + [i], a) for i in remaining])
        best = errors.min()
        pos = next(j for j, err in enumerate(errors) if err <= best + 1e-9 * current)
        gains.append(current - float(errors[pos]))
        current = float(errors[pos])
        selected.append(remaining[pos])
    return SelectionResult(indices=selected, gains=gains, exhausted=exhausted)


def naive_generalized_oracle(a: np.ndarray, b: np.ndarray, l: int) -> SelectionResult:
    """Reference generalized selection, recomputing both residuals each step.

    Mirrors the production tie-break, deactivation and early-stop rules but
    evaluates the criterion from explicitly formed residual matrices.
    """
    _check_oracle_scale(a)
    if a.shape[0] != b.shape[0]:
        raise ValueError("source and target must have the same number of rows")
    n = a.shape[1]
    if l < 1 or l > n:
        raise ValueError(f"budget l must satisfy 1 <= l <= {n}, got {l}")
    den_init = np.sum(a * a, axis=0)
    target_energy = frobenius_sq(b)
    selected: list[int] = []
    gains: list[float] = []
    exhausted = False
    reconstructed = False
    for _ in range(l):
        res_a = _residual(a, selected, a)
        res_b = _residual(a, selected, b)
        den = np.sum(res_a * res_a, axis=0)
        cross = res_b.T @ res_a
        num = np.sum(cross * cross, axis=0)
        active = den > 1e-12 * den_init
        active[selected] = False
        if not active.any():
            exhausted = True
            break
        if num[active].max() <= 1e-12 * target_energy * den[active].max():
            reconstructed = True
            break
        ratio = np.where(active, num / np.where(den > 0, den, 1.0), -np.inf)
        pick = int(np.argmax(ratio))
        gains.append(float(num[pick] / den[pick]))
        selected.append(pick)
    return SelectionResult(
        indices=selected,
        gains=gains,
        exhausted=exhausted,
        target_reconstructed=reconstructed,
    )


def evaluate_selection(
    a: np.ndarray,
    indices,
    uniform_trials: int = 10,
    seed: int = 0,
) -> tuple[float, float]:
    """A selection's squared error and its relative accuracy, as ``(error, accuracy)``.

    Unlike :func:`relative_accuracy`, the selection's error is strict:
    dependent selected columns raise :class:`DegenerateBasisError`.
    """
    cols = check_column_set(indices, a.shape[1])
    energy = frobenius_sq(a)
    error = _projection_errors(a, cols, [a], [energy])[0]
    return error, _accuracy(a, len(cols), error, energy, uniform_trials, seed)
