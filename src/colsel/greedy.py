"""Greedy column selection by Frobenius reconstruction error.

Selects columns one at a time, each step taking the candidate with the
largest error decrease.  The per-candidate scores are maintained by
rank-one recursions, so neither the residual matrix nor its inner-product
matrix is ever materialized.

This module owns the recursion and both its entry points.  Generalized
selection (:func:`generalized_select`) scores the source columns against
the residual of a separate target; plain greedy (:func:`greedy_select`) is
the case where the source is its own target.

The initial scores are the squared column norms of ``C = B^T A``
(``A^T A`` for plain greedy).  They come from ``C`` (2mnc flops) when its
c n entries number at most m (c + n), and otherwise from the Gram matrix
``G = B B^T`` (m^2 c flops) and its upper triangle (about m^2 n more), so
for plain greedy on an m x n matrix they cost O(m n min(m, n)).  The
rule compares entry counts, not flops.  The Gram form can lose a
score that is tiny next to ``||B||_F^2 ||a_i||^2``, as on badly scaled
inputs; every score whose rounding bound is not small against its value is
recomputed in the direct form.  Whichever of ``C`` and ``G`` was formed is
kept, and it decides how the steps run.

With ``C`` (the direct form), the steps work in column space, on factors
stacked so that each of their updates is one matrix-vector product.  For
plain greedy ``C`` is ``A^T A``: a step reads the picked column's Gram
column from it and never touches A.  Every 64 picks the stacked factors are
folded into ``C`` and the stack restarts.  The fold runs in place, one block
of 128 rows at a time: each diagonal block takes a symmetric product and the
rest of the block row is mirrored into the block column, so ``C`` stays
exactly symmetric by construction and no n x n temporary is formed.  The
folded ``C`` is the residual Gram matrix, and the scores restart from it,
so their subtractive recursion cannot drift for more than 64 picks.  A
step costs one pass over ``C`` plus O(64 n) flops, and the folds add n^2
flops per pick on average.  A separate c-column target keeps every factor,
because its Gram column comes from A: a step after k picks costs
2cn + 2mn + O(k (n + c)) flops.

With ``G`` (the Gram form, chosen when m is small next to n and c), the
steps work in row space on an orthonormal basis Q of the picks.  The new
pick's residual is orthogonalized against Q twice, which keeps it
orthogonal to rounding ("twice is enough": Giraud, Langou & Rozložník,
2005), and a step costs two passes over A plus O(m^2 + m k) flops.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import RANK_TOLERANCE, _is_int_type, column_norms_sq, frobenius_sq

# Row block height of the fold and of the Gram-form initial scores, and
# column block width of their direct-form redo.
_BLOCK = 128

# Column block width of the Gram-form initial scores (a 1 MiB product).
_SCORE_COLUMNS = 1024

# A Gram-form quantity is recomputed from the target itself when its
# a-posteriori rounding bound exceeds this fraction of the computed value.
_GRAM_TOLERANCE = 1e-8

# Plain greedy's column-space steps fold this many factor rows into C at
# once.  A fold costs little more for 64 rows than for 16 (2.6 against
# 1.9 ms on an 800 x 800 C, 2 cores), and each step reads at most this many.
_FOLD = 64

# When the best remaining gain falls this far below a separate target's
# total energy, no candidate lowers its error any more and selection stops.
EARLY_STOP_TOLERANCE = 1e-12


class ExhaustedError(RuntimeError):
    """No active candidate column is left that lowers the error."""


@dataclass
class SelectionState:
    """Mutable per-run state of the greedy selection.

    ``score_num[i] / score_den[i]`` is the decrease in reconstruction error
    obtained by selecting column ``i`` next.  Exactly one of ``bta`` and
    ``gram`` is set, by the form the initial scores took; their cost rule
    forms ``C = B^T A`` (``A^T A`` for plain greedy) only when its c n
    entries number at most m (c + n), as many as A and B hold together, and
    ``G = B B^T`` otherwise, which then holds m^2 floats, under half of A
    (see :func:`_cross_norms_sq` for their flops).

    With ``bta``, each pick leaves one n-wide factor row; the outer
    products of these rows sum to the explained part of the residual
    inner-product matrix, which is all the recursions need to stay
    consistent without storing residuals.  ``gram_factors`` holds the
    ``stacked`` rows not yet folded into ``bta``, and ``cross_factors``
    mirrors them in the target's column space (``None`` without a target).
    For plain greedy ``bta`` is ``A^T A``, and every 64 rows are folded
    into it, so that it holds ``A^T A`` less their outer products.  The
    fold updates ``bta`` in place, block row by block row, and keeps it
    exactly symmetric by construction: a step costs one pass over ``bta``
    plus O(64 n) flops, and a fold every 64 picks costs 64 n^2 flops.  A
    separate c-column target folds nothing, and a step after k picks costs
    2cn + 2mn + O(k (n + c)) flops.

    With ``gram``, ``basis`` is a k x m array whose orthonormal rows span
    the selected columns, and the factors stay empty.  A step after k picks
    makes two passes over A and costs O(m^2 + m k) flops besides.

    The factors and the basis are views of row buffers that double when
    full.  A pick must gain more than ``min_gain``: ``EARLY_STOP_TOLERANCE``
    times a separate target's energy, and ``-inf`` without one.
    """

    score_num: np.ndarray
    score_den: np.ndarray
    den_init: np.ndarray
    active: np.ndarray
    bta: np.ndarray | None
    gram: np.ndarray | None
    gram_buffer: np.ndarray
    cross_buffer: np.ndarray | None
    basis_buffer: np.ndarray
    min_gain: float
    stacked: int = 0
    selected: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)

    @property
    def gram_factors(self) -> np.ndarray:
        return self.gram_buffer[: self.stacked]

    @property
    def cross_factors(self) -> np.ndarray | None:
        if self.cross_buffer is None:
            return None
        return self.cross_buffer[: self.stacked]

    @property
    def basis(self) -> np.ndarray:
        return self.basis_buffer[: len(self.selected)]

    def deactivate_spent(self) -> None:
        # A candidate whose residual squared norm fell below this fraction of
        # its original one would divide by a vanishing denominator.
        self.active &= self.score_den > RANK_TOLERANCE * self.den_init


def _gram_rounding(gram: np.ndarray) -> float:
    """eps * m * tr(G): bounds the rounding in ``x . G x`` per unit ``||x||^2``."""
    return np.finfo(gram.dtype).eps * gram.shape[0] * np.trace(gram)


def _cross_norms_sq(
    a: np.ndarray, b: np.ndarray, den: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Squared norms of the columns of ``b.T @ a``, with ``b.T @ a`` or ``b @ b.T``.

    ``den`` holds the squared column norms of ``a``.  With ``a`` m x n and
    ``b`` m x c, the direct form ``b.T @ a`` (2mnc flops) is taken when its
    c n entries number at most m (c + n); otherwise the Gram form takes
    ``G = b b.T`` (m^2 c flops) and ``a_i . G a_i`` (about m^2 n).  The
    matrix formed is returned in the second (direct) or third (Gram) place.
    The Gram form can lose a score that is tiny next to
    ``||b||_F^2 ||a_i||^2``; such scores are recomputed in the direct form.
    """
    m, n = a.shape
    c = b.shape[1]
    if c * n <= m * (c + n):
        cross = b.T @ a
        return column_norms_sq(cross), cross, None
    out = np.zeros(n)
    gram = b @ b.T
    # x . G x = x . (D + 2U) x, with D the diagonal of G and U its strict
    # upper triangle.  A block of rows of D + 2U meets only the trailing
    # rows of x, so k row blocks cost (1 + 1/k) m^2 n flops, not 2 m^2 n.
    upper = np.triu(gram, 1)
    upper *= 2.0
    np.fill_diagonal(upper, np.diagonal(gram))
    for start in range(0, n, _SCORE_COLUMNS):
        cols = a[:, start:start + _SCORE_COLUMNS]
        acc = out[start:start + _SCORE_COLUMNS]
        for top in range(0, m, _BLOCK):
            rows = slice(top, top + _BLOCK)
            acc += np.einsum("ij,ij->j", cols[rows], upper[rows, top:] @ cols[top:])
    bound = _gram_rounding(gram) * den
    redo = np.flatnonzero(bound > _GRAM_TOLERANCE * out)
    for start in range(0, redo.size, _BLOCK):
        idx = redo[start:start + _BLOCK]
        out[idx] = column_norms_sq(b.T @ a[:, idx])
    return out, None, gram


def init_state(a: np.ndarray, b: np.ndarray | None = None) -> SelectionState:
    """Initial scores: num from the correlations with the target, den from column norms.

    Without a target ``b`` the source ``a`` is its own target.  Only nonzero
    columns start active, so a zero matrix is exhausted at its first step.
    """
    if b is not None and a.shape[0] != b.shape[0]:
        raise ValueError(
            f"row mismatch: source has {a.shape[0]} rows, target has {b.shape[0]}"
        )
    den = column_norms_sq(a)
    num, bta, gram = _cross_norms_sq(a, a if b is None else b, den)
    return SelectionState(
        score_num=num,
        score_den=den,
        den_init=den.copy(),
        active=den > 0.0,
        bta=bta,
        gram=gram,
        gram_buffer=np.empty((0, a.shape[1])),
        cross_buffer=None if b is None else np.empty((0, b.shape[1])),
        basis_buffer=np.empty((0, a.shape[0])),
        min_gain=-np.inf if b is None else EARLY_STOP_TOLERANCE * frobenius_sq(b),
    )


def _put_row(buffer: np.ndarray, k: int, row: np.ndarray) -> np.ndarray:
    """Store ``row`` as row ``k`` of ``buffer``, doubling the buffer when full."""
    if k == buffer.shape[0]:
        grown = np.empty((max(1, 2 * k), buffer.shape[1]))
        grown[:k] = buffer
        buffer = grown
    buffer[k] = row
    return buffer


def _pick(
    state: SelectionState, pivot_of: Callable[[int], tuple[float, np.ndarray]]
) -> tuple[int, float, np.ndarray]:
    """Take the best active candidate whose pivot is not negligible, and record its gain.

    ``pivot_of(p)`` returns candidate ``p``'s squared residual norm against
    the current selection and the vector it came from; both are returned
    with ``p``.  This is the one place that decides a selection ends: it
    raises :class:`ExhaustedError` once no active candidate's gain exceeds
    ``state.min_gain``, which also covers none being active.
    """
    # Inactive candidates may divide by zero; their ratios are masked out.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = state.score_num / state.score_den
    np.putmask(ratio, ~state.active, -np.inf)
    while ratio.max(initial=-np.inf) > state.min_gain:
        p = int(ratio.argmax())
        pivot, vec = pivot_of(p)
        if pivot > RANK_TOLERANCE * state.den_init[p]:
            state.gains.append(float(ratio[p]))
            return p, pivot, vec
        # The recursion kept the column's denominator above the tolerance,
        # but the column is numerically dependent on the current selection.
        state.active[p] = False
        ratio[p] = -np.inf
    raise ExhaustedError("no active candidate column lowers the error")


def _update_scores(state: SelectionState, w: np.ndarray, corr: np.ndarray, vv: float) -> None:
    """Take a pick's factor ``w`` out of the scores, in place; ``corr`` is overwritten.

    ``score_num`` loses ``2 w corr - vv w^2`` and ``score_den`` loses
    ``w^2``, elementwise.  Doubling is exact, so ``(2 corr) w`` rounds
    like ``(2 w) corr``.
    """
    corr *= 2.0
    corr *= w
    state.score_num -= corr
    np.multiply(w, w, out=corr)
    state.score_den -= corr
    corr *= vv
    state.score_num += corr


def _fold(bta: np.ndarray, stack: np.ndarray) -> None:
    """``bta -= stack.T @ stack`` in place, one ``_BLOCK``-row block at a time.

    A diagonal block takes ``blk.T @ blk`` of one array, which is numpy's
    symmetric product; the rest of the block row is one product, copied
    transposed into the block column.  ``bta`` stays exactly symmetric, and
    no temporary is larger than one block row.
    """
    n = bta.shape[0]
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        blk = stack[:, start:stop]
        bta[start:stop, start:stop] -= blk.T @ blk
        if stop < n:
            bta[start:stop, stop:] -= blk.T @ stack[:, stop:]
            bta[stop:, start:stop] = bta[start:stop, stop:].T


def _column_space_step(state: SelectionState, a: np.ndarray, b: np.ndarray | None) -> int:
    """One step on the stacked factors and the kept ``C``."""
    w = state.gram_factors
    bta = state.bta
    # Only plain greedy's C is A^T A less the folded factors.  Any target
    # passed here, ``a`` itself included, is separate and keeps every factor.
    plain = b is None

    def gram_col(p: int) -> tuple[float, np.ndarray]:
        # That C is symmetric: its contiguous row p is column p.
        col = (bta[p] if plain else a.T @ a[:, p]) - w.T @ w[:, p]
        return col[p], col

    p, pivot, col = _pick(state, gram_col)
    scale = np.sqrt(pivot)
    w_new = col / scale
    if plain:
        v, v_new = w, w_new
        corr = bta @ v_new
    else:
        v = state.cross_factors
        v_new = (bta[:, p] - v.T @ w[:, p]) / scale
        corr = bta.T @ v_new
    corr -= w.T @ (v @ v_new)
    _update_scores(state, w_new, corr, v_new @ v_new)

    k = state.stacked
    state.gram_buffer = _put_row(state.gram_buffer, k, w_new)
    if not plain:
        state.cross_buffer = _put_row(state.cross_buffer, k, v_new)
    state.stacked = k + 1
    if plain and state.stacked == _FOLD:
        _fold(bta, state.gram_buffer[:_FOLD])
        state.stacked = 0
        # C is now the residual Gram matrix E^T E: restart the scores from it.
        state.score_num[:] = column_norms_sq(bta)
        state.score_den[:] = np.diagonal(bta)
    return p


def _row_space_step(state: SelectionState, a: np.ndarray, t: np.ndarray) -> int:
    """One step on the basis Q of the picks and the kept ``G = T T^T``.

    With u the new basis vector, ``w = A^T u`` and ``T^T u`` are the factors
    the column-space step stores, and ``A^T (I - Q^T Q) G u`` its
    correlations, so both steps update the scores alike.
    """
    q = state.basis
    gram = state.gram

    def residual(p: int) -> tuple[float, np.ndarray]:
        r = a[:, p] - q.T @ (q @ a[:, p])
        r -= q.T @ (q @ r)
        return r @ r, r

    p, pivot, r = _pick(state, residual)
    u = r / np.sqrt(pivot)
    g = gram @ u
    vv = u @ g
    # The initial scores' redo rule: G has lost this direction to rounding.
    if _gram_rounding(gram) > _GRAM_TOLERANCE * vv:
        tu = t.T @ u
        g = t @ tu
        vv = tu @ tu
    # Two matrix-vector products read A faster than one with two columns.
    w = a.T @ u
    corr = a.T @ (g - q.T @ (q @ g))
    _update_scores(state, w, corr, vv)
    state.basis_buffer = _put_row(state.basis_buffer, len(state.selected), u)
    return p


def select_next(state: SelectionState, a: np.ndarray, b: np.ndarray | None = None) -> int:
    """Select the best remaining column and update all candidate scores.

    ``b`` must be the target the state was initialized with, if any.
    Returns the selected column index.  Ties are broken toward the
    smallest index (argmax returns the first maximum).  A candidate whose
    recomputed pivot is negligible is deactivated and the next best one is
    taken.  :class:`ExhaustedError` is raised once no active gain exceeds
    ``state.min_gain``, where :func:`generalized_select` stops too.  The
    pick that brings the count to the number of rows of ``a`` deactivates
    every candidate: m independent picks span every column, and rounding
    in the score recursion could otherwise let one more through.
    """
    if (b is None) != (state.cross_buffer is None):
        raise ValueError("select_next needs the same target that init_state was given")
    if state.gram is None:
        p = _column_space_step(state, a, b)
    else:
        p = _row_space_step(state, a, a if b is None else b)
    state.selected.append(p)
    state.active[p] = False
    state.deactivate_spent()
    if len(state.selected) == a.shape[0]:
        state.active[:] = False
    return p


@dataclass(frozen=True)
class SelectionResult:
    """Selected column indices in selection order, with per-step error decreases."""

    indices: list[int]
    gains: list[float]
    exhausted: bool = False
    target_reconstructed: bool = False


def _check_budget(l: int, n: int) -> None:
    """Reject a budget that is no Python or numpy int (a bool is none), below 1 or past ``n``."""
    if not _is_int_type(type(l)) or l < 1 or l > n:
        raise ValueError(f"budget l must satisfy 1 <= l <= {n}, got {l}")


def _select(a: np.ndarray, b: np.ndarray | None, l: int) -> SelectionResult:
    """The selection loop shared by plain and generalized selection.

    Steps until ``l`` picks or until :func:`_pick` ends the selection.
    Fewer picks with active candidates left mean a separate target that is
    reconstructed, or whose rest lies outside the columns' span; with none
    left, exhaustion.  A target that holds the source's values, the same
    array or a copy, is no separate target: it runs as plain greedy, whose
    ``min_gain`` of ``-inf`` cannot end it early on badly scaled inputs.
    The loop trusts ``l``: each public selector checks it.
    """
    if b is not None and np.array_equal(b, a):
        b = None
    state = init_state(a, b)
    with suppress(ExhaustedError):
        for _ in range(l):
            select_next(state, a, b)
    ended = len(state.selected) < l
    left = bool(state.active.any())
    return SelectionResult(
        indices=list(state.selected),
        gains=list(state.gains),
        exhausted=ended and not left,
        target_reconstructed=ended and left,
    )


def greedy_select(a: np.ndarray, l: int) -> SelectionResult:
    """Greedily select ``l`` columns of ``a`` minimizing reconstruction error.

    If the matrix runs out of independent columns early, the result holds
    fewer indices and the exhausted flag is set; indices are never padded.
    """
    _check_budget(l, a.shape[1])
    return _select(a, None, l)


def generalized_select(a: np.ndarray, b: np.ndarray, l: int) -> SelectionResult:
    """Select ``l`` columns of ``a`` that best reconstruct the columns of ``b``.

    Stops early, with ``target_reconstructed`` set, once no candidate lowers
    the error by more than 1e-12 of ``||b||_F^2``, where :func:`select_next`
    on ``b`` raises ``ExhaustedError``: ``b`` is reconstructed, or what is
    left of it lies outside the columns' span.
    """
    _check_budget(l, a.shape[1])
    return _select(a, b, l)
