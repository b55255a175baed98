import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from colsel import (
    as_matrix,
    frobenius_sq,
    greedy_select,
    init_state,
    naive_greedy_oracle,
    reconstruction_error,
    select_next,
)
from colsel.greedy import ExhaustedError, SelectionState
from instances import badly_scaled_wide, random_matrix, rank_deficient_matrix


def direct_scores(a, selected):
    """Oracle: candidate scores recomputed from the explicit residual."""
    if selected:
        sub = a[:, selected]
        coef, *_ = np.linalg.lstsq(sub, a, rcond=None)
        residual = a - sub @ coef
    else:
        residual = a
    gram = residual.T @ residual
    return np.sum(gram * gram, axis=0), np.diag(gram).copy()


def test_init_state_identity():
    state = init_state(as_matrix(np.eye(2)))
    assert_allclose(state.score_num, [1.0, 1.0])
    assert_allclose(state.score_den, [1.0, 1.0])
    assert state.active.all()


def test_init_state_duplicate_columns_symmetric():
    a = as_matrix(np.column_stack([[1.0, 2.0], [1.0, 2.0], [3.0, -1.0]]))
    state = init_state(a)
    assert state.score_num[0] == state.score_num[1]
    assert state.score_den[0] == state.score_den[1]


def test_init_state_matches_direct_gram():
    a = random_matrix(6, 4, seed=15)
    state = init_state(a)
    gram = a.T @ a
    assert_allclose(state.score_num, np.sum(gram * gram, axis=0), rtol=1e-10)
    assert_allclose(state.score_den, np.diag(gram), rtol=1e-10)


@pytest.mark.parametrize(
    "a", [random_matrix(10, 45, seed=16), badly_scaled_wide()], ids=["wide", "badly-scaled-wide"]
)
def test_init_state_wide_matches_per_column_norms(a):
    state = init_state(a)
    num = [np.sum((a.T @ a[:, i]) ** 2) for i in range(a.shape[1])]
    assert_allclose(state.score_num, num, rtol=1e-12)
    assert_allclose(state.score_den, np.sum(a * a, axis=0), rtol=1e-12)


def test_init_state_rejects_zero_matrix():
    with pytest.raises(ValueError, match="no nonzero columns"):
        init_state(as_matrix(np.zeros((3, 3))))


def test_select_next_orthogonal_columns_largest_norm_first():
    a = as_matrix(np.diag([2.0, 5.0, 3.0]))
    state = init_state(a)
    assert select_next(state, a) == 1
    assert select_next(state, a) == 2
    assert select_next(state, a) == 0


def test_select_next_deactivates_duplicates():
    a = as_matrix(np.column_stack([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]))
    state = init_state(a)
    p = select_next(state, a)
    assert p == 0
    assert state.score_den[1] <= 1e-9 * state.den_init[1]
    assert not state.active[1]


def test_select_next_exhausted_error():
    a = as_matrix(np.eye(2))
    state = init_state(a)
    select_next(state, a)
    select_next(state, a)
    with pytest.raises(ExhaustedError):
        select_next(state, a)


def test_select_next_repicks_after_negligible_pivot():
    # A spent duplicate that the scores wrongly keep active is deactivated
    # once its pivot is recomputed, and the next best column is taken.
    a = as_matrix(np.column_stack([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]))
    state = init_state(a)
    assert select_next(state, a) == 0
    state.active[1] = True
    state.score_num[1], state.score_den[1] = 1e6, 1.0
    assert select_next(state, a) == 2
    assert not state.active[1]
    state.active[1] = True
    state.score_den[1] = 1.0
    with pytest.raises(ExhaustedError):
        select_next(state, a)
    assert state.selected == [0, 2]
    assert not state.active.any()


def test_greedy_select_reports_exhausted_after_negligible_pivot(monkeypatch):
    # The hook re-activates the spent duplicate after the first step, so the
    # second step meets its negligible pivot with nothing else left.
    deactivate_spent = SelectionState.deactivate_spent

    def keep_duplicate_active(state):
        deactivate_spent(state)
        state.active[1] = True
        state.score_den[1] = state.den_init[1]

    monkeypatch.setattr(SelectionState, "deactivate_spent", keep_duplicate_active)
    a = as_matrix(np.column_stack([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]]))
    res = greedy_select(a, 2)
    assert res.indices == [0]
    assert res.exhausted


def test_select_next_sequence_matches_naive_recompute():
    a = random_matrix(8, 12, seed=44)
    state = init_state(a)
    for _ in range(4):
        num, den = direct_scores(a, state.selected)
        ratio = np.where(state.active, num / np.maximum(den, 1e-300), -np.inf)
        expected = int(np.argmax(ratio))
        assert select_next(state, a) == expected


def test_greedy_select_tie_break_is_index_order():
    res = greedy_select(as_matrix(np.eye(3)), 3)
    assert res.indices == [0, 1, 2]
    assert not res.exhausted


def test_greedy_select_rank_one_exhausts():
    a = as_matrix(np.outer(np.arange(1.0, 5.0), [1.0, -2.0, 0.5]))
    res = greedy_select(a, 3)
    assert len(res.indices) == 1
    assert res.exhausted


def test_greedy_select_matches_oracle():
    a = random_matrix(20, 30, seed=3)
    res = greedy_select(a, 5)
    oracle = naive_greedy_oracle(a, 5)
    assert res.indices == oracle.indices
    assert reconstruction_error(a, res.indices) == pytest.approx(
        reconstruction_error(a, oracle.indices), rel=1e-9
    )


@pytest.mark.parametrize("m, n", [(10, 45), (6, 60)])
def test_greedy_select_wide_matches_oracle(m, n):
    a = random_matrix(m, n, seed=m + n)
    assert greedy_select(a, 5).indices == naive_greedy_oracle(a, 5).indices


def test_greedy_select_badly_scaled_wide():
    # The large columns come first; the small ones, orthogonal to them, then
    # follow in the order greedy picks them on their own.
    k = 4
    a = badly_scaled_wide(k=k)
    res = greedy_select(a, k + 3)
    assert res.indices[:k] == naive_greedy_oracle(a, k).indices
    small = greedy_select(as_matrix(a[:, k:]), 3)
    assert res.indices[k:] == [k + i for i in small.indices]
    assert not res.exhausted


def test_greedy_select_keeps_small_independent_columns():
    res = greedy_select(as_matrix(np.diag([1e6, 1e-3, 1.0])), 3)
    assert res.indices == [0, 2, 1]
    assert not res.exhausted


@pytest.mark.parametrize("seed", range(8))
def test_score_consistency_and_telescoping(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(6, 20, size=2)
    a = random_matrix(int(m), int(n), seed=seed + 100)
    scale = frobenius_sq(a)
    state = init_state(a)
    steps = min(5, min(m, n) - 1)
    error = reconstruction_error(a, [])
    for t in range(steps):
        select_next(state, a)
        num, den = direct_scores(a, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)
        assert np.all(state.score_den >= -1e-9 * state.den_init)
        assert len(state.selected) == len(state.gram_factors)
        assert not state.active[state.selected].any()
        new_error = reconstruction_error(a, state.selected)
        assert abs(new_error - (error - state.gains[t])) <= 1e-8 * scale
        assert new_error <= error + 1e-9 * scale
        error = new_error


@pytest.mark.parametrize("m, n", [(90, 60), (50, 120)], ids=["tall", "wide"])
def test_step_paths_match_oracle_through_buffer_growth(m, n):
    # Tall inputs keep C = A^T A from the initial scores and stack n-wide
    # factors; wide ones keep G = A A^T and an m-wide basis of the picks.
    # A twin state swapped to the other path must take the same picks.  45
    # steps grow the buffers from empty to 64 rows.
    a = random_matrix(m, n, seed=m + n)
    state = init_state(a)
    direct = n < m
    assert (state.bta is not None) == direct
    assert (state.gram is None) == direct
    twin = init_state(a)
    twin.bta, twin.gram = (None, a @ a.T) if direct else (a.T @ a, None)
    for _ in range(45):
        p = select_next(state, a)
        assert select_next(twin, a) == p
        num, den = direct_scores(a, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)
        assert_allclose(twin.score_num[act], num[act], rtol=1e-8)
    column_space, row_space = (state, twin) if direct else (twin, state)
    assert column_space.gram_factors.shape == (45, n)
    assert column_space.basis.shape == (0, m)
    assert row_space.basis.shape == (45, m)
    assert row_space.gram_factors.shape == (0, n)
    assert state.cross_factors is None


@pytest.mark.parametrize(
    "m, n, steps", [(200, 150, 140), (400, 300, 200)], ids=["two-folds", "three-folds"]
)
def test_column_space_steps_fold_factors_into_c(m, n, steps):
    # A tall input keeps C = A^T A, and every 64 picks its stacked factors
    # are folded into C, 128 rows at a time, and the stack restarts.  The
    # steps cross two or three folds, the wider C spans two full row blocks
    # and a remainder, and the row-space twin, which folds nothing, must take
    # the same picks.
    a = random_matrix(m, n, seed=31)
    state = init_state(a)
    assert state.bta is not None
    twin = init_state(a)
    twin.bta, twin.gram = None, a @ a.T
    for k in range(1, steps + 1):
        p = select_next(state, a)
        assert select_next(twin, a) == p
        assert np.array_equal(state.bta, state.bta.T)
        assert len(state.gram_factors) == k % 64
        assert state.gram_buffer.shape[0] <= 64
        num, den = direct_scores(a, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)


def test_tall_greedy_select_memory_peak_is_c_and_one_block_row():
    # Two folds update C in place, 128 rows at a time: besides C the run
    # holds at most one 128-row block, the 64-row factor stack and a few
    # n-vectors (about 10 measured, 32 allowed).  Folding through a whole
    # stack^T stack would hold a second n x n array.
    m, n = 600, 500
    a = random_matrix(m, n, seed=5)
    tracemalloc.start()
    try:
        res = greedy_select(a, 140)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.indices) == 140
    assert peak <= 8 * n * (n + 128 + 64 + 32)


@pytest.mark.parametrize("m, n", [(40, 20), (20, 60)], ids=["tall", "wide"])
def test_zero_and_duplicate_columns_pick_without_warnings(m, n):
    # The pick divides the whole score vector, so the zero column and a spent
    # duplicate divide by zero: that must neither warn nor win the pick.
    a = random_matrix(m, n, seed=m + n)
    a[:, 3] = 0.0
    a[:, 7] = a[:, 5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = greedy_select(a, min(m, n))
    assert 3 not in res.indices
    assert not {5, 7} <= set(res.indices)
    assert len(res.indices) == min(m, n) - (2 if m > n else 0)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_equivalence_small(seed):
    rng = np.random.default_rng(seed + 50)
    m, n = int(rng.integers(8, 32)), int(rng.integers(8, 32))
    a = random_matrix(m, n, seed=seed + 500)
    l = min(6, min(m, n))
    assert greedy_select(a, l).indices == naive_greedy_oracle(a, l).indices


def test_exact_cover_termination():
    a = rank_deficient_matrix(12, 10, rank=4, seed=7)
    res = greedy_select(a, 8)
    assert len(res.indices) == 4
    assert res.exhausted
    assert reconstruction_error(a, res.indices) <= 1e-9 * frobenius_sq(a)


def test_budget_validation():
    a = random_matrix(4, 3, seed=0)
    with pytest.raises(ValueError):
        greedy_select(a, 0)
    with pytest.raises(ValueError):
        greedy_select(a, 4)
