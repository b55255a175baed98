import numpy as np
import pytest
from numpy.testing import assert_allclose

from colsel import (
    as_matrix,
    frobenius_sq,
    generalized_init,
    generalized_select,
    greedy_select,
    init_state,
    naive_generalized_oracle,
    select_next,
)
from instances import random_matrix


def target_error(a, cols, b):
    if not cols:
        return frobenius_sq(b)
    sub = a[:, cols]
    coef, *_ = np.linalg.lstsq(sub, b, rcond=None)
    return frobenius_sq(b - sub @ coef)


def direct_generalized_scores(a, b, selected):
    """Oracle: scores from explicitly formed source and target residuals."""
    if selected:
        sub = a[:, selected]
        coef_a, *_ = np.linalg.lstsq(sub, a, rcond=None)
        coef_b, *_ = np.linalg.lstsq(sub, b, rcond=None)
        res_a, res_b = a - sub @ coef_a, b - sub @ coef_b
    else:
        res_a, res_b = a, b
    cross = res_b.T @ res_a
    return np.sum(cross * cross, axis=0), np.sum(res_a * res_a, axis=0)


def test_init_with_self_target_equals_plain_init():
    a = random_matrix(6, 5, seed=1)
    gen = generalized_init(a, a)
    plain = init_state(a)
    assert np.array_equal(gen.score_num, plain.score_num)
    assert np.array_equal(gen.score_den, plain.score_den)
    assert np.array_equal(gen.active, plain.active)
    with pytest.raises(ValueError, match="same target"):
        select_next(gen, a)
    with pytest.raises(ValueError, match="same target"):
        select_next(plain, a, a)


def test_init_zero_target_zeroes_scores():
    a = random_matrix(4, 3, seed=2)
    state = generalized_init(a, as_matrix(np.zeros((4, 2))))
    assert_allclose(state.score_num, 0.0)


def test_init_matches_direct_product():
    a = random_matrix(6, 5, seed=3)
    b = random_matrix(6, 3, seed=4)
    state = generalized_init(a, b)
    cross = b.T @ a
    assert_allclose(state.score_num, np.sum(cross * cross, axis=0), rtol=1e-10)


def test_wide_target_gram_branch_matches_direct_and_oracle():
    # c * n > m * (c + n): the initial scores take the Gram form b @ b.T.
    a = random_matrix(10, 40, seed=33)
    b = random_matrix(10, 30, seed=34)
    num, den = direct_generalized_scores(a, b, [])
    state = generalized_init(a, b)
    assert_allclose(state.score_num, num, rtol=1e-10)
    assert_allclose(state.score_den, den, rtol=1e-10)
    assert generalized_select(a, b, 5).indices == naive_generalized_oracle(a, b, 5).indices


def test_init_rejects_row_mismatch():
    with pytest.raises(ValueError, match="row mismatch"):
        generalized_init(random_matrix(4, 3, seed=0), random_matrix(5, 2, seed=1))


def test_reduction_to_plain_greedy_is_exact():
    for seed in range(8):
        a = random_matrix(10, 13, seed=seed + 60)
        gen = generalized_select(a, a, 6)
        plain = greedy_select(a, 6)
        assert gen.indices == plain.indices
        assert gen.gains == plain.gains


def test_reduction_to_plain_greedy_is_exact_on_tall_input():
    # n < m: both runs keep C = A^T A and read their Gram columns from it.
    for seed in range(4):
        a = random_matrix(30, 20, seed=seed + 70)
        assert init_state(a).bta is not None
        gen = generalized_select(a, a, 15)
        plain = greedy_select(a, 15)
        assert gen.indices == plain.indices
        assert gen.gains == plain.gains


@pytest.mark.parametrize(
    "m, n, c", [(60, 80, 20), (60, 200, 150)], ids=["direct-keeps-bta", "gram-form"]
)
def test_step_paths_match_oracle_through_buffer_growth(m, n, c):
    # c * n <= m * (c + n): the direct form keeps C = B^T A and the steps
    # read the cross columns and correlations from it.  Otherwise the Gram
    # form keeps no C.  A twin state on the other path must take the same
    # picks.  45 steps grow the factor buffers from empty to 64 rows.
    a = random_matrix(m, n, seed=m + n)
    b = random_matrix(m, c, seed=m + c + 1)
    kept = c * n <= m * (c + n)
    state = generalized_init(a, b)
    assert (state.bta is not None) == kept
    twin = generalized_init(a, b)
    twin.bta = None if kept else b.T @ a
    for _ in range(45):
        p = select_next(state, a, b)
        assert select_next(twin, a, b) == p
        num, den = direct_generalized_scores(a, b, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)
        assert_allclose(twin.score_num[act], num[act], rtol=1e-8)
    assert state.gram_factors.shape == (45, n)
    assert state.cross_factors.shape == (45, c)


def test_single_column_target_selects_that_column():
    a = random_matrix(9, 7, seed=12)
    b = as_matrix(a[:, [4]].copy())
    res = generalized_select(a, b, 1)
    assert res.indices == [4]


def test_zero_target_stops_immediately():
    a = random_matrix(5, 4, seed=6)
    res = generalized_select(a, as_matrix(np.zeros((5, 2))), 3)
    assert res.indices == []
    assert res.target_reconstructed


def test_matches_naive_oracle_and_final_error():
    a = random_matrix(10, 14, seed=31)
    b = random_matrix(10, 6, seed=32)
    res = generalized_select(a, b, 4)
    oracle = naive_generalized_oracle(a, b, 4)
    assert res.indices == oracle.indices
    got = target_error(a, res.indices, b)
    want = target_error(a, oracle.indices, b)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_generalized_score_consistency_and_telescoping(seed):
    a = random_matrix(11, 15, seed=seed + 200)
    b = random_matrix(11, 5, seed=seed + 300)
    scale = frobenius_sq(b)
    state = generalized_init(a, b)
    from colsel.generalized import _select_next_generalized

    error = target_error(a, [], b)
    for t in range(4):
        _select_next_generalized(state, a, b)
        num, den = direct_generalized_scores(a, b, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)
        new_error = target_error(a, state.selected, b)
        assert abs(new_error - (error - state.gains[t])) <= 1e-8 * scale
        assert new_error <= error + 1e-9 * scale
        error = new_error


def test_early_stop_when_target_inside_small_span():
    # target lies in the span of two source columns; remaining budget unused
    rng = np.random.default_rng(5)
    a = random_matrix(8, 6, seed=9)
    b = as_matrix(a[:, [1, 3]] @ rng.standard_normal((2, 4)))
    res = generalized_select(a, b, 5)
    assert res.target_reconstructed
    assert 2 <= len(res.indices) <= 3
    assert target_error(a, res.indices, b) <= 1e-9 * frobenius_sq(b)
