import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from colsel.greedy import EARLY_STOP_TOLERANCE, ExhaustedError
from colsel.linalg import RANK_TOLERANCE
from instances import badly_scaled_wide, lstsq_error, random_matrix


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


def test_step_api_self_target_keeps_separate_target_arithmetic():
    # The step API takes b = a as a separate target: its column-space steps
    # keep every factor, and stay exact.
    a = random_matrix(60, 40, seed=40)
    state = generalized_init(a, a)
    assert state.bta is not None
    for _ in range(30):
        select_next(state, a, a)
    assert state.cross_factors.shape == (30, 40)
    assert state.selected == greedy_select(a, 30).indices
    num, _ = direct_generalized_scores(a, a, state.selected)
    act = state.active
    assert_allclose(state.score_num[act], num[act], rtol=0, atol=1e-13 * num[act].max())


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


def test_flags_match_the_oracle_past_the_row_count():
    # l = n > m: the m-th pick spans the column space and leaves no candidate,
    # so the run is exhausted, not reconstructed.  The picks themselves may
    # differ from the oracle's at the rank-th tie.
    a, b = random_matrix(11, 22, seed=45), random_matrix(11, 6, seed=52)
    got = generalized_select(a, b, 22)
    want = naive_generalized_oracle(a, b, 22)
    assert (got.exhausted, got.target_reconstructed) == (want.exhausted, want.target_reconstructed)
    assert (got.exhausted, got.target_reconstructed) == (True, False)


def test_reduction_to_plain_greedy_is_exact():
    # The badly scaled inputs would trip a separate target's energy stop
    # after the 4 large columns; a target that holds the source's values,
    # the same array or a copy, runs as plain greedy and takes all 10 picks.
    inputs = [(random_matrix(10, 13, seed=seed + 60), 6) for seed in range(8)]
    inputs += [(badly_scaled_wide(seed=seed), 10) for seed in range(8, 14)]
    for a, l in inputs:
        plain = greedy_select(a, l)
        for target in (a, a.copy()):
            gen = generalized_select(a, target, l)
            assert gen.indices == plain.indices
            assert gen.gains == plain.gains
            assert (gen.exhausted, gen.target_reconstructed) == (plain.exhausted, False)
            assert len(gen.indices) == l


def test_reduction_to_plain_greedy_is_exact_on_tall_input():
    # n < m: both runs keep C = A^T A and read their Gram columns from it.
    for seed in range(4):
        a = random_matrix(30, 20, seed=seed + 70)
        assert init_state(a).bta is not None
        gen = generalized_select(a, a, 15)
        plain = greedy_select(a, 15)
        assert gen.indices == plain.indices
        assert gen.gains == plain.gains


def test_self_target_folds_like_plain_greedy():
    # 140 steps cross two folds of the stacked factors into C = A^T A, which
    # a target that is the source itself must make as plain greedy does.  A
    # separate target's C = B^T A folds nothing: its factors keep every row.
    a = random_matrix(200, 150, seed=32)
    gen = generalized_select(a, a, 140)
    plain = greedy_select(a, 140)
    assert gen.indices == plain.indices
    assert gen.gains == plain.gains
    b = random_matrix(200, 100, seed=33)
    state = generalized_init(a, b)
    assert state.bta is not None
    for _ in range(100):
        select_next(state, a, b)
    assert state.gram_factors.shape == (100, 150)
    assert state.cross_factors.shape == (100, 100)
    num, den = direct_generalized_scores(a, b, state.selected)
    act = state.active
    assert_allclose(state.score_num[act], num[act], rtol=1e-8)
    assert_allclose(state.score_den[act], den[act], rtol=1e-8)


@pytest.mark.parametrize(
    "m, n, c", [(60, 80, 20), (60, 200, 150)], ids=["direct-keeps-bta", "gram-form"]
)
def test_step_paths_match_oracle_through_buffer_growth(m, n, c):
    # c * n <= m * (c + n): the direct form keeps C = B^T A, and the steps
    # stack n- and c-wide factors and read the cross columns and
    # correlations from C.  Otherwise the Gram form keeps G = B B^T and the
    # steps keep an m-wide basis of the picks.  A twin state swapped to the
    # other path must take the same picks.  45 steps grow the buffers from
    # empty to 64 rows.
    a = random_matrix(m, n, seed=m + n)
    b = random_matrix(m, c, seed=m + c + 1)
    kept = c * n <= m * (c + n)
    state = generalized_init(a, b)
    assert (state.bta is not None) == kept
    assert (state.gram is None) == kept
    twin = generalized_init(a, b)
    twin.bta, twin.gram = (None, b @ b.T) if kept else (b.T @ a, None)
    for _ in range(45):
        p = select_next(state, a, b)
        assert select_next(twin, a, b) == p
        num, den = direct_generalized_scores(a, b, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)
        assert_allclose(twin.score_num[act], num[act], rtol=1e-8)
    column_space, row_space = (state, twin) if kept else (twin, state)
    assert column_space.gram_factors.shape == (45, n)
    assert column_space.cross_factors.shape == (45, c)
    assert column_space.basis.shape == (0, m)
    assert row_space.basis.shape == (45, m)
    assert row_space.gram_factors.shape == (0, n)
    assert row_space.cross_factors.shape == (0, c)


@pytest.mark.parametrize("seed", range(6))
def test_badly_scaled_gram_form_target_matches_oracle(seed):
    # The target mixes the 1e6-norm columns down by 1e-3 and the 1e-3-norm
    # ones up by 1e3.  c * n > m * (c + n), so the scores take the Gram form
    # B B^T, which loses the small block's directions to rounding; the steps
    # must then form G u from B itself.
    a = badly_scaled_wide(seed=8 + seed)
    rng = np.random.default_rng(seed)
    b = as_matrix(np.hstack([
        a[:, :4] @ rng.standard_normal((4, 20)) * 1e-3,
        a[:, 4:] @ rng.standard_normal((60, 20)) * 1e3,
    ]))
    assert generalized_init(a, b).gram is not None
    assert generalized_select(a, b, 10).indices == naive_generalized_oracle(a, b, 10).indices


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
    got = lstsq_error(a, res.indices, b)
    want = lstsq_error(a, oracle.indices, b)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_generalized_score_consistency_and_telescoping(seed):
    a = random_matrix(11, 15, seed=seed + 200)
    b = random_matrix(11, 5, seed=seed + 300)
    scale = frobenius_sq(b)
    state = generalized_init(a, b)
    from colsel.generalized import _select_next_generalized

    error = lstsq_error(a, [], b)
    for t in range(4):
        _select_next_generalized(state, a, b)
        num, den = direct_generalized_scores(a, b, state.selected)
        act = state.active
        assert_allclose(state.score_num[act], num[act], rtol=1e-8)
        assert_allclose(state.score_den[act], den[act], rtol=1e-8)
        new_error = lstsq_error(a, state.selected, b)
        assert abs(new_error - (error - state.gains[t])) <= 1e-8 * scale
        assert new_error <= error + 1e-9 * scale
        error = new_error


def test_step_api_stops_where_generalized_select_stops():
    # Column 0 reconstructs the target, and columns 1 and 2 gain nothing: the
    # second step ends the selection instead of taking a zero gain.
    a = as_matrix(np.eye(4)[:, :3])
    b = as_matrix(np.eye(4)[:, :1])
    state = init_state(a, b)
    assert select_next(state, a, b) == 0
    with pytest.raises(ExhaustedError):
        select_next(state, a, b)
    res = generalized_select(a, b, 3)
    assert res.target_reconstructed
    assert (state.selected, state.gains) == (res.indices, res.gains) == ([0], [1.0])


def test_early_stop_when_target_inside_small_span():
    # target lies in the span of two source columns; remaining budget unused
    rng = np.random.default_rng(5)
    a = random_matrix(8, 6, seed=9)
    b = as_matrix(a[:, [1, 3]] @ rng.standard_normal((2, 4)))
    res = generalized_select(a, b, 5)
    assert res.target_reconstructed
    assert 2 <= len(res.indices) <= 3
    assert lstsq_error(a, res.indices, b) <= 1e-9 * frobenius_sq(b)


@st.composite
def gram_form_cases(draw):
    """(a, b) whose initial scores take the Gram form; b is None for plain greedy.

    Plain greedy needs n > 2m, and a c-column target c n > m (c + n), which
    every c >= 2m meets once n > 2m.
    """
    kind = draw(st.sampled_from(["rank-deficient", "duplicate-column", "badly-scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(4, 16))
    n = draw(st.integers(2 * m + 1, 4 * m))
    k = draw(st.integers(1, m - 1))
    if kind == "rank-deficient":
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    elif kind == "duplicate-column":
        base = rng.standard_normal((m, n - n // 2))
        a = np.hstack([base, base[:, : n // 2]])
    else:
        # k columns of norm 1e6 to 2e6, the rest of norm 1e-3 and orthogonal to them
        a = badly_scaled_wide(m=m, n=n, k=k, seed=int(rng.integers(1000)))
    if not draw(st.booleans()):
        return as_matrix(a), None
    c = draw(st.integers(2 * m, 3 * m))
    if kind == "badly-scaled":
        # as in the regression test above: G loses the small block's directions
        b = np.hstack([
            a[:, :k] @ rng.standard_normal((k, c // 2)) * 1e-3,
            a[:, k:] @ rng.standard_normal((n - k, c - c // 2)) * 1e3,
        ])
    else:
        b = a @ rng.standard_normal((n, c))
    if draw(st.booleans()):
        b = b + rng.standard_normal((m, c)) * np.linalg.norm(b) / np.sqrt(m * c)
    return as_matrix(a), as_matrix(b)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gram_form_cases())
def test_gram_path_matches_direct_twin_and_oracle(case):
    # The row-space steps on G pick as a twin swapped to the column-space
    # steps on C does, and as the explicit residuals do, until they run out
    # of independent columns.  Picks may differ only where the explicit
    # residuals tie: between duplicate columns, and once one residual
    # direction is left, where every candidate gains the same.
    a, b = case
    t = a if b is None else b
    state = init_state(a, b)
    assert state.gram is not None
    twin = init_state(a, b)
    twin.bta, twin.gram = t.T @ a, None
    energy = frobenius_sq(t)
    eps = np.finfo(np.float64).eps
    num, den = direct_generalized_scores(a, t, [])
    for k in range(1, a.shape[1] + 1):
        act = state.active
        if b is not None and np.any(act) and (
            state.score_num[act].max() <= EARLY_STOP_TOLERANCE * energy * state.score_den[act].max()
        ):
            break  # the early stop of generalized_select
        ratio = np.full(a.shape[1], -np.inf)
        live = den > RANK_TOLERANCE * state.den_init
        live[state.selected] = False
        ratio[live] = num[live] / den[live]
        try:
            p = select_next(state, a, b)
        except ExhaustedError:
            # Only once every remaining column is spent.  The twin is not
            # stepped on: its pivot comes from the recursion and can still
            # accept a dependent column here.
            assert np.all(den[live] <= 1e-8 * state.den_init[live])
            break
        q = select_next(twin, a, b)
        best = ratio.max()
        assert np.isfinite(best)
        assert ratio[p] >= (1.0 - 1e-8) * best
        assert q == p or ratio[q] >= (1.0 - 1e-8) * best
        num, den = direct_generalized_scores(a, t, state.selected)
        act = state.active
        # The subtractive updates leave about k m eps of the scores' scale;
        # relative errors grow past 1e-8 on both paths once a score falls
        # far below that scale.
        floor = k * a.shape[0] * eps * state.den_init[act]
        assert np.all(np.abs(state.score_num[act] - num[act]) <= 1e-8 * num[act] + energy * floor)
        assert np.all(np.abs(state.score_den[act] - den[act]) <= 1e-8 * den[act] + floor)
    else:
        pytest.fail("selection ran past the column count")
