import itertools
import math

import numpy as np
import pytest

from colsel import (
    MetricUndefinedError,
    as_matrix,
    evaluate_selection,
    frobenius_sq,
    generalized_select,
    greedy_select,
    hybrid_select,
    naive_generalized_oracle,
    naive_greedy_oracle,
    randomized_svd,
    reconstruction_error,
    relative_accuracy,
    sketch_svd_select,
    uniform_select,
)
from colsel.sketch import column_seeds, derive_seed
from instances import badly_scaled_wide, planted_lowrank, random_matrix, rank_deficient_matrix


def test_relative_accuracy_zero_for_uniform_selection():
    a = random_matrix(20, 12, seed=1)
    cols = uniform_select(12, 4, seed=9)
    assert relative_accuracy(a, cols, uniform_trials=1, seed=9) == pytest.approx(0.0)


def test_relative_accuracy_hundred_for_exact_rank_cover():
    # exact rank 3, but most columns live in a 2-dim cluster so uniform
    # subsets usually miss the third direction and stay suboptimal
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    cols = np.empty((20, 30))
    cols[:, :27] = q[:, :2] @ rng.standard_normal((2, 27))
    cols[:, 27:] = q @ rng.standard_normal((3, 3))
    a = as_matrix(cols)
    picks = greedy_select(a, 3).indices
    assert reconstruction_error(a, picks) <= 1e-9 * frobenius_sq(a)
    assert relative_accuracy(a, picks, uniform_trials=5, seed=3) == pytest.approx(
        100.0, abs=1e-6
    )


def test_relative_accuracy_matches_formula_oracle():
    a = random_matrix(40, 60, seed=4)
    cols = greedy_select(a, 5).indices
    got = relative_accuracy(a, cols, uniform_trials=10, seed=11)

    # independent reimplementation from raw errors
    uniform_errs = []
    for subset in uniform_draws(60, 5, 10, 11):
        uniform_errs.append(math.sqrt(reconstruction_error(a, subset)))
    err_u = float(np.mean(uniform_errs))
    err_s = math.sqrt(reconstruction_error(a, cols))
    svals = np.linalg.svd(a, compute_uv=False)
    err_opt = math.sqrt(float(np.sum(svals[5:] ** 2)))
    want = 100.0 * (err_u - err_s) / (err_u - err_opt)
    assert got == pytest.approx(want, rel=1e-9)


def uniform_draws(n, l, trials, seed):
    """The metric's trials by their rule: trial t takes the l smallest keys of draw t of ``seed``."""
    return [np.argsort(column_seeds(derive_seed(seed, t), np.arange(n)))[:l].tolist()
            for t in range(trials)]


def lstsq_relative_accuracy(a, cols, trials, seed):
    """The metric with every error from an SVD-based lstsq fit, dependent sets included."""

    def err(subset):
        sub = a[:, subset]
        coef, *_ = np.linalg.lstsq(sub, a, rcond=None)
        return math.sqrt(frobenius_sq(a - sub @ coef))

    l = len(cols)
    draws = uniform_draws(a.shape[1], l, trials, seed)
    err_u = float(np.mean([err(d) for d in draws]))
    svals = np.linalg.svd(a, compute_uv=False)
    err_opt = math.sqrt(float(np.sum(svals[l:] ** 2)))
    return 100.0 * (err_u - err(cols)) / (err_u - err_opt), draws


def _repeated_columns():
    # twelve directions, each in three scaled copies: many uniform draws
    # hold two copies of one direction
    rng = np.random.default_rng(31)
    base = rng.standard_normal((15, 12))
    return as_matrix(np.hstack([base, 2.0 * base, -0.5 * base])), 6


def _more_columns_than_rows():
    # 8 rows, l = 10: every draw is dependent, yet most columns repeat two
    # directions, so a draw often misses some of the other six
    rng = np.random.default_rng(32)
    cols = np.empty((8, 60))
    cols[:, :50] = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 50))
    cols[:, 50:] = rng.standard_normal((8, 10))
    return as_matrix(cols), 10


@pytest.mark.parametrize("make", [_repeated_columns, _more_columns_than_rows])
def test_relative_accuracy_with_dependent_uniform_draws(make):
    a, l = make()
    cols = uniform_select(a.shape[1], l, seed=5)
    got = relative_accuracy(a, cols, uniform_trials=10, seed=12)
    want, draws = lstsq_relative_accuracy(a, cols, 10, 12)
    assert any(np.linalg.matrix_rank(a[:, d]) < l for d in draws)
    assert got == pytest.approx(want, rel=1e-10)


def test_relative_accuracy_is_invariant_to_power_of_two_scaling():
    # past about 2**200 or below 2**-200 the squares leave the range where
    # the kernels run unscaled, and the metric scales A back into it
    a = random_matrix(8, 12, seed=3)
    cols = greedy_select(a, 3).indices
    error, want = evaluate_selection(a, cols, 3, seed=5)
    tiny = np.finfo(np.float64).tiny
    tested = 0
    for k in range(-1000, 1001):
        b = np.ldexp(a, k)
        if np.all(np.isfinite(b)) and np.abs(b[b != 0]).min() >= tiny:
            assert relative_accuracy(b, cols, 3, seed=5) == want, k
            tested += 1
    assert tested > 1900
    for k in (-450, 450):
        assert evaluate_selection(np.ldexp(a, k), cols, 3, seed=5)[0] == math.ldexp(error, 2 * k)


def test_relative_accuracy_rejects_bad_column_sets():
    a = random_matrix(6, 5, seed=30)
    with pytest.raises(ValueError, match="distinct"):
        relative_accuracy(a, [0, 0])
    with pytest.raises(ValueError, match="out of range"):
        relative_accuracy(a, [0, 5])
    with pytest.raises(ValueError, match="out of range"):
        relative_accuracy(a, [-1])
    with pytest.raises(ValueError, match="at least one column"):
        relative_accuracy(a, [])
    with pytest.raises(ValueError, match="uniform_trials"):
        relative_accuracy(a, [0, 1], uniform_trials=0)


def test_relative_accuracy_undefined_when_uniform_is_optimal():
    a = as_matrix(np.eye(3))
    with pytest.raises(MetricUndefinedError):
        relative_accuracy(a, [0, 1, 2], uniform_trials=2, seed=0)


def test_uniform_select_all_and_determinism():
    assert sorted(uniform_select(5, 5, seed=3)) == [0, 1, 2, 3, 4]
    assert uniform_select(30, 4, seed=8) == uniform_select(30, 4, seed=8)
    with pytest.raises(ValueError, match="budget"):
        uniform_select(5, 0, seed=3)


def test_uniform_select_is_pinned():
    # integer arithmetic alone: every numpy version and CPU draws these
    assert uniform_select(20, 5, seed=0) == [16, 19, 13, 0, 12]
    assert uniform_select(20, 5, seed=1) == [6, 11, 16, 14, 1]
    assert uniform_select(20, 5, seed=2**64 - 1) == [12, 7, 14, 15, 17]


def test_uniform_select_frequencies():
    counts = np.zeros(10)
    for seed in range(1000):
        counts[uniform_select(10, 1, seed=seed)[0]] += 1
    sigma = math.sqrt(1000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 100.0) <= 4.0 * sigma)


def test_hybrid_vacuous_restriction_equals_greedy():
    # ceil(l ln l) >= n, so the sampled set covers every column
    a = random_matrix(10, 6, seed=5)
    for mode in ("uniform", "column-norm", "svd-rows"):
        assert hybrid_select(a, 4, mode, seed=6) == greedy_select(a, 4).indices


def test_hybrid_column_norm_prefers_dominant_column():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 20))
    a[:, 13] *= 40.0
    a = as_matrix(a)
    hits = sum(13 in hybrid_select(a, 3, "column-norm", seed=s) for s in range(1000))
    assert hits > 990


def test_hybrid_deterministic_and_validates():
    a = random_matrix(15, 25, seed=8)
    assert hybrid_select(a, 5, "svd-rows", seed=1) == hybrid_select(a, 5, "svd-rows", seed=1)
    with pytest.raises(ValueError):
        hybrid_select(a, 1, "uniform", seed=0)
    with pytest.raises(ValueError, match="l <= 25"):
        hybrid_select(a, 26, "uniform", seed=0)
    with pytest.raises(ValueError):
        hybrid_select(a, 5, "leverage", seed=0)
    # a zero matrix has no sampling mass and nothing to pick, as in greedy
    assert hybrid_select(as_matrix(np.zeros((4, 5)) + 0.0), 2, "column-norm", seed=0) == []


def test_sketch_svd_covers_planted_rank():
    a = rank_deficient_matrix(30, 40, rank=4, seed=9)
    cols = sketch_svd_select(a, l=4, k=4, seed=10)
    assert reconstruction_error(a, cols) <= 1e-8 * frobenius_sq(a)


def test_sketch_svd_full_rank_matches_exact_svd_target():
    a = random_matrix(6, 5, seed=12)
    got = sketch_svd_select(a, l=3, k=5, seed=13)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    want = generalized_select(a, as_matrix(u * s), 3).indices
    assert got == want


def test_sketch_svd_deterministic():
    a = random_matrix(18, 22, seed=14)
    assert sketch_svd_select(a, 4, 6, seed=2) == sketch_svd_select(a, 4, 6, seed=2)


def test_naive_greedy_oracle_basics():
    assert naive_greedy_oracle(as_matrix(np.eye(3)), 2).indices == [0, 1]
    a = random_matrix(8, 8, seed=15)
    res = naive_greedy_oracle(a, 8)
    assert reconstruction_error(a, res.indices) <= 1e-9 * frobenius_sq(a)


def test_naive_greedy_oracle_scale_guard():
    with pytest.raises(ValueError, match="restricted"):
        naive_greedy_oracle(random_matrix(65, 4, seed=0), 2)


def test_naive_greedy_oracle_steps_are_true_argmins():
    a = random_matrix(9, 10, seed=16)
    res = naive_greedy_oracle(a, 3)
    prefix = []
    for pick in res.indices:
        errors = {
            i: reconstruction_error(a, prefix + [i])
            for i in range(10)
            if i not in prefix
        }
        best = min(errors.values())
        assert errors[pick] <= best + 1e-9 * frobenius_sq(a)
        prefix.append(pick)
    # greedy error is bounded below by the exhaustive optimum
    exhaustive = min(
        reconstruction_error(a, list(combo))
        for combo in itertools.combinations(range(10), 3)
    )
    assert reconstruction_error(a, res.indices) >= exhaustive - 1e-9 * frobenius_sq(a)


def test_naive_greedy_oracle_keeps_small_columns_of_badly_scaled_input():
    # the small columns' gains are far below any tolerance scaled by the
    # matrix energy, yet each lowers the error
    a = badly_scaled_wide()
    oracle = naive_greedy_oracle(a, 7)
    assert oracle.indices == greedy_select(a, 7).indices
    assert not oracle.exhausted


def test_naive_generalized_oracle_reduces_to_greedy_oracle():
    a = random_matrix(10, 9, seed=17)
    assert (
        naive_generalized_oracle(a, a, 4).indices == naive_greedy_oracle(a, 4).indices
    )


def test_naive_generalized_oracle_orthogonal_target_stops():
    # target orthogonal to the source range: no column has any value
    rng = np.random.default_rng(18)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    a = as_matrix(q[:, :4] @ rng.standard_normal((4, 6)))
    b = as_matrix(q[:, 4:6])
    oracle = naive_generalized_oracle(a, b, 3)
    production = generalized_select(a, b, 3)
    assert oracle.target_reconstructed and production.target_reconstructed
    assert oracle.indices == production.indices == []


def test_separate_target_stops_only_when_no_candidate_lowers_its_error():
    # The best gain, 1e-6 of the target's energy from column 1, is far above
    # the stop tolerance, although the largest numerator and the largest
    # denominator of the scores left after [0] belong to different columns.
    e = np.eye(4)
    a = as_matrix(np.column_stack([e[:, 0], 1e-4 * e[:, 1], e[:, 2]]))
    b = as_matrix(np.column_stack([e[:, 0], 1e-3 * e[:, 1]]))
    for result in (generalized_select(a, b, 3), naive_generalized_oracle(a, b, 3)):
        assert result.indices == [0, 1]
        assert result.target_reconstructed


def test_naive_generalized_oracle_matches_production():
    for seed in range(5):
        a = random_matrix(12, 14, seed=seed + 900)
        b = random_matrix(12, 6, seed=seed + 950)
        assert (
            naive_generalized_oracle(a, b, 5).indices
            == generalized_select(a, b, 5).indices
        )


@pytest.mark.parametrize("target", [None, "random", "in-span"])
@pytest.mark.parametrize("seed", range(4))
def test_oracles_match_production_past_exhaustion(seed, target):
    # l > rank: both routes stop once every column lies in the selection's
    # span.  The rank-th pick is a tie by construction (any remaining
    # column completes the span), so that pick is compared by its span.
    rank = 3 + seed % 3
    a = rank_deficient_matrix(12, 10, rank=rank, seed=seed + 40)
    if target is None:
        oracle, production = naive_greedy_oracle(a, rank + 3), greedy_select(a, rank + 3)
    else:
        if target == "random":
            b = random_matrix(12, 3, seed=seed + 50)
        else:
            b = as_matrix(a @ random_matrix(10, 3, seed=seed + 50))
        oracle = naive_generalized_oracle(a, b, rank + 3)
        production = generalized_select(a, b, rank + 3)
        assert oracle.target_reconstructed == production.target_reconstructed
    assert oracle.exhausted and production.exhausted
    assert len(oracle.indices) == len(production.indices) == rank
    assert oracle.indices[:-1] == production.indices[:-1]
    for picks in (oracle.indices, production.indices):
        assert reconstruction_error(a, picks) <= 1e-9 * frobenius_sq(a)


def test_metric_ordering_on_planted_instances():
    greedy_acc, hybrid_acc = [], []
    for seed in range(10):
        a = planted_lowrank(200, 500, rank=30, noise_level=0.05, seed=seed)
        picks = greedy_select(a, 30).indices
        greedy_acc.append(relative_accuracy(a, picks, uniform_trials=10, seed=seed + 1000))
        hybrid = hybrid_select(a, 30, "svd-rows", seed=seed)
        hybrid_acc.append(relative_accuracy(a, hybrid, uniform_trials=10, seed=seed + 1000))
    assert np.mean(greedy_acc) >= np.mean(hybrid_acc) + 5.0
    assert np.mean(hybrid_acc) >= 5.0


def test_evaluate_selection_report():
    from colsel import evaluate_selection

    a = random_matrix(25, 30, seed=20)
    picks = greedy_select(a, 4).indices
    error, accuracy = evaluate_selection(a, picks, uniform_trials=5, seed=21)
    assert error == pytest.approx(reconstruction_error(a, picks))
    assert accuracy == relative_accuracy(a, picks, uniform_trials=5, seed=21)


def test_best_rank_error_gram_branch():
    import colsel.evaluate as ev

    for shape in ((30, 25), (25, 30)):
        a = random_matrix(*shape, seed=19)
        svals = np.linalg.svd(a, compute_uv=False)
        exact = math.sqrt(float(np.sum(svals[4:] ** 2)))
        assert ev.best_rank_error(a, 4) == pytest.approx(exact, rel=1e-12)
        # force the Gram-eigenvalue path: exact to rounding, and deterministic
        old = ev.EXACT_SVD_LIMIT
        ev.EXACT_SVD_LIMIT = 10
        try:
            gram = ev.best_rank_error(a, 4, seed=3)
            assert ev.best_rank_error(a, 4, seed=4) == gram
        finally:
            ev.EXACT_SVD_LIMIT = old
        assert gram == pytest.approx(exact, rel=1e-9)


def test_best_rank_error_above_exact_limit():
    from colsel.evaluate import EXACT_SVD_LIMIT, best_rank_error

    rng = np.random.default_rng(23)
    a = rng.standard_normal((520, 20)) @ rng.standard_normal((20, 600))
    a += 1e-3 * rng.standard_normal(a.shape)
    assert min(a.shape) > EXACT_SVD_LIMIT
    svals = np.linalg.svd(a, compute_uv=False)
    for rank in (5, 20):
        exact = math.sqrt(float(np.sum(svals[rank:] ** 2)))
        assert best_rank_error(a, rank) == pytest.approx(exact, rel=1e-9)
    # the Gram route squares the conditioning: a tail far below the largest
    # singular value is exact only to about eps * s_max^2 in its square
    tail = float(svals[-1] ** 2)
    got = best_rank_error(a, 519) ** 2
    assert abs(got - tail) <= 10 * np.finfo(float).eps * svals[0] ** 2
