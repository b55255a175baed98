import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_almost_equal

from colsel import (
    DegenerateBasisError,
    as_matrix,
    frobenius_sq,
    orthonormal_basis,
    randomized_svd,
    reconstruction_error,
)
from colsel.evaluate import _tolerant_error
from colsel.linalg import _projection_errors
from instances import badly_scaled_wide, random_matrix


def project(a, cols, x):
    """Projection of ``x`` onto the selected columns' span through their basis."""
    q = orthonormal_basis(a, cols)
    return q @ (q.T @ x)


def normal_equation_projection(a, cols, x):
    """Oracle: explicit normal-equations projector, the textbook formula."""
    sub = a[:, cols]
    gram_inv = np.linalg.inv(sub.T @ sub)
    return sub @ gram_inv @ (sub.T @ x)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf], [1.0]])
    with pytest.raises(ValueError):
        as_matrix(np.empty((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    assert out.flags.f_contiguous


def test_project_coordinate_axes():
    eye = as_matrix(np.eye(2))
    assert_array_almost_equal(
        project(eye, [0], eye), [[1.0, 0.0], [0.0, 0.0]]
    )


def test_project_own_span_is_identity():
    a = as_matrix([[3.0], [4.0]])
    assert_allclose(project(a, [0], a), a, rtol=1e-12)


def test_project_matches_normal_equations():
    a = random_matrix(6, 4, seed=11)
    cols = [0, 2]
    got = project(a, cols, a)
    want = normal_equation_projection(a, cols, a)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_project_rejects_degenerate_basis():
    a = as_matrix(np.column_stack([np.ones(3), 2.0 * np.ones(3), np.arange(3.0)]))
    with pytest.raises(DegenerateBasisError) as err:
        project(a, [0, 1], a)
    assert 1 in err.value.indices
    with pytest.raises(ValueError, match="empty column set"):
        orthonormal_basis(a, [])


@pytest.mark.parametrize("seed", range(6))
def test_projection_idempotent_and_orthogonal_residual(seed):
    a = random_matrix(9, 7, seed=seed)
    cols = [0, 3, 5]
    once = project(a, cols, a)
    twice = project(a, cols, once)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)
    residual = a - once
    assert abs(np.sum(residual * once)) <= 1e-9 * frobenius_sq(a)


def test_frobenius_sq_needs_no_matrix_sized_temporary():
    a = random_matrix(2000, 600, seed=9)  # 9.2 MiB of data
    tracemalloc.start()
    try:
        got = frobenius_sq(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == pytest.approx(float(np.sum(a * a)), rel=1e-12)


def test_reconstruction_error_empty_and_full():
    a = random_matrix(5, 4, seed=3)
    assert reconstruction_error(a, []) == pytest.approx(frobenius_sq(a))
    assert reconstruction_error(a, [0, 1, 2, 3]) <= 1e-9 * frobenius_sq(a)


@pytest.mark.parametrize("cols", [[], [0, 3, 5]], ids=["empty", "three"])
def test_projection_errors_share_one_basis_bit_for_bit(cols):
    # One QR serves both targets and gives the errors of two separate calls.
    a = random_matrix(9, 12, seed=23)
    b = random_matrix(9, 4, seed=24)
    assert _projection_errors(a, cols, [b, a]) == [
        _projection_errors(a, cols, [b])[0],
        reconstruction_error(a, cols),
    ]


def test_reconstruction_error_single_column_oracle():
    a = random_matrix(8, 5, seed=21)
    col = a[:, 1]
    projected = np.outer(col, col @ a) / (col @ col)
    want = frobenius_sq(a - projected)
    assert reconstruction_error(a, [1]) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_pythagoras_monotonicity_svd_floor(seed):
    a = random_matrix(10, 8, seed=seed)
    scale = frobenius_sq(a)
    for cols in ([1], [1, 4], [1, 4, 6], [0, 1, 4, 6]):
        err = reconstruction_error(a, cols)
        projected = project(a, cols, a)
        assert err == pytest.approx(scale - frobenius_sq(projected), rel=1e-9)
        svals = np.linalg.svd(a, compute_uv=False)
        floor = float(np.sum(svals[len(cols):] ** 2))
        assert err >= floor - 1e-9 * scale
    assert reconstruction_error(a, [1, 4]) <= reconstruction_error(a, [1]) + 1e-9 * scale


def test_orthonormal_basis_from_orthonormal_input():
    q0, _ = np.linalg.qr(random_matrix(7, 3, seed=5))
    a = as_matrix(q0)
    q = orthonormal_basis(a, [0, 1, 2])
    assert np.linalg.norm(q @ (q.T @ a) - a) <= 1e-10 * np.linalg.norm(a)


def test_orthonormal_basis_normalizes_single_column():
    a = as_matrix(np.array([[0.0], [3.0], [4.0]]))
    q = orthonormal_basis(a, [0]).ravel()
    assert_allclose(np.abs(q), [0.0, 0.6, 0.8], atol=1e-12)


def test_orthonormal_basis_spans_selection():
    a = random_matrix(10, 3, seed=8)
    q = orthonormal_basis(a, [0, 1, 2])
    assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
    assert np.linalg.norm(q @ (q.T @ a) - a) <= 1e-9 * np.linalg.norm(a)


def test_randomized_svd_diagonal_spectrum():
    a = as_matrix(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
    res = randomized_svd(a, k=2, seed=0)
    assert_allclose(res.singular_values, [5.0, 4.0], atol=1e-6)
    with pytest.raises(ValueError, match="rank k"):
        randomized_svd(a, 0)


def test_randomized_svd_deterministic():
    a = random_matrix(20, 15, seed=6)
    s1 = randomized_svd(a, k=4, seed=123).singular_values
    s2 = randomized_svd(a, k=4, seed=123).singular_values
    assert np.array_equal(s1, s2)


def test_randomized_svd_near_optimal_error():
    a = random_matrix(50, 40, seed=42)
    res = randomized_svd(a, k=5, seed=7)
    approx = (res.u * res.singular_values) @ res.v.T
    err = np.linalg.norm(a - approx)
    svals = np.linalg.svd(a, compute_uv=False)
    best = np.sqrt(np.sum(svals[5:] ** 2))
    assert err <= 1.05 * best
    assert_allclose(res.u.T @ res.u, np.eye(5), atol=1e-8)
    assert np.all(np.diff(res.singular_values) <= 1e-12)
    assert np.all(res.singular_values >= 0)


def lstsq_error(a, cols, target):
    """Oracle: squared residual of an SVD-based least-squares fit."""
    sub = a[:, cols]
    coef, *_ = np.linalg.lstsq(sub, target, rcond=None)
    residual = target - sub @ coef
    return float(np.sum(residual * residual))


def _in_span_plus_orthogonal(rng, s, c, ratio):
    """``c`` columns ``S W + N`` with N orthogonal to span(S) and
    ``||N||^2 = ratio * ||S W||^2``.

    The coefficients W stay bounded however ill-conditioned S is, so the
    projection error ``||N||^2`` is well determined by the data.
    """
    q, _ = np.linalg.qr(s)
    inside = s @ rng.standard_normal((s.shape[1], c))
    perp = rng.standard_normal((s.shape[0], c))
    perp -= q @ (q.T @ perp)
    perp *= np.sqrt(ratio * np.sum(inside * inside) / np.sum(perp * perp))
    return inside + perp


@st.composite
def independent_sets(draw):
    """(a, cols, target) with numerically independent selected columns."""
    kind = draw(st.sampled_from(
        ["ill-conditioned", "badly-scaled", "duplicate-column", "near-full-span"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(20, 40))
    k = draw(st.integers(1, m - 1))
    if kind == "ill-conditioned":
        # singular values of the selection geometric from 1 to 1e-10 at worst
        cond = 10.0 ** draw(st.floats(2.0, 10.0))
        u, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        s = (u * np.geomspace(1.0, 1.0 / cond, k)) @ v.T
        ratio = 10.0 ** draw(st.floats(-6.0, 0.0))
        a = np.hstack([s, _in_span_plus_orthogonal(rng, s, draw(st.integers(1, 30)), ratio)])
        return as_matrix(a), list(range(k)), as_matrix(a)
    if kind == "badly-scaled":
        # norms 1e6 to 2e6 next to 1e-3; four big and sixteen small columns
        # span everything, where the error is rounding noise around zero
        a = badly_scaled_wide(seed=draw(st.integers(0, 1000)))
        big = draw(st.lists(st.integers(0, 3), max_size=4, unique=True))
        small = draw(st.lists(st.integers(4, 63), min_size=1, max_size=16, unique=True))
        return a, big + small, a
    if kind == "duplicate-column":
        # every column appears twice; the selection takes one copy of each
        base = rng.standard_normal((m, m + 5))
        a = as_matrix(np.hstack([base, base]))
        picks = rng.choice(m + 5, size=k, replace=False)
        cols = [int(j) + (m + 5) * int(rng.integers(0, 2)) for j in picks]
        target = a if draw(st.booleans()) else as_matrix(rng.standard_normal((m, 7)))
        return a, cols, target
    # near-full-span: error below 1e-10 of the energy, so the energy form
    # would be rounding noise and the guard must take the explicit residual
    s = rng.standard_normal((m, k))
    ratio = 10.0 ** draw(st.floats(-11.0, -10.0, exclude_max=True))
    a = np.hstack([s, _in_span_plus_orthogonal(rng, s, draw(st.integers(10, 60)), ratio)])
    error = lstsq_error(a, list(range(k)), a)
    assert error < 1e-10 * frobenius_sq(a)
    return as_matrix(a), list(range(k)), as_matrix(a)


@st.composite
def dependent_sets(draw):
    """(a, cols) whose selected columns are linearly dependent."""
    kind = draw(st.sampled_from(["duplicate-column", "rank-deficient", "more-columns-than-rows"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 30))
    if kind == "duplicate-column":
        a = random_matrix(m, m + 4, seed=int(rng.integers(1000)))
        a = as_matrix(np.hstack([a, 3.0 * a[:, :1]]))
        others = rng.choice(np.arange(1, m + 4), size=int(rng.integers(0, m - 1)), replace=False)
        return a, [0, m + 4] + [int(j) for j in others]
    if kind == "rank-deficient":
        rank = int(rng.integers(1, m))
        a = as_matrix(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, 2 * m)))
        return a, [int(j) for j in rng.choice(2 * m, size=int(rng.integers(rank + 1, m + 1)), replace=False)]
    a = random_matrix(m, 2 * m + 2, seed=int(rng.integers(1000)))
    return a, [int(j) for j in rng.choice(2 * m + 2, size=int(rng.integers(m + 1, 2 * m + 3)), replace=False)]


def _assert_matches_lstsq(got, a, cols, target):
    want = lstsq_error(a, cols, target)
    # A selection that spans the target leaves only rounding noise, about
    # (m eps)^2 ||T||^2, where no relative comparison is meaningful.
    floor = (a.shape[0] * np.finfo(np.float64).eps) ** 2 * frobenius_sq(target)
    assert abs(got - want) <= 1e-10 * want + floor


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(independent_sets())
def test_projection_error_matches_lstsq(case):
    a, cols, target = case
    _assert_matches_lstsq(_projection_errors(a, cols, [target])[0], a, cols, target)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dependent_sets())
def test_projection_error_rejects_dependent_sets(case):
    a, cols = case
    with pytest.raises(DegenerateBasisError):
        _projection_errors(a, cols, [a])
    # the uniform trials of the relative-accuracy metric take lstsq instead
    _assert_matches_lstsq(_tolerant_error(a, cols, frobenius_sq(a)), a, cols, a)
