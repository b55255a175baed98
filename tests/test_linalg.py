import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_almost_equal

from colsel import (
    DegenerateBasisError,
    as_matrix,
    frobenius_sq,
    orthonormal_basis,
    project_onto_columns,
    randomized_svd,
    reconstruction_error,
)
from instances import random_matrix


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
        project_onto_columns(eye, [0], eye), [[1.0, 0.0], [0.0, 0.0]]
    )


def test_project_own_span_is_identity():
    a = as_matrix([[3.0], [4.0]])
    assert_allclose(project_onto_columns(a, [0], a), a, rtol=1e-12)


def test_project_matches_normal_equations():
    a = random_matrix(6, 4, seed=11)
    cols = [0, 2]
    got = project_onto_columns(a, cols, a)
    want = normal_equation_projection(a, cols, a)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_project_rejects_degenerate_basis():
    a = as_matrix(np.column_stack([np.ones(3), 2.0 * np.ones(3), np.arange(3.0)]))
    with pytest.raises(DegenerateBasisError) as err:
        project_onto_columns(a, [0, 1], a)
    assert 1 in err.value.indices


@pytest.mark.parametrize("seed", range(6))
def test_projection_idempotent_and_orthogonal_residual(seed):
    a = random_matrix(9, 7, seed=seed)
    cols = [0, 3, 5]
    once = project_onto_columns(a, cols, a)
    twice = project_onto_columns(a, cols, once)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)
    residual = a - once
    assert abs(np.sum(residual * once)) <= 1e-9 * frobenius_sq(a)


def test_reconstruction_error_empty_and_full():
    a = random_matrix(5, 4, seed=3)
    assert reconstruction_error(a, []) == pytest.approx(frobenius_sq(a))
    assert reconstruction_error(a, [0, 1, 2, 3]) <= 1e-9 * frobenius_sq(a)


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
        projected = project_onto_columns(a, cols, a)
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


def test_randomized_svd_deterministic():
    a = random_matrix(20, 15, seed=6)
    s1 = randomized_svd(a, k=4, seed=123).singular_values
    s2 = randomized_svd(a, k=4, seed=123).singular_values
    assert np.array_equal(s1, s2)


def test_randomized_svd_near_optimal_error():
    a = random_matrix(50, 40, seed=42)
    res = randomized_svd(a, k=5, oversample=10, power_iters=2, seed=7)
    approx = (res.u * res.singular_values) @ res.v.T
    err = np.linalg.norm(a - approx)
    svals = np.linalg.svd(a, compute_uv=False)
    best = np.sqrt(np.sum(svals[5:] ** 2))
    assert err <= 1.05 * best
    assert_allclose(res.u.T @ res.u, np.eye(5), atol=1e-8)
    assert np.all(np.diff(res.singular_values) <= 1e-12)
    assert np.all(res.singular_values >= 0)
