import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_almost_equal

from colsel import (
    SketchSpec,
    as_matrix,
    evaluate_selection,
    frobenius_sq,
    map_phase,
    randomized_svd,
    reconstruction_error,
    reduce_phase,
    relative_accuracy,
    sketch_partitioned,
)
from colsel.distributed import Partition, PartitionResult
from colsel.linalg import _orthonormal_basis, _projection_errors, check_column_set
from instances import badly_scaled_wide, lstsq_error, random_matrix, rank_deficient_matrix


def project(a, cols, x):
    """Projection of ``x`` onto the selected columns' span through their basis."""
    q = _orthonormal_basis(a, cols)
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


def test_as_matrix_checks_entries_one_column_block_at_a_time():
    a = random_matrix(200, 1000, seed=10)
    tracemalloc.start()
    try:
        as_matrix(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the boolean mask of one 128-column block, 200 * 128 bytes; a whole
    # mask would be 200 kB
    assert peak <= 2 * 200 * 128
    # the last column is in the eighth block, which is partial
    a[-1, -1] = np.nan
    with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN or Inf\)$"):
        as_matrix(a)


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


def test_project_drops_a_dependent_column():
    # column 1 is twice column 0 and adds nothing to the span
    a = as_matrix(np.column_stack([np.ones(3), 2.0 * np.ones(3), np.arange(3.0)]))
    assert np.array_equal(project(a, [0, 1], a), project(a, [0], a))


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


@pytest.mark.parametrize("cols", [[], [0, 3, 5], list(range(10))],
                         ids=["empty", "three", "dependent"])
def test_projection_errors_share_one_basis_bit_for_bit(cols):
    # One QR serves both targets and gives the errors of two separate calls.
    a = random_matrix(9, 12, seed=23)
    b = random_matrix(9, 4, seed=24)
    assert _projection_errors(a, cols, [b, a]) == [
        _projection_errors(a, cols, [b])[0],
        reconstruction_error(a, cols),
    ]


# Index sets that a cast takes for columns [0, 1]: floats, bools and strings,
# as lists and as arrays
NOT_INTEGERS = {
    "float": [0.0, 1.9],
    "bool": [False, True],
    "bool-among-ints": [0, True],
    "string": ["0", "1"],
    "float-array": np.array([0.0, 1.0]),
    "bool-array": np.array([False, True]),
    "string-array": np.array(["0", "1"]),
    "object-array": np.array([0, 1], dtype=object),
}

_A = random_matrix(6, 4, seed=40)
INDEX_TAKERS = {
    "reconstruction_error": lambda cols: reconstruction_error(_A, cols),
    "relative_accuracy": lambda cols: relative_accuracy(_A, cols),
    "evaluate_selection": lambda cols: evaluate_selection(_A, cols),
    "sketch_partitioned": lambda cols: sketch_partitioned(
        [(_A[:, :2], cols), (_A[:, 2:], [2, 3])], SketchSpec("gaussian", r=3)
    ),
    "reduce_phase": lambda cols: reduce_phase(
        [PartitionResult(global_indices=cols, columns=_A[:, :2])], None, l=2
    ),
}


@pytest.mark.parametrize("kind", NOT_INTEGERS)
@pytest.mark.parametrize("taker", INDEX_TAKERS)
def test_column_indices_must_be_integers(taker, kind):
    with pytest.raises(ValueError, match="integers"):
        INDEX_TAKERS[taker](NOT_INTEGERS[kind])


@pytest.mark.parametrize("width", [2, 10])
def test_map_phase_rejects_an_index_map_of_the_wrong_length(width):
    part = Partition(matrix=_A[:, :3], global_indices=np.arange(10, 10 + width))
    with pytest.raises(ValueError, match="width"):
        map_phase(part, None, l_b=3)


# Block lists that break the block rule, each with the message every block taker raises
BAD_BLOCKS = {
    "no block": ([], "at least one partition is required"),
    "map too short": ([(_A[:, :3], [0, 1])], "partition block width does not match its index map"),
    # one block alone would put its extra index out of range in the sketch
    "map too long": (
        [(_A[:, :2], [0, 1, 2]), (_A[:, 2:3], [])],
        "partition block width does not match its index map",
    ),
    "row counts": (
        [(_A[:, :2], [0, 1]), (_A[:3, 2:], [2, 3])],
        "inconsistent row counts across partitions: 3 != 6",
    ),
    "repeat in a map": ([(_A[:, :3], [0, 1, 1])], "column indices must be distinct, 1 repeats"),
    "repeat across blocks": (
        [(_A[:, :2], [0, 1]), (_A[:, 2:], [1, 2])],
        "column indices must be distinct, 1 repeats",
    ),
}
BLOCK_TAKERS = {
    "sketch_partitioned": lambda blocks: sketch_partitioned(blocks, SketchSpec("gaussian", r=3)),
    "map_phase": lambda blocks: map_phase(Partition(*blocks[0]), None, l_b=2),
    "reduce_phase": lambda blocks: reduce_phase(
        [PartitionResult(global_indices=ix, columns=c) for c, ix in blocks], None, l=2
    ),
}


@pytest.mark.parametrize(
    "taker, case",
    [
        (taker, case)
        for taker in BLOCK_TAKERS
        for case, (blocks, _) in BAD_BLOCKS.items()
        # the map phase takes one block
        if taker != "map_phase" or len(blocks) == 1
    ],
)
def test_every_block_taker_raises_the_same_error(taker, case):
    blocks, message = BAD_BLOCKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BLOCK_TAKERS[taker](blocks)


def _first_offender(cols, n):
    """Loop reference for check_column_set: the message fragment of the first failing rule."""
    seen = set()
    for i in cols:
        if i in seen:
            return f"distinct, {i} repeats"
        seen.add(i)
    for i in cols:
        if not 0 <= i < n:
            return f"column index {i} out of range"
    return None


@settings(max_examples=200, deadline=None)
@given(
    cols=st.lists(st.integers(-3, 12) | st.sampled_from([2**63, 2**70, -(2**64)]), max_size=8),
    array=st.booleans(),
)
def test_check_column_set_matches_the_loop_reference(cols, array):
    n = 10
    want = _first_offender(cols, n)
    if array and all(-(2**63) <= i < 2**63 for i in cols):
        cols = np.array(cols, dtype=np.int64)
    if want is None:
        got = check_column_set(cols, n)
        assert got == list(cols) and all(type(i) is int for i in got)
    else:
        with pytest.raises(ValueError, match=want):
            check_column_set(cols, n)


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
    q = _orthonormal_basis(a, [0, 1, 2])
    assert np.linalg.norm(q @ (q.T @ a) - a) <= 1e-10 * np.linalg.norm(a)


def test_orthonormal_basis_normalizes_single_column():
    a = as_matrix(np.array([[0.0], [3.0], [4.0]]))
    q = _orthonormal_basis(a, [0]).ravel()
    assert_allclose(np.abs(q), [0.0, 0.6, 0.8], atol=1e-12)


def test_orthonormal_basis_spans_selection():
    a = random_matrix(10, 3, seed=8)
    q = _orthonormal_basis(a, [0, 1, 2])
    assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
    assert np.linalg.norm(q @ (q.T @ a) - a) <= 1e-9 * np.linalg.norm(a)


@pytest.mark.parametrize("a, rank", [
    (rank_deficient_matrix(30, 60, 4, 0), 4), (as_matrix(np.zeros((30, 60))), 0)],
    ids=["rank-4", "zero"])
def test_columns_past_the_rank_drop_in_one_round(monkeypatch, a, rank):
    # Every column after the first dependent one depends on the columns
    # before it, so one factorization finds them all and a second, of the
    # kept columns alone, gives the basis.
    factored = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda x: factored.append(x.shape[1]) or qr(x))
    assert _orthonormal_basis(a, list(range(20))).shape == (30, rank)
    assert factored == ([20, rank] if rank else [20])


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
    kind = draw(st.sampled_from(
        ["duplicate-column", "rank-deficient", "more-columns-than-rows", "axis-aligned"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 30))
    if kind == "axis-aligned":
        # one nonzero per column, so residuals are exactly zero: column 0
        # is zero, and m + 3 columns on m axes repeat some axis
        a = np.zeros((m, m + 4))
        a[rng.integers(0, m, size=m + 3), np.arange(1, m + 4)] = rng.standard_normal(m + 3)
        others = rng.permutation(np.arange(1, m + 4))[: int(rng.integers(0, m + 4))]
        cols = np.insert(others, int(rng.integers(0, others.size + 1)), 0)
        return as_matrix(a), [int(j) for j in cols]
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


def _ill_conditioned_case():
    """20 columns with singular values from 1 to 1e-10, all kept in the basis.

    The basis drops a column only at |r_jj| <= 1e-12 ||a_j||.  Greedy's
    squared test, a residual of 1e-6 of the norm, would drop 6 of these and
    overstate the error by about 1e-13 ||A||^2, 1e-7 of the error itself.
    """
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((30, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    s = (u * np.geomspace(1.0, 1e-10, 20)) @ v.T
    a = as_matrix(np.hstack([s, _in_span_plus_orthogonal(rng, s, 10, 1e-6)]))
    return a, list(range(20)), a


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(independent_sets())
@example(_ill_conditioned_case())
def test_projection_error_matches_lstsq(case):
    a, cols, target = case
    _assert_matches_lstsq(_projection_errors(a, cols, [target])[0], a, cols, target)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dependent_sets())
@example((as_matrix(np.eye(3)[:, [0, 0, 1]]), [0, 1, 2]))
@example((as_matrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [0, 1]))
def test_projection_error_of_dependent_sets_matches_lstsq(case):
    # A dependent set's error is the error of its span.  Its rounding is
    # lstsq's own, well above the (m eps)^2 ||A||^2 floor of independent sets.
    # In the two examples a dependent column with an exactly zero residual
    # comes before an independent one: its reflector is the identity and
    # claims the axis that the later column needs.
    a, cols = case
    got = _projection_errors(a, cols, [a])[0]
    assert abs(got - lstsq_error(a, cols, a)) <= 1e-12 * frobenius_sq(a)
