import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from colsel import (
    SketchSpec,
    as_matrix,
    frobenius_sq,
    reconstruction_error,
    sketch_matrix,
    sketch_partitioned,
    sketch_row,
    uniform_select,
)
from colsel.seeds import _GOLDEN, _mix64, column_seed, column_seeds, mix64_array
from instances import random_matrix


def materialize(spec, n):
    return np.vstack([sketch_row(spec, i) for i in range(n)])


def split_contiguous(a, sizes):
    parts, start = [], 0
    for size in sizes:
        parts.append((a[:, start : start + size], list(range(start, start + size))))
        start += size
    return parts


def reference_row(spec, index):
    """Pure-Python projection row: word j is _mix64(key + (j+1)*GOLDEN)."""
    r = spec.r
    key = column_seed(spec.seed, index)
    pairs = (r + 1) // 2
    words = [_mix64(key + (j + 1) * _GOLDEN) for j in range(2 * pairs)]
    if spec.kind == "sign":
        return [(1.0 if w < 2**63 else -1.0) / math.sqrt(r) for w in words[:r]]
    if spec.kind == "sparse-sign":
        value = {0: math.sqrt(3.0), 5: -math.sqrt(3.0)}
        return [value.get(((w >> 11) * 6) >> 53, 0.0) / math.sqrt(r) for w in words[:r]]
    uniform = [((w >> 11) + 1) * 2.0**-53 for w in words]
    row = [0.0] * (2 * pairs)
    for k in range(pairs):
        radius = math.sqrt(math.log(uniform[k]) * (-2.0 / r))
        theta = uniform[pairs + k] * (2.0 * math.pi)
        row[k] = radius * math.cos(theta)
        row[pairs + k] = radius * math.sin(theta)
    return row[:r]


def test_spec_validation():
    with pytest.raises(ValueError):
        SketchSpec("fourier", r=4)
    with pytest.raises(ValueError):
        SketchSpec("gaussian", r=0)
    with pytest.raises(ValueError, match="nonnegative"):
        sketch_row(SketchSpec("gaussian", r=4), -1)


def test_identity_rows_are_basis_vectors():
    spec = SketchSpec("identity", r=5, seed=0)
    row = sketch_row(spec, 2)
    assert_allclose(row, np.eye(5)[2])
    with pytest.raises(ValueError):
        sketch_row(spec, 5)


def test_rows_deterministic_across_threads():
    spec = SketchSpec("gaussian", r=64, seed=99)
    results = {}

    def worker(tag):
        results[tag] = [sketch_row(spec, i) for i in (0, 7, 500)]

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for tag in range(1, 4):
        for a, b in zip(results[0], results[tag]):
            assert np.array_equal(a, b)


def test_row_independent_of_call_order():
    spec = SketchSpec("sparse-sign", r=32, seed=5)
    forward = [sketch_row(spec, i) for i in range(10)]
    backward = [sketch_row(spec, i) for i in reversed(range(10))][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["gaussian", "sign", "sparse-sign"])
def test_row_statistics(kind):
    # entries are variance-1 draws scaled by 1/sqrt(r), so the sketch is
    # norm-preserving in expectation; the checks undo that scaling
    r = 1000
    spec = SketchSpec(kind, r=r, seed=11)
    row = sketch_row(spec, 3) * np.sqrt(r)
    assert abs(row.mean()) <= 4.0 / np.sqrt(r)
    assert abs(row.var() - 1.0) <= 0.15


def test_vectorized_mixer_matches_scalar_reference():
    rng = np.random.default_rng(0)
    z = rng.integers(0, 2**64, size=500, dtype=np.uint64, endpoint=False)
    z[:3] = [0, 1, 2**64 - 1]
    assert mix64_array(z).tolist() == [_mix64(int(v)) for v in z]
    indices = np.array([0, 1, 127, 128, 5000, 2**40])
    for master in (0, 7, 2**64 - 1, -3):
        keys = column_seeds(master, indices)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [column_seed(master, int(i)) for i in indices]


@pytest.mark.parametrize("kind", ["sign", "sparse-sign", "gaussian"])
@pytest.mark.parametrize("r", [1, 7, 128])
def test_rows_match_pure_python_reference(kind, r):
    spec = SketchSpec(kind, r=r, seed=12345)
    for index in (0, 1, 127, 128, 9999):
        got = sketch_row(spec, index)
        want = np.array(reference_row(spec, index))
        if kind == "gaussian":
            # numpy's log/cos/sin may differ from libm in the last few ulp
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["gaussian", "sign", "sparse-sign"])
@pytest.mark.parametrize("r", [7, 128])
def test_row_alone_equals_row_in_any_block(kind, r):
    # an identity input makes each sketch row exactly one projection row, so
    # every layout must reproduce sketch_row bit for bit: at group offsets
    # 0/127/128, alone in a one-column partition, and spread round-robin
    n = 300
    eye = np.eye(n)
    spec = SketchSpec(kind, r=r, seed=41)
    alone = materialize(spec, n)
    rest = [i for i in range(n) if i != 128]
    layouts = {
        "matrix": sketch_matrix(eye, spec),
        "singleton": sketch_partitioned([(eye[:, [128]], [128]), (eye[:, rest], rest)], spec),
        "round-robin": sketch_partitioned(
            [(eye[:, p::3], list(range(p, n, 3))) for p in range(3)], spec
        ),
    }
    for layout, got in layouts.items():
        assert np.array_equal(got, alone), layout
    for offset in (0, 127, 128, 255, 299):
        assert np.array_equal(layouts["matrix"][offset], sketch_row(spec, offset))


def stream_matrix(kind, n=4000, r=64, seed=2024):
    """n projection rows, scale undone, for stream statistics."""
    return materialize(SketchSpec(kind, r=r, seed=seed), n) * np.sqrt(r)


def assert_uncorrelated(x):
    # rows of adjacent column indices, and adjacent entries of one row
    for u, v in ((x[:-1], x[1:]), (x[:, :-1], x[:, 1:])):
        corr = np.corrcoef(u.ravel(), v.ravel())[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(u.size)


def test_sparse_sign_stream_statistics():
    x = np.sign(stream_matrix("sparse-sign"))
    total = x.size
    for value, p in ((1.0, 1 / 6), (0.0, 2 / 3), (-1.0, 1 / 6)):
        count = np.count_nonzero(x == value)
        assert abs(count - p * total) <= 4.0 * math.sqrt(total * p * (1 - p)), value
    assert_uncorrelated(x)


def test_sign_stream_statistics():
    x = np.sign(stream_matrix("sign"))
    assert np.all(np.abs(x) == 1.0)
    assert abs(x.sum()) <= 4.0 * math.sqrt(x.size)
    assert_uncorrelated(x)


def test_gaussian_stream_statistics():
    x = stream_matrix("gaussian")
    total = x.size
    assert abs(x.mean()) <= 4.0 / math.sqrt(total)
    # standard errors of the variance and the kurtosis of a standard normal
    assert abs(x.var() - 1.0) <= 4.0 * math.sqrt(2.0 / total)
    kurtosis = np.mean(x**4) / np.mean(x**2) ** 2
    assert abs(kurtosis - 3.0) <= 4.0 * math.sqrt(24.0 / total)
    assert_uncorrelated(x)


def test_identity_sketch_reproduces_matrix():
    a = random_matrix(6, 9, seed=1)
    b = sketch_matrix(a, SketchSpec("identity", r=9, seed=3))
    assert np.array_equal(b, a)
    with pytest.raises(ValueError, match="identity sketch requires"):
        sketch_matrix(a, SketchSpec("identity", r=5, seed=3))


def test_single_nonzero_column():
    a = np.zeros((4, 6))
    a[:, 2] = [1.0, -2.0, 0.5, 3.0]
    a = as_matrix(a)
    spec = SketchSpec("gaussian", r=3, seed=8)
    assert_allclose(sketch_matrix(a, spec), np.outer(a[:, 2], sketch_row(spec, 2)))


def test_sketch_matches_direct_product():
    a = random_matrix(30, 50, seed=21)
    spec = SketchSpec("gaussian", r=10, seed=4)
    direct = a @ materialize(spec, 50)
    got = sketch_matrix(a, spec)
    assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)


def test_partitioned_single_partition_equals_matrix():
    a = random_matrix(8, 12, seed=2)
    spec = SketchSpec("sign", r=6, seed=13)
    parts = split_contiguous(a, [12])
    assert np.array_equal(sketch_partitioned(parts, spec), sketch_matrix(a, spec))


def test_partitioned_reassociation():
    a = random_matrix(9, 10, seed=3)
    spec = SketchSpec("gaussian", r=5, seed=17)
    one = sketch_partitioned(split_contiguous(a, [10]), spec)
    two = sketch_partitioned(split_contiguous(a, [4, 6]), spec)
    assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(one)


def test_partitioned_three_way_matches_oracle():
    a = random_matrix(20, 40, seed=5)
    spec = SketchSpec("gaussian", r=8, seed=23)
    parts = split_contiguous(a, [14, 13, 13])
    direct = a @ materialize(spec, 40)
    got = sketch_partitioned(parts, spec)
    assert np.linalg.norm(got - direct) <= 1e-9 * np.linalg.norm(direct)


def test_partitioned_round_robin_order_independence():
    a = random_matrix(7, 12, seed=6)
    spec = SketchSpec("sparse-sign", r=9, seed=31)
    rr = [
        (a[:, 0::2], list(range(0, 12, 2))),
        (a[:, 1::2], list(range(1, 12, 2))),
    ]
    got = sketch_partitioned(rr, spec)
    want = sketch_matrix(a, spec)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["identity", "gaussian"])
def test_sketch_across_column_groups(kind):
    # 300 columns: every layout below takes more than one 128-column product,
    # and the round-robin index lists cross a group boundary
    a = random_matrix(12, 300, seed=9)
    spec = SketchSpec(kind, r=300 if kind == "identity" else 16, seed=29)
    direct = a @ materialize(spec, 300)
    layouts = {
        "matrix": sketch_matrix(a, spec),
        "one-partition": sketch_partitioned(split_contiguous(a, [300]), spec),
        "contiguous": sketch_partitioned(split_contiguous(a, [130, 170]), spec),
        "round-robin": sketch_partitioned(
            [(a[:, p::2], list(range(p, 300, 2))) for p in range(2)], spec
        ),
    }
    for layout, got in layouts.items():
        if kind == "identity":
            assert np.array_equal(got, a), layout
        else:
            assert np.linalg.norm(got - direct) <= 1e-12 * np.linalg.norm(direct), layout


def test_partitioned_validation():
    a = random_matrix(6, 8, seed=7)
    spec = SketchSpec("gaussian", r=4, seed=0)
    with pytest.raises(ValueError, match="at least one partition"):
        sketch_partitioned([], spec)
    with pytest.raises(ValueError, match="multiple partitions"):
        sketch_partitioned(
            [(a[:, :4], [0, 1, 2, 3]), (a[:, 3:], [3, 4, 5, 6, 7])], spec
        )
    with pytest.raises(ValueError, match="tile"):
        sketch_partitioned([(a[:, :4], [0, 1, 2, 5])], spec)
    with pytest.raises(ValueError, match="width"):
        sketch_partitioned([(a, [0, 1, 2, 3, 4, 5, 6])], spec)
    with pytest.raises(ValueError, match="row counts"):
        sketch_partitioned(
            [(a[:, :4], [0, 1, 2, 3]), (a[:2, 4:], [4, 5, 6, 7])], spec
        )


def test_distance_preservation_on_rows():
    x = random_matrix(100, 200, seed=41)
    spec = SketchSpec("gaussian", r=400, seed=19)
    y = x @ materialize(spec, 200)
    within = 0
    total = 0
    for i in range(100):
        diffs = x[i + 1 :] - x[i]
        sk_diffs = y[i + 1 :] - y[i]
        d0 = np.sum(diffs * diffs, axis=1)
        d1 = np.sum(sk_diffs * sk_diffs, axis=1)
        ratio = d1 / d0
        within += int(np.sum((ratio >= 0.7) & (ratio <= 1.3)))
        total += ratio.size
    assert total == 100 * 99 // 2
    assert within / total >= 0.95


def test_criterion_fidelity_under_sketching():
    hits = 0
    for trial in range(100):
        a = random_matrix(50, 80, seed=8000 + trial)
        cols = uniform_select(80, 5, seed=9000 + trial)
        spec = SketchSpec("gaussian", r=200, seed=trial)
        b = sketch_matrix(a, spec)
        exact = reconstruction_error(a, cols)
        q, _ = np.linalg.qr(a[:, cols])
        sketched = frobenius_sq(b - q @ (q.T @ b))
        if abs(sketched - exact) <= 0.35 * exact:
            hits += 1
    assert hits >= 90
