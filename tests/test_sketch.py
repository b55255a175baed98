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
from instances import random_matrix


def materialize(spec, n):
    return np.vstack([sketch_row(spec, i) for i in range(n)])


def split_contiguous(a, sizes):
    parts, start = [], 0
    for size in sizes:
        parts.append((a[:, start : start + size], list(range(start, start + size))))
        start += size
    return parts


def test_spec_validation():
    with pytest.raises(ValueError):
        SketchSpec("fourier", r=4)
    with pytest.raises(ValueError):
        SketchSpec("gaussian", r=0)


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
    with pytest.raises(ValueError, match="multiple partitions"):
        sketch_partitioned(
            [(a[:, :4], [0, 1, 2, 3]), (a[:, 3:], [3, 4, 5, 6, 7])], spec
        )
    with pytest.raises(ValueError, match="tile"):
        sketch_partitioned([(a[:, :4], [0, 1, 2, 5])], spec)
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
