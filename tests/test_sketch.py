import hashlib
import math
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from colsel import (
    SketchSpec,
    as_matrix,
    frobenius_sq,
    map_phase,
    reconstruction_error,
    reduce_phase,
    sketch_matrix,
    sketch_partitioned,
    sketch_row,
    uniform_select,
)
from colsel.distributed import Partition
from colsel.sketch import column_seeds, counter_words, derive_seed, mix64_array, sample_columns
from instances import random_matrix


def materialize(spec, n):
    return np.vstack([sketch_row(spec, i) for i in range(n)])


def split_contiguous(a, sizes):
    parts, start = [], 0
    for size in sizes:
        parts.append((a[:, start : start + size], list(range(start, start + size))))
        start += size
    return parts


GOLDEN = 0x9E3779B97F4A7C15
MASK64 = 2**64 - 1


def mix64(z):
    """Pure-Python splitmix64 finalizer of z modulo 2**64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def column_seed(master, index):
    """Pure-Python row key of one column: mix64 takes it modulo 2**64."""
    return mix64(master + (index + 1) * GOLDEN)


def reference_seed(master, *parts):
    """Pure-Python derive_seed: a string label is its 8-byte blake2b digest."""
    state = mix64(int(master) ^ GOLDEN)
    for part in parts:
        if isinstance(part, str):
            part = int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "little")
        state = mix64((state + GOLDEN) ^ int(part))
    return state


def reference_row(spec, index):
    """Pure-Python projection row: word j is mix64(key + (j+1)*GOLDEN)."""
    r = spec.r
    key = column_seed(spec.seed, index)
    pairs = (r + 1) // 2
    words = [mix64(key + (j + 1) * GOLDEN) for j in range(2 * pairs)]
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
    with pytest.raises(ValueError, match="out of range"):
        sketch_row(SketchSpec("gaussian", r=4), -1)


def test_specs_that_draw_the_same_rows_are_equal():
    # A seed is taken modulo 2**64, so these specs draw the same rows.
    reduced = SketchSpec("gaussian", 4, seed=2**64 - 1)
    for seed in (-1, np.int64(-1), np.uint64(2**64 - 1)):
        spec = SketchSpec("gaussian", 4, seed=seed)
        assert np.array_equal(sketch_row(spec, 3), sketch_row(reduced, 3))
        assert spec == reduced and hash(spec) == hash(reduced)
        assert spec.seed == 2**64 - 1 and type(spec.seed) is int


@pytest.mark.parametrize("index", [True, 2.5, np.float64(2.0), "3", -1],
                         ids=["bool", "float", "float64", "string", "negative"])
@pytest.mark.parametrize("kind", ["gaussian", "identity"])
def test_sketch_row_takes_only_integer_indices(kind, index):
    with pytest.raises(ValueError, match="integers|out of range"):
        sketch_row(SketchSpec(kind, r=5), index)


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
    assert mix64_array(z).tolist() == [mix64(int(v)) for v in z]


def test_seeds_match_pure_python_reference():
    # masters and integer labels are taken modulo 2**64, numpy ints included
    masters = [0, 7, -1, -3, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 2**70 + 3,
               np.int64(-9), np.uint64(2**64 - 1), np.int32(12)]
    labels = [(), ("sketch",), ("",), ("hybrid-svd", "trial"), (0,), (-1,), (2**64 + 1,),
              (np.int64(-2), "x", 2**65), (np.uint64(5),)]
    indices = np.array([0, 1, 127, 128, 5000, 2**40])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # uint64 arithmetic must wrap, not warn
        for master in masters:
            for parts in labels:
                seed = derive_seed(master, *parts)
                assert type(seed) is int and seed == reference_seed(master, *parts)
            keys = column_seeds(master, indices)
            assert keys.dtype == np.uint64
            assert keys.tolist() == [column_seed(int(master), int(i)) for i in indices]
            words = counter_words(keys[:, None], 5)
            assert words.tolist() == [[mix64(k + (j + 1) * GOLDEN) for j in range(5)]
                                      for k in keys.tolist()]


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


def test_weighted_draws_never_take_a_zero_weight():
    # 5e-324 would overflow the quotient -log(u) / w, but not its logarithm
    weights = np.array([0.0, 1.0, 0.0, 2.0, 5.0, 0.0, 5e-324])
    for seed in range(1000):
        drawn = sample_columns(7, 3, seed, weights=weights).tolist()
        assert len(set(drawn)) == 3 and set(drawn) <= {1, 3, 4, 6}, seed
    assert sorted(sample_columns(7, 6, 0, weights=weights)) == [1, 3, 4, 6]


def test_weighted_first_draw_follows_the_weights():
    weights = np.array([1.0, 3.0])
    firsts = sum(sample_columns(2, 2, seed, weights=weights)[0] == 0 for seed in range(4000))
    assert abs(firsts - 1000) <= 4.0 * math.sqrt(4000 * 0.25 * 0.75)


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
    with pytest.raises(ValueError, match="distinct"):
        sketch_partitioned(
            [(a[:, :4], [0, 1, 2, 3]), (a[:, 3:], [3, 4, 5, 6, 7])], spec
        )
    with pytest.raises(ValueError, match="out of range"):
        sketch_partitioned([(a[:, :4], [0, 1, 2, 5])], spec)
    with pytest.raises(ValueError, match="width"):
        sketch_partitioned([(a, [0, 1, 2, 3, 4, 5, 6])], spec)
    with pytest.raises(ValueError, match="row counts"):
        sketch_partitioned(
            [(a[:, :4], [0, 1, 2, 3]), (a[:2, 4:], [4, 5, 6, 7])], spec
        )


@pytest.mark.parametrize("kind", ["gaussian", "identity"])
@pytest.mark.parametrize(
    "dtypes",
    [(np.int32, np.int32), (np.uint64, np.uint64), (np.int64, np.uint64)],
    ids=["int32", "uint64", "int64-uint64"],
)
def test_integer_index_maps_of_any_width_are_accepted(kind, dtypes):
    a = random_matrix(6, 10, seed=8)
    spec = SketchSpec(kind, r=10 if kind == "identity" else 4, seed=3)

    def pipeline(first, second):
        blocks = [(a[:, :4], np.arange(4, dtype=first)), (a[:, 4:], np.arange(4, 10, dtype=second))]
        b = sketch_partitioned(blocks, spec)
        mapped = [map_phase(Partition(pid, *block), b, 2) for pid, block in enumerate(blocks)]
        return b, [r.global_indices for r in mapped], reduce_phase(mapped, b, 3)[1]

    b, picks, winners = pipeline(*dtypes)
    want_b, want_picks, want_winners = pipeline(np.int64, np.int64)
    assert b.tobytes() == want_b.tobytes()
    assert picks == want_picks and winners == want_winners
    assert all(type(i) is int for p in picks for i in p)


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
