import time
import tracemalloc

import numpy as np
import pytest

import colsel
from colsel import (
    DistributedConfig,
    SketchSpec,
    distributed_select,
    frobenius_sq,
    generalized_select,
    greedy_select,
    map_phase,
    naive_distributed_baseline,
    naive_generalized_oracle,
    partition_columns,
    reconstruction_error,
    reduce_phase,
    relative_accuracy,
    sketch_matrix,
    sketch_partitioned,
)
from colsel.distributed import Partition, PartitionResult
from colsel.sketch import KINDS
from instances import lstsq_error, planted_partitioned, random_matrix, rank_two_beside_tiny


def gaussian_config(c, l, r, seed):
    return DistributedConfig(
        partitions=c, budget=l, sketch=SketchSpec("gaussian", r=r, seed=seed)
    )


def test_partition_single():
    a = random_matrix(5, 8, seed=0)
    parts = partition_columns(a, 1)
    assert len(parts) == 1
    assert np.array_equal(parts[0].matrix, a)
    assert list(parts[0].global_indices) == list(range(8))


@pytest.mark.parametrize("n, c", [(10, 3), (12, 4), (7, 7), (9, 1), (1000, 7)])
def test_partition_contiguous_sizes(n, c):
    a = random_matrix(4, n, seed=1)
    parts = partition_columns(a, c)
    assert [p.matrix.shape[1] for p in parts] == [n // c + (i < n % c) for i in range(c)]
    # contiguous maps in order, each block the view of its columns
    assert np.array_equal(np.concatenate([p.global_indices for p in parts]), np.arange(n))
    for p in parts:
        assert np.array_equal(p.matrix, a[:, p.global_indices])
        assert np.shares_memory(p.matrix, a)


def test_pipeline_holds_no_copy_of_the_input():
    a = planted_partitioned(200, 1600, n_generators=20, c=4, seed=3)
    assert all(np.shares_memory(p.matrix, a) for p in partition_columns(a, 4))
    cfg = DistributedConfig(partitions=4, budget=12, sketch=SketchSpec("gaussian", r=32, seed=5))
    tracemalloc.start()
    try:
        distributed_select(a, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Copied blocks alone would hold a.nbytes; the views hold nothing.
    assert peak <= 0.5 * a.nbytes


@pytest.mark.parametrize("kind", KINDS)
def test_partitions_and_results_are_the_block_pairs_each_phase_takes(kind):
    a = random_matrix(6, 10, seed=33)
    parts = partition_columns(a, 3)
    spec = SketchSpec(kind, r=10 if kind == "identity" else 4, seed=34)
    b = sketch_partitioned(parts, spec)
    pairs = [(p.matrix, p.global_indices) for p in parts]
    assert b.tobytes() == sketch_partitioned(pairs, spec).tobytes()
    mapped = [map_phase(p, b, 3) for p in parts]
    selection, winners, data = reduce_phase(mapped, b, 3)
    want = reduce_phase([(r.columns, r.global_indices) for r in mapped], b, 3)
    assert (selection, winners) == want[:2] and data.tobytes() == want[2].tobytes()
    columns = a[:, [4, 0]]
    result = PartitionResult(columns, [4, 0])
    assert result == PartitionResult(global_indices=[4, 0], columns=columns)
    first, second = tuple(result)
    assert first is columns and second == [4, 0]


def test_partition_validation():
    a = random_matrix(4, 3, seed=3)
    with pytest.raises(ValueError):
        partition_columns(a, 4)
    with pytest.raises(ValueError):
        partition_columns(a, 0)


def test_map_phase_target_in_span():
    rng = np.random.default_rng(4)
    block = random_matrix(10, 6, seed=5)
    b = np.asfortranarray(block[:, [0, 2]] @ rng.standard_normal((2, 4)))
    part = Partition(matrix=block, global_indices=np.arange(6))
    res = map_phase(part, b, l_b=4)
    assert lstsq_error(block, res.global_indices, b) <= 1e-9 * frobenius_sq(b)


def test_map_phase_single_pick_maximizes_first_criterion():
    block = random_matrix(9, 7, seed=6)
    b = random_matrix(9, 3, seed=7)
    part = Partition(matrix=block, global_indices=np.arange(10, 17))
    res = map_phase(part, b, l_b=1)
    cross = b.T @ block
    scores = np.sum(cross * cross, axis=0) / np.sum(block * block, axis=0)
    assert res.global_indices == [10 + int(np.argmax(scores))]


def test_map_phase_matches_naive_oracle():
    block = random_matrix(12, 9, seed=8)
    b = random_matrix(12, 5, seed=9)
    part = Partition(matrix=block, global_indices=np.arange(9))
    res = map_phase(part, b, l_b=3)
    oracle = naive_generalized_oracle(block, b, 3)
    assert res.global_indices == oracle.indices


def test_reduce_single_partition_passthrough():
    a = random_matrix(10, 8, seed=10)
    b = random_matrix(10, 4, seed=11)
    part = Partition(matrix=a, global_indices=np.arange(8))
    mapped = map_phase(part, b, l_b=3)
    selection, winners, data = reduce_phase([mapped], b, l=3)
    assert winners == mapped.global_indices
    assert np.array_equal(data, mapped.columns)


def test_map_phase_without_target_is_greedy_on_the_block():
    # A hand-built partition over a strided view: map_phase takes any index map.
    a = random_matrix(10, 14, seed=25)
    part = Partition(matrix=a[:, 1::3], global_indices=np.arange(1, 14, 3))
    res = map_phase(part, None, l_b=3)
    want = greedy_select(part.matrix, 3).indices
    assert res.global_indices == [int(part.global_indices[j]) for j in want]
    assert np.array_equal(res.columns, part.matrix[:, want])


def test_reduce_phase_without_target_is_greedy_on_the_union():
    a = random_matrix(10, 18, seed=26)
    mapped = [map_phase(p, None, l_b=3) for p in partition_columns(a, 3)]
    selection, winners, data = reduce_phase(mapped, None, l=4)
    union = np.asfortranarray(np.concatenate([r.columns for r in mapped], axis=1))
    union_globals = [g for r in mapped for g in r.global_indices]
    want = greedy_select(union, 4)
    assert selection.indices == want.indices
    assert selection.gains == want.gains
    assert winners == [union_globals[j] for j in want.indices]
    assert np.array_equal(data, union[:, want.indices])


def test_reduce_rejects_duplicate_globals():
    a = random_matrix(6, 4, seed=12)
    res = PartitionResult(global_indices=[2], columns=np.asfortranarray(a[:, [0]]))
    dup = PartitionResult(global_indices=[2], columns=np.asfortranarray(a[:, [1]]))
    with pytest.raises(ValueError, match="distinct"):
        reduce_phase([res, dup], random_matrix(6, 2, seed=13), l=2)


@pytest.mark.parametrize("indices", [[5], [5, 6, 7, 8]])
def test_reduce_rejects_a_result_whose_width_does_not_match_its_indices(indices):
    # fewer indices than columns would index past them; more would drop
    # the extra indices from the union
    res = PartitionResult(global_indices=indices, columns=random_matrix(6, 3, seed=14))
    with pytest.raises(ValueError, match="width does not match"):
        reduce_phase([res], None, l=2)


def test_reduce_rejects_an_empty_union():
    with pytest.raises(ValueError, match="at least one"):
        reduce_phase([], None, l=2)
    # a target orthogonal to the block: the map phase emits no columns
    block = np.zeros((4, 3), order="F")
    block[:2] = random_matrix(2, 3, seed=28)
    b = np.zeros((4, 2), order="F")
    b[2:] = random_matrix(2, 2, seed=29)
    mapped = map_phase(Partition(matrix=block, global_indices=np.arange(3)), b, l_b=2)
    assert mapped.global_indices == []
    # an empty union is not rejected: it has nothing to pick
    selection, winners, data = reduce_phase([mapped], b, l=2)
    assert selection.indices == winners == [] and selection.exhausted
    assert data.shape == (4, 0)


def test_reduce_full_union_beats_any_single_partition():
    a = random_matrix(15, 18, seed=14)
    b = sketch_matrix(a, SketchSpec("gaussian", r=6, seed=15))
    parts = partition_columns(a, 3)
    mapped = [map_phase(p, b, l_b=2) for p in parts]
    # keep the whole union so subset monotonicity applies exactly
    selection, winners, _ = reduce_phase(mapped, b, l=6)
    final = lstsq_error(a, winners, b)
    for res in mapped:
        alone = lstsq_error(a, res.global_indices, b)
        assert final <= alone + 1e-9 * frobenius_sq(b)


def test_reduce_value_matches_generalized_oracle():
    a = random_matrix(12, 15, seed=16)
    b = sketch_matrix(a, SketchSpec("gaussian", r=5, seed=17))
    parts = partition_columns(a, 3)
    mapped = [map_phase(p, b, l_b=3) for p in parts]
    selection, winners, data = reduce_phase(mapped, b, l=4)
    candidates = np.asfortranarray(np.concatenate([r.columns for r in mapped], axis=1))
    oracle = naive_generalized_oracle(candidates, b, 4)
    assert selection.indices == oracle.indices
    got = lstsq_error(data, list(range(data.shape[1])), b)
    want = frobenius_sq(b) - sum(oracle.gains)
    assert got == pytest.approx(want, rel=1e-9)


def test_reduce_exhaustion_flag_when_union_small():
    a = random_matrix(10, 6, seed=18)
    b = random_matrix(10, 3, seed=19)
    part = Partition(matrix=a, global_indices=np.arange(6))
    mapped = map_phase(part, b, l_b=2)
    selection, winners, _ = reduce_phase([mapped], b, l=5)
    assert selection.exhausted
    assert len(winners) <= 2


def test_reduce_flags_a_reconstructed_target():
    # the sketch is reconstructed after two picks, so the reduce stops short of l
    a = rank_two_beside_tiny()
    report = distributed_select(a, gaussian_config(c=4, l=6, r=8, seed=1))
    assert len(report.selected) == 2
    assert report.reduce_exhausted


@pytest.mark.parametrize("seed", range(5))
def test_pipeline_collapse_to_centralized_greedy(seed):
    a = random_matrix(11, 16, seed=seed + 700)
    cfg = DistributedConfig(
        partitions=1, budget=5, sketch=SketchSpec("identity", r=16, seed=seed)
    )
    report = distributed_select(a, cfg)
    assert report.selected == greedy_select(a, 5).indices


def test_sketch_invariant_to_partition_count():
    from colsel import sketch_partitioned

    a = random_matrix(10, 21, seed=20)
    spec = SketchSpec("gaussian", r=6, seed=33)
    b = sketch_matrix(a, spec)
    reference = None
    for c in (1, 2, 3, 7):
        parts = partition_columns(a, c)
        got = sketch_partitioned([(p.matrix, p.global_indices) for p in parts], spec)
        assert np.linalg.norm(got - b) <= 1e-12 * np.linalg.norm(b)
        if reference is None:
            reference = got
        else:
            assert np.linalg.norm(got - reference) <= 1e-12 * np.linalg.norm(reference)


def test_distributed_deterministic_across_runs_and_threads():
    a = random_matrix(14, 24, seed=21)
    cfg = gaussian_config(c=3, l=6, r=8, seed=42)
    reports = [distributed_select(a, cfg, threads=t) for t in (1, 4, None, 1)]
    first = reports[0]
    for rep in reports[1:]:
        assert rep.selected == first.selected
        assert rep.target_error == first.target_error
        assert rep.exact_error == first.exact_error
        assert rep.columns_moved == first.columns_moved


def test_distributed_report_accounting():
    a = random_matrix(13, 20, seed=22)
    cfg = gaussian_config(c=4, l=6, r=7, seed=1)
    report = distributed_select(a, cfg)
    assert report.columns_moved == 4 * 5  # c * min(l, partition width)
    assert report.broadcast_values == 4 * 13 * 7
    assert set(report.timings) == {"sketch", "map", "reduce", "total"}
    assert report.exact_error == pytest.approx(
        reconstruction_error(a, report.selected), rel=1e-12
    )


def test_report_total_covers_the_projection_errors(monkeypatch):
    errors = colsel.distributed._projection_errors

    def slow_errors(*args):
        time.sleep(0.05)
        return errors(*args)

    monkeypatch.setattr(colsel.distributed, "_projection_errors", slow_errors)
    report = distributed_select(random_matrix(12, 16, seed=62), gaussian_config(2, 4, 6, 0))
    timings = report.timings
    assert timings["total"] >= 0.05 + timings["sketch"] + timings["map"] + timings["reduce"]


def test_config_validation():
    spec = SketchSpec("gaussian", r=4, seed=0)
    a = random_matrix(4, 6, seed=0)
    # a config holds values; the pipeline checks them against the 6 columns
    with pytest.raises(ValueError, match="cannot split 6 columns into 0 partitions"):
        distributed_select(a, DistributedConfig(partitions=0, budget=3, sketch=spec))
    with pytest.raises(ValueError, match=r"budget l must satisfy 1 <= l <= 6, got 0"):
        distributed_select(a, DistributedConfig(partitions=2, budget=0, sketch=spec))
    cfg = DistributedConfig(partitions=4, budget=10, sketch=spec)
    assert cfg.resolved_partition_budget() == 10
    with pytest.raises(ValueError, match="requires a sketch"):
        distributed_select(random_matrix(4, 6, seed=0),
                           DistributedConfig(partitions=2, budget=2, sketch=None))
    with pytest.raises(ValueError, match="thread count"):
        distributed_select(random_matrix(4, 6, seed=0), cfg, threads=0)


def test_a_partition_with_no_nonzero_column_emits_nothing():
    a = random_matrix(30, 50, seed=3)
    a[:, :25] = 0.0
    cfg = gaussian_config(c=2, l=4, r=8, seed=0)
    zero_block = partition_columns(a, 2)[0]
    assert map_phase(zero_block, sketch_matrix(a, cfg.sketch), 4).global_indices == []
    report = distributed_select(a, cfg)
    assert len(report.selected) == 4 and min(report.selected) >= 25
    baseline = naive_distributed_baseline(a, cfg)
    assert len(baseline) == 4 and min(baseline) >= 25


def test_a_partition_with_no_column_emits_nothing():
    empty = Partition(matrix=np.zeros((6, 0), order="F"), global_indices=np.arange(0))
    b = random_matrix(6, 3, seed=30)
    for target in (b, None):
        mapped = map_phase(empty, target, l_b=2)
        assert mapped.global_indices == [] and mapped.columns.shape == (6, 0)


def test_phases_reject_a_budget_below_one():
    part = Partition(matrix=random_matrix(6, 4, seed=31), global_indices=np.arange(4))
    b = random_matrix(6, 3, seed=32)
    with pytest.raises(ValueError, match="budget l must satisfy 1 <= l"):
        map_phase(part, b, l_b=0)
    mapped = map_phase(part, b, l_b=2)
    with pytest.raises(ValueError, match="budget l must satisfy 1 <= l"):
        reduce_phase([mapped], b, l=0)


def test_naive_baseline_single_partition_is_greedy():
    a = random_matrix(9, 12, seed=23)
    cfg = DistributedConfig(partitions=1, budget=4, sketch=None)
    assert naive_distributed_baseline(a, cfg) == greedy_select(a, 4).indices


def test_naive_baseline_deterministic():
    a = random_matrix(9, 12, seed=24)
    cfg = DistributedConfig(partitions=3, budget=4, sketch=None)
    assert naive_distributed_baseline(a, cfg) == naive_distributed_baseline(a, cfg)


def test_naive_baseline_matches_written_out_reference():
    a = random_matrix(12, 30, seed=27)
    cfg = DistributedConfig(partitions=3, budget=6, sketch=None)
    l_b = cfg.resolved_partition_budget()
    # Greedy on each block, then greedy on the union of the picks.
    union_globals, union_blocks = [], []
    for part in partition_columns(a, 3):
        res = greedy_select(part.matrix, min(l_b, part.matrix.shape[1]))
        union_globals.extend(int(part.global_indices[j]) for j in res.indices)
        union_blocks.append(part.matrix[:, res.indices])
    union = np.asfortranarray(np.concatenate(union_blocks, axis=1))
    final = greedy_select(union, min(6, union.shape[1]))
    assert naive_distributed_baseline(a, cfg) == [union_globals[j] for j in final.indices]


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("kind", ["gaussian", "sign", "sparse-sign"])
def test_pipeline_matches_written_out_reference(kind, c):
    a = random_matrix(12, 30, seed=28)
    cfg = DistributedConfig(partitions=c, budget=6, sketch=SketchSpec(kind, r=5, seed=29))
    # The sketch summed in partition order, generalized selection on each
    # block against it, then on the union of the picks against it.
    parts = partition_columns(a, c)
    b = sketch_partitioned(parts, cfg.sketch)
    union_globals, union_blocks = [], []
    for part in parts:
        res = generalized_select(part.matrix, b, min(6, part.matrix.shape[1]))
        union_globals.extend(int(part.global_indices[j]) for j in res.indices)
        union_blocks.append(part.matrix[:, res.indices])
    union = np.asfortranarray(np.concatenate(union_blocks, axis=1))
    final = generalized_select(union, b, min(6, union.shape[1]))
    selected = [union_globals[j] for j in final.indices]
    report = distributed_select(a, cfg)
    assert report.selected == selected
    assert report.columns_moved == union.shape[1]
    assert report.reduce_exhausted == (len(selected) < 6)
    assert report.exact_error == reconstruction_error(a, selected)


def test_planted_instance_distributed_beats_naive():
    dist_errors, naive_errors, accuracies = [], [], []
    for seed in range(10):
        a = planted_partitioned(100, 400, n_generators=20, c=4, seed=seed)
        cfg = gaussian_config(c=4, l=20, r=100, seed=seed + 77)
        report = distributed_select(a, cfg)
        baseline = naive_distributed_baseline(a, cfg)
        dist_errors.append(report.exact_error)
        naive_errors.append(reconstruction_error(a, baseline))
        accuracies.append(
            relative_accuracy(a, report.selected, uniform_trials=10, seed=seed + 500)
        )
    assert np.mean(dist_errors) <= np.mean(naive_errors)
    assert np.mean(accuracies) > 0.0
