"""Two-phase partitioned selection with a shared sketched target.

Shaped like a map/reduce job run in-process: every partition independently
selects columns that reconstruct the shared sketch, then a single reduce
step selects the final columns from the union of the per-partition picks.
Both phases share one kernel that selects from a column block and gathers
the picks' global indices and data.  Only the picked columns cross the phase
boundary; the report tracks that data movement and the sketch broadcast cost.

Both phases take the target ``b=None`` to mean that the candidates are
their own target.  The naive baseline is the same two phases run that way:
each partition approximates only its own block, and the reduce step only
the union.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .greedy import SelectionResult, _check_budget, _select
from .linalg import _is_int_type, _projection_errors, check_column_set
from .sketch import SketchSpec, sketch_partitioned


@dataclass(frozen=True)
class DistributedConfig:
    """Partitioning, budget and sketch parameters for one pipeline run.

    A plain record, which the pipeline checks in full against the input's
    columns.  The sketch may be omitted only for the naive baseline, which
    never builds a shared target.
    """

    partitions: int
    budget: int
    sketch: SketchSpec | None

    def resolved_partition_budget(self) -> int:
        # As in the paper, every partition selects up to the global budget, so
        # the reduce step chooses among up to c * l candidates.
        return self.budget


@dataclass(frozen=True)
class Partition:
    """One column block of the input matrix with its global index map."""

    pid: int
    matrix: np.ndarray
    global_indices: np.ndarray


@dataclass(frozen=True)
class PartitionResult:
    """Columns one partition emits to the reduce phase."""

    pid: int
    global_indices: list[int]
    columns: np.ndarray


def partition_columns(a: np.ndarray, c: int) -> list[Partition]:
    """Split the columns of ``a`` into ``c`` contiguous blocks, as views of ``a``.

    The first ``n % c`` blocks hold one column more than the rest.  Other
    layouts can be built as :class:`Partition` objects by hand.
    """
    n = a.shape[1]
    if not _is_int_type(type(c)) or c < 1 or c > n:
        raise ValueError(f"cannot split {n} columns into {c} partitions")
    parts = []
    base, extra = divmod(n, c)
    start = 0
    for pid in range(c):
        stop = start + base + (1 if pid < extra else 0)
        parts.append(Partition(pid, a[:, start:stop], np.arange(start, stop)))
        start = stop
    return parts


def _select_columns(
    block: np.ndarray, b: np.ndarray | None, l: int, global_indices: list[int]
) -> tuple[SelectionResult, list[int], np.ndarray]:
    """Select up to ``l`` columns of ``block``: the picks, their global indices and data."""
    # neither phase knows the full column count, so no budget is too large
    _check_budget(l, sys.maxsize)
    selection = _select(block, b, l)
    picked = [global_indices[j] for j in selection.indices]
    return selection, picked, np.asfortranarray(block[:, selection.indices])


def map_phase(partition: Partition, b: np.ndarray | None, l_b: int) -> PartitionResult:
    """Select up to ``l_b`` columns of one partition against the shared target.

    With ``b=None`` the partition's own block is the target.  The index map
    holds one index per block column and passes ``check_column_set``.  A
    zero or 0-column block emits no column.
    """
    # neither phase knows the full column count, so no index is too large
    indices = check_column_set(partition.global_indices, sys.maxsize)
    if partition.matrix.shape[1] != len(indices):
        raise ValueError("partition block width does not match its index map")
    _, picked, columns = _select_columns(partition.matrix, b, l_b, indices)
    return PartitionResult(pid=partition.pid, global_indices=picked, columns=columns)


def reduce_phase(
    results: list[PartitionResult], b: np.ndarray | None, l: int
) -> tuple[SelectionResult, list[int], np.ndarray]:
    """Final selection over the union of per-partition picks.

    With ``b=None`` the union itself is the target.  Each result holds one
    column per global index; the indices and their union pass
    ``check_column_set``.  Returns the selection over the concatenated
    candidates, the winners' global indices and column data.  The
    exhausted flag is set whenever fewer than ``l`` columns come back: the
    union is smaller or empty, the candidates run out or ``b`` is already
    reconstructed.
    """
    if not results:
        raise ValueError("reduce phase needs at least one partition result")
    ordered = sorted(results, key=lambda r: r.pid)
    indices = [check_column_set(r.global_indices, sys.maxsize) for r in ordered]
    if any(np.shape(r.columns)[1:] != (len(i),) for r, i in zip(ordered, indices)):
        raise ValueError("partition result width does not match its global indices")
    union_globals = check_column_set(chain(*indices), sys.maxsize)
    candidates = np.asfortranarray(
        np.concatenate([r.columns for r in ordered], axis=1)
    )
    selection, winners, data = _select_columns(candidates, b, l, union_globals)
    return replace(selection, exhausted=len(selection.indices) < l), winners, data


@dataclass(frozen=True)
class DistributedReport:
    """Selection outcome plus the cost accounting of one pipeline run.

    ``columns_moved`` counts the column vectors crossing the map/reduce
    boundary; ``broadcast_values`` counts the shared-sketch values sent to
    every partition, mirroring a cluster's network cost even though the
    in-process sketch is shared by reference.
    """

    selected: list[int]
    target_error: float
    exact_error: float
    columns_moved: int
    broadcast_values: int
    reduce_exhausted: bool
    timings: dict[str, float] = field(default_factory=dict)


def distributed_select(
    a: np.ndarray, config: DistributedConfig, threads: int | None = None
) -> DistributedReport:
    """Run the full pipeline: sketch, per-partition selection, reduce.

    Map tasks run one after another in partition order.  ``threads`` is
    still validated (>= 1) but no longer changes the run: BLAS already uses
    every core inside each task, and on a 2-core host a thread pool made the
    map phase slower, not faster.  A budget past the column count raises
    ``ValueError``, as in :func:`greedy_select`.
    """
    if config.sketch is None:
        raise ValueError("distributed selection requires a sketch spec")
    if threads is not None and (not _is_int_type(type(threads)) or threads < 1):
        raise ValueError(f"thread count must be >= 1, got {threads}")
    _check_budget(config.budget, a.shape[1])
    t0 = time.perf_counter()
    parts = partition_columns(a, config.partitions)
    b = sketch_partitioned([(p.matrix, p.global_indices) for p in parts], config.sketch)
    t_sketch = time.perf_counter()

    map_results = [map_phase(p, b, config.budget) for p in parts]
    t_map = time.perf_counter()

    selection, winners, _ = reduce_phase(map_results, b, config.budget)
    t_reduce = time.perf_counter()

    columns_moved = sum(len(r.global_indices) for r in map_results)
    target_error, exact_error = _projection_errors(a, winners, [b, a])
    return DistributedReport(
        selected=winners,
        target_error=target_error,
        exact_error=exact_error,
        columns_moved=columns_moved,
        broadcast_values=config.partitions * a.shape[0] * config.sketch.r,
        reduce_exhausted=selection.exhausted,
        timings={
            "sketch": t_sketch - t0,
            "map": t_map - t_sketch,
            "reduce": t_reduce - t_map,
            "total": time.perf_counter() - t0,
        },
    )


def naive_distributed_baseline(a: np.ndarray, config: DistributedConfig) -> list[int]:
    """Both phases without a shared target: each block and then the union is its own.

    Each partition greedily approximates only its own block, which is the
    failure mode the shared sketch avoids: locally dominant columns win
    even when they are globally irrelevant.  A budget past the column count
    raises ``ValueError``.
    """
    _check_budget(config.budget, a.shape[1])
    parts = partition_columns(a, config.partitions)
    mapped = [map_phase(p, None, config.budget) for p in parts]
    _, winners, _ = reduce_phase(mapped, None, config.budget)
    return winners
