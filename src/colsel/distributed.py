"""Two-phase partitioned selection with a shared sketched target.

Shaped like a map/reduce job run in-process: every partition independently
selects columns that reconstruct the shared sketch, then a reduce step
selects the final columns from the union of the per-partition picks.  Both
phases are one selection over a list of column blocks, ``(columns, global
index map)`` pairs as a :class:`Partition` and a :class:`PartitionResult`
are (:func:`linalg.check_blocks`): :func:`reduce_phase` joins the blocks in
list order, the one partition order, in which the sketch also sums its
partial sketches, and the map step is that selection on one block.  Only
the picked columns cross the phase boundary; the report tracks that data
movement and the sketch broadcast cost.

One driver runs both the pipeline and the naive baseline, which is the two
phases with no sketch: with the target ``b=None`` each block, and then the
union, is its own target.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .greedy import SelectionResult, _check_budget, _select
from .linalg import _is_int_type, _projection_errors, check_blocks
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


class Partition(NamedTuple):
    """One column block of the input matrix with its global index map."""

    matrix: np.ndarray
    global_indices: np.ndarray


class PartitionResult(NamedTuple):
    """The block of columns one partition emits to the reduce phase."""

    columns: np.ndarray
    global_indices: list[int]


def partition_columns(a: np.ndarray, c: int) -> list[Partition]:
    """Split the columns of ``a`` into ``c`` contiguous blocks, as views of ``a``.

    The first ``n % c`` blocks hold one column more than the rest, as in
    ``np.array_split``.  Other layouts can be built as :class:`Partition`
    objects by hand.
    """
    n = a.shape[1]
    if not _is_int_type(type(c)) or c < 1 or c > n:
        raise ValueError(f"cannot split {n} columns into {c} partitions")
    return [Partition(a[:, ix[0]:ix[-1] + 1], ix) for ix in np.array_split(np.arange(n), c)]


def map_phase(partition: Partition, b: np.ndarray | None, l_b: int) -> PartitionResult:
    """Select up to ``l_b`` columns of one partition against the shared target.

    The reduce step run on the one block: :func:`reduce_phase` of
    ``[partition]``.  With ``b=None`` the partition's own block is the
    target.  A zero or 0-column block emits no column.
    """
    _, picked, columns = reduce_phase([partition], b, l_b)
    return PartitionResult(columns, picked)


def reduce_phase(
    results: list[tuple], b: np.ndarray | None, l: int
) -> tuple[SelectionResult, list[int], np.ndarray]:
    """The one selection of both phases: up to ``l`` columns of the blocks joined in list order.

    The reduce step runs it on the map outputs, :func:`map_phase` on one
    partition; with ``b=None`` the joined blocks are their own target.
    Returns the selection, the winners' global indices and column data.
    Its exhausted flag is set whenever fewer than ``l`` columns come back:
    the blocks hold fewer, they run out or ``b`` is already reconstructed.
    """
    # neither phase knows the full column count, so no index or budget is too large
    union = list(chain(*check_blocks(results, sys.maxsize)))
    _check_budget(l, sys.maxsize)
    # a lone block is selected from as it is, with no copy
    candidates = results[0][0] if len(results) == 1 else np.asfortranarray(
        np.concatenate([columns for columns, _ in results], axis=1))
    selection = _select(candidates, b, l)
    winners = [union[j] for j in selection.indices]
    data = np.asfortranarray(candidates[:, selection.indices])
    return replace(selection, exhausted=len(winners) < l), winners, data


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


def _run_phases(a: np.ndarray, config: DistributedConfig):
    """The pipeline's driver: partition, sketch when ``config`` has a spec, map and reduce.

    Returns the target (``None`` without a spec), the map outputs, the
    reduce step's selection and winners, and the sketch, map and reduce times.
    """
    _check_budget(config.budget, a.shape[1])
    t0 = time.perf_counter()
    parts = partition_columns(a, config.partitions)
    b = None if config.sketch is None else sketch_partitioned(parts, config.sketch)
    t_sketch = time.perf_counter()
    mapped = [map_phase(p, b, config.budget) for p in parts]
    t_map = time.perf_counter()
    selection, winners, _ = reduce_phase(mapped, b, config.budget)
    timings = {"sketch": t_sketch - t0, "map": t_map - t_sketch,
               "reduce": time.perf_counter() - t_map}
    return b, mapped, selection, winners, timings


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
    t0 = time.perf_counter()
    b, mapped, selection, winners, timings = _run_phases(a, config)
    target_error, exact_error = _projection_errors(a, winners, [b, a])
    return DistributedReport(
        selected=winners,
        target_error=target_error,
        exact_error=exact_error,
        columns_moved=sum(len(r.global_indices) for r in mapped),
        broadcast_values=config.partitions * a.shape[0] * config.sketch.r,
        reduce_exhausted=selection.exhausted,
        timings={**timings, "total": time.perf_counter() - t0},
    )


def naive_distributed_baseline(a: np.ndarray, config: DistributedConfig) -> list[int]:
    """Both phases without a shared target: each block and then the union is its own.

    The pipeline's driver with the sketch left out, so each partition
    greedily approximates only its own block, which is the failure mode
    the shared sketch avoids: locally dominant columns win even when they
    are globally irrelevant.  A budget past the column count raises
    ``ValueError``.
    """
    return _run_phases(a, replace(config, sketch=None))[3]
