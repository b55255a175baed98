"""Random-projection sketching with per-column reproducible randomness.

Each row of the projection matrix is a pure function of (seed, global
column index), so partial sketches computed on different partitions,
threads, or machines agree exactly.  A partition's sketch is one product
per group of at most 128 of its columns with that group's stacked
projection rows, so at most 128 rows of the projection matrix are held at
a time; partial sketches are summed in partition order.  Row entries are
scaled by 1/sqrt(r) to make the sketch norm-preserving in expectation;
selection criteria are invariant to this uniform scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .seeds import column_seed

__all__ = ["SketchSpec", "sketch_row", "sketch_matrix", "sketch_partitioned"]

KINDS = ("gaussian", "sign", "sparse-sign", "identity")

# Columns per sketch product: bounds the stacked projection rows held at once
# to _BLOCK x r, also for the identity kind, where r is the column count.
_BLOCK = 128


@dataclass(frozen=True)
class SketchSpec:
    """Sketch family, target dimension and master seed."""

    kind: str
    r: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}, expected one of {KINDS}")
        if self.r < 1:
            raise ValueError(f"sketch dimension must be >= 1, got {self.r}")


def sketch_row(spec: SketchSpec, index: int) -> np.ndarray:
    """Row of the projection matrix for one global column index.

    Deterministic in (seed, index) alone; independent of call order and of
    which partition asks.
    """
    if index < 0:
        raise ValueError(f"column index must be nonnegative, got {index}")
    r = spec.r
    if spec.kind == "identity":
        if index >= r:
            raise ValueError(
                f"identity sketch of width {r} has no row for column {index}"
            )
        row = np.zeros(r)
        row[index] = 1.0
        return row
    rng = np.random.default_rng(column_seed(spec.seed, index))
    scale = 1.0 / np.sqrt(r)
    if spec.kind == "gaussian":
        return rng.standard_normal(r) * scale
    if spec.kind == "sign":
        return (2.0 * rng.integers(0, 2, size=r) - 1.0) * scale
    # sparse-sign: {+sqrt(3), 0, -sqrt(3)} with probabilities {1/6, 2/3, 1/6}
    buckets = rng.integers(0, 6, size=r)
    row = np.zeros(r)
    row[buckets == 0] = np.sqrt(3.0)
    row[buckets == 5] = -np.sqrt(3.0)
    return row * scale


def sketch_matrix(a: np.ndarray, spec: SketchSpec) -> np.ndarray:
    """Sketch of ``a``: the product with the implicit projection matrix."""
    return sketch_partitioned([(a, range(a.shape[1]))], spec)


def sketch_partitioned(
    partitions: Sequence[tuple[np.ndarray, Sequence[int]]], spec: SketchSpec
) -> np.ndarray:
    """Sketch a column-partitioned matrix from per-partition partial sums.

    ``partitions`` holds (matrix block, global column indices) pairs that
    must jointly tile the full matrix's columns.  Each partition's partial
    sketch is added to the result in partition order, one product per group
    of at most ``_BLOCK`` columns; the result matches :func:`sketch_matrix`
    on the concatenated matrix up to the order of summation.
    """
    if not partitions:
        raise ValueError("at least one partition is required")
    m = partitions[0][0].shape[0]
    seen: set[int] = set()
    total = 0
    for block, indices in partitions:
        if block.shape[0] != m:
            raise ValueError(
                f"inconsistent row counts across partitions: {block.shape[0]} != {m}"
            )
        if block.shape[1] != len(indices):
            raise ValueError("partition block width does not match its index map")
        for i in indices:
            i = int(i)
            if i in seen:
                raise ValueError(f"global column {i} appears in multiple partitions")
            seen.add(i)
        total += block.shape[1]
    if seen != set(range(total)):
        raise ValueError("partition index maps do not tile the columns exactly once")
    if spec.kind == "identity" and spec.r != total:
        raise ValueError(
            f"identity sketch requires r == {total} (the column count), got {spec.r}"
        )
    out = np.zeros((m, spec.r))
    for block, indices in partitions:
        for start in range(0, len(indices), _BLOCK):
            group = slice(start, start + _BLOCK)
            rows = np.vstack([sketch_row(spec, int(i)) for i in indices[group]])
            out += block[:, group] @ rows
    return out
