"""Random-projection sketching with per-column reproducible randomness.

Each row of the projection matrix is a pure function of (seed, global
column index), so partial sketches computed on different partitions,
threads, or machines agree exactly.  The row of column i is drawn from a
counter-based stream: word j is ``mix64(column_seed(seed, i) + (j+1)*GOLDEN)``
(splitmix64, see :mod:`colsel.seeds`).  ``sign`` takes entry j's sign from
the top bit of word j and ``sparse-sign`` its bucket from the top bits; for
``gaussian`` each word gives a 53-bit uniform in (0, 1] and words k and
k + ceil(r/2) give entries k and k + ceil(r/2) as one Box-Muller pair.
Rows are bit-identical however they are grouped on one numpy build;
``gaussian`` entries may differ in the last ulp across CPUs, where numpy's
SIMD ``log``/``cos``/``sin`` differ.

A partition's sketch is one product per group of at most 128 of its columns
with that group's stacked projection rows, generated in one vectorized
pass, so at most 128 rows of the projection matrix are held at a time;
partial sketches are summed in partition order.  Row entries are scaled by
1/sqrt(r) to make the sketch norm-preserving in expectation; selection
criteria are invariant to this uniform scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .seeds import as_uint64, column_seed, column_seeds, counter_words

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


# operands as 0-d arrays, for the reasons given at seeds.as_uint64
_U1, _U6, _U11, _U53 = map(as_uint64, (1, 6, 11, 53))
_SIGN_BIT = as_uint64(1 << 63)
_TWO_TO_MINUS_53 = np.array(2.0**-53)
_TWO_PI = np.array(2.0 * np.pi)
# sparse-sign values of the six equally likely buckets of a word
_SPARSE_VALUES = np.sqrt(3.0) * np.array([1.0, 0.0, 0.0, 0.0, 0.0, -1.0])


def _stream_rows(kind: str, r: int, keys) -> np.ndarray:
    """Projection rows of the random kinds from uint64 column keys.

    ``keys`` is one key (a 0-d uint64 array, for one row of shape (r,)) or
    a (g, 1) column of keys (for g rows).  Row i depends on its key and ``r``
    alone, and every operation is elementwise, so a row comes out the same
    alone or in any group.
    """
    if kind == "sign":
        scale = 1.0 / math.sqrt(r)
        return np.where(counter_words(keys, r) < _SIGN_BIT, scale, -scale)
    if kind == "sparse-sign":
        # bucket floor(6u) of the top 53 bits: {+sqrt(3), 0, -sqrt(3)} with
        # probabilities {1/6, 2/3, 1/6}
        buckets = ((counter_words(keys, r) >> _U11) * _U6) >> _U53
        return (_SPARSE_VALUES / math.sqrt(r))[buckets]
    # Box-Muller on 53-bit uniforms in (0, 1], in place in one buffer: words
    # k and pairs + k give entries k (cosine) and pairs + k (sine), and the
    # 1/sqrt(r) scale is folded into the radius
    pairs = (r + 1) // 2
    rows = ((counter_words(keys, 2 * pairs) >> _U11) + _U1) * _TWO_TO_MINUS_53
    first, second = rows[..., :pairs], rows[..., pairs:]
    radius = np.sqrt(np.log(first) * (-2.0 / r))
    second *= _TWO_PI
    np.cos(second, out=first)
    np.sin(second, out=second)
    first *= radius
    second *= radius
    return rows[..., :r]


def _projection_rows(spec: SketchSpec, indices: np.ndarray) -> np.ndarray:
    """Stacked projection rows of a group of global column indices."""
    if spec.kind == "identity":
        rows = np.zeros((len(indices), spec.r))
        rows[np.arange(len(indices)), indices] = 1.0
        return rows
    keys = column_seeds(spec.seed, indices)[:, None]
    return _stream_rows(spec.kind, spec.r, keys)


def sketch_row(spec: SketchSpec, index: int) -> np.ndarray:
    """Row of the projection matrix for one global column index.

    Deterministic in (seed, index) alone; independent of call order and of
    which partition asks.  Bit-identical to the row that
    :func:`sketch_partitioned` generates for the same index.
    """
    if index < 0:
        raise ValueError(f"column index must be nonnegative, got {index}")
    r = spec.r
    if spec.kind == "identity":
        if index >= r:
            raise ValueError(
                f"identity sketch of width {r} has no row for column {index}"
            )
        return _projection_rows(spec, np.array([index]))[0]
    # the random kinds take the scalar key: a one-row group costs more
    return _stream_rows(spec.kind, r, as_uint64(column_seed(spec.seed, index)))


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
            rows = _projection_rows(spec, np.asarray(indices[group]))
            out += block[:, group] @ rows
    return out
