"""Random-projection sketching and the counter-based stream behind every draw.

One master seed drives every stochastic component through one splitmix64
stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), with ``mix64`` its finalizer and GOLDEN 0x9E3779B97F4A7C15.
:func:`derive_seed` mixes a master seed with stable labels into a
sub-seed, so that any consumer (an evaluation trial, a nested SVD, the
sketch) regenerates its stream independent of call order.  Every seed
passes one rule, :func:`_as_seed`: a Python or numpy int, but no bool,
taken modulo 2**64.  Column i of a stream is keyed by
``key = mix64(seed + (i+1)*GOLDEN)``, and its word j is
``mix64(key + (j+1)*GOLDEN)``.

:func:`sample_columns` draws columns by their keys alone: the smallest keys
for a uniform draw, an exponential race for a weighted one.  The sketch's
projection row of column i comes from its words, so partial sketches on
different partitions, threads, or machines agree exactly.
``sign`` takes entry j's sign from the top bit of word j and
``sparse-sign`` its bucket from the top bits; for ``gaussian`` each word
gives a 53-bit uniform in (0, 1] and words k and k + ceil(r/2) give
entries k and k + ceil(r/2) as one Box-Muller pair.  Uniform draws and the
integer kinds are the same on every numpy build and CPU; weighted draws and
``gaussian`` entries may differ in the last ulp across CPUs, where numpy's
SIMD ``log``/``cos``/``sin`` differ.

A partition's sketch is one product per group of at most 128 of its columns
with their projection rows, so at most 128 rows are held at a time; partial
sketches are summed in partition order.  The ``identity`` kind adds each
partition's columns into their global columns of the sketch.  Row entries
are scaled by 1/sqrt(r), which makes the sketch norm-preserving in
expectation and leaves every selection criterion unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import _is_int_type, check_blocks, check_column_set

KINDS = ("gaussian", "sign", "sparse-sign", "identity")

# Columns per sketch product of the random kinds: bounds the stacked
# projection rows held at once to _BLOCK x r.
_BLOCK = 128


@dataclass(frozen=True)
class SketchSpec:
    """Sketch family, dimension (count rule) and master seed (seed rule), checked when built."""

    kind: str
    r: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}, expected one of {KINDS}")
        if not _is_int_type(type(self.r)) or self.r < 1:
            raise ValueError(f"sketch dimension must be >= 1, got {self.r}")
        object.__setattr__(self, "seed", _as_seed(self.seed))


def as_uint64(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array, the operand form of uint64 arithmetic.

    Explicitly uint64, because numpy 1.x promotes uint64 combined with a
    Python int scalar to float64; and a 0-d array, because a binary op with
    a numpy scalar pays a scalar conversion on every call.
    """
    return np.array(value, dtype=np.uint64)


# splitmix64 finalizer: xor-shift, multiply, xor-shift, multiply, xor-shift
_S1, _M1, _S2, _M2, _S3 = map(as_uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))
_GOLDEN = as_uint64(0x9E3779B97F4A7C15)
_U1, _U6, _U11, _U12, _U53 = map(as_uint64, (1, 6, 11, 12, 53))
_SIGN_BIT = as_uint64(1 << 63)
_MASK64 = (1 << 64) - 1


def mix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of every element of a uint64 array, as a new array.

    uint64 array arithmetic wraps modulo 2**64 without a warning; numpy
    scalar arithmetic may warn instead, so a lone value is a 1-element array.
    """
    z = z ^ (z >> _S1)
    z *= _M1
    z ^= z >> _S2
    z *= _M2
    z ^= z >> _S3
    return z


def _as_seed(seed) -> int:
    """The seed rule: an integer by the type rule of counts, as a Python int modulo 2**64."""
    if not _is_int_type(type(seed)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def derive_seed(master: int, *parts) -> int:
    """Mix a master seed with integer or string labels into a new 64-bit seed.

    A string label is hashed; the master and every other label pass the seed rule.
    """
    state = mix64_array(np.array([_as_seed(master)], dtype=np.uint64) ^ _GOLDEN)
    for part in parts:
        if isinstance(part, str):
            import hashlib  # deferred: the one place that hashes

            part = int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "little")
        state = mix64_array((state + _GOLDEN) ^ as_uint64(_as_seed(part)))
    return int(state[0])


def column_seeds(master: int, indices: np.ndarray) -> np.ndarray:
    """Sketch-row keys ``mix64(master + (i + 1) * GOLDEN)`` of nonnegative column indices i."""
    offsets = (indices.astype(np.uint64) + _U1) * _GOLDEN
    return mix64_array(as_uint64(_as_seed(master)) + offsets)


def counter_words(keys, count: int) -> np.ndarray:
    """Counter-based stream words ``mix64(key + (j + 1) * GOLDEN)``, j < count.

    ``keys`` is a (g, 1) uint64 column, one stream per key.
    """
    offsets = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    return mix64_array(keys + offsets)


_TWO_TO_MINUS_52, _TWO_TO_MINUS_53 = np.array(2.0**-52), np.array(2.0**-53)
_TWO_PI = np.array(2.0 * np.pi)
# sparse-sign values of the six equally likely buckets of a word
_SPARSE_VALUES = np.sqrt(3.0) * np.array([1.0, 0.0, 0.0, 0.0, 0.0, -1.0])


def _stream_rows(kind: str, r: int, keys) -> np.ndarray:
    """Projection rows of the random kinds from uint64 column keys.

    ``keys`` is a (g, 1) column of keys, one per row.  Row i depends on its
    key and ``r`` alone, and every operation is elementwise, so a row comes
    out the same alone or in any group.
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


def sample_columns(n: int, k: int, seed: int, draw: int = 0, weights=None) -> np.ndarray:
    """Draw ``draw`` of ``seed``: k distinct columns of ``range(n)``, in the order drawn.

    Column i's key is ``column_seeds(derive_seed(seed, draw), [i])``.  A
    uniform draw takes the k smallest keys.  A weighted one races
    ``-log(u_i) / w_i`` (Efraimidis & Spirakis, IPL 2006), in the log domain
    so that no quotient overflows, with u_i in (0, 1) from the key's top 52
    bits; only the columns of positive weight (at least one) race, so at
    most their count is drawn.
    """
    columns = np.arange(n) if weights is None else np.flatnonzero(weights > 0)
    keys = column_seeds(derive_seed(seed, draw), columns)
    if weights is not None:
        uniforms = ((keys >> _U12) + 0.5) * _TWO_TO_MINUS_52
        keys = np.log(-np.log(uniforms)) - np.log(weights[columns])
    k = min(k, columns.size)
    first = np.argpartition(keys, k - 1)[:k]
    return columns[first[np.argsort(keys[first])]]


def sketch_row(spec: SketchSpec, index: int) -> np.ndarray:
    """Row of the projection matrix for one global column index.

    Deterministic in (seed, index) alone; independent of call order and of
    which partition asks.  Bit-identical to the row that
    :func:`sketch_partitioned` applies for the same index.  ``index`` passes
    :func:`check_column_set`, below ``r`` for the identity kind.
    """
    r = spec.r
    (index,) = check_column_set([index], r if spec.kind == "identity" else sys.maxsize)
    if spec.kind == "identity":
        return np.eye(1, r, index)[0]
    return _stream_rows(spec.kind, r, column_seeds(spec.seed, np.array([index]))[:, None])[0]


def sketch_matrix(a: np.ndarray, spec: SketchSpec) -> np.ndarray:
    """Sketch of ``a``: the product with the implicit projection matrix."""
    return sketch_partitioned([(a, range(a.shape[1]))], spec)


def sketch_partitioned(
    partitions: Sequence[tuple[np.ndarray, Sequence[int]]], spec: SketchSpec
) -> np.ndarray:
    """Sketch a column-partitioned matrix from per-partition partial sums.

    ``partitions`` holds blocks that pass :func:`linalg.check_blocks` for
    their summed widths, so they tile the columns.  Each partition's partial
    sketch is added in list order, one product per group of at most
    ``_BLOCK`` columns; the result matches :func:`sketch_matrix` on the
    concatenated matrix up to the order of summation.
    """
    total = sum(block.shape[1] for block, _ in partitions)
    maps = check_blocks(partitions, total)
    if spec.kind == "identity" and spec.r != total:
        raise ValueError(
            f"identity sketch requires r == {total} (the column count), got {spec.r}"
        )
    out = np.zeros((partitions[0][0].shape[0], spec.r))
    for (block, _), indices in zip(partitions, maps):
        indices = np.array(indices, dtype=np.int64)
        if spec.kind == "identity":
            # 0.0 + x is x, but for -0.0, which becomes +0.0 as in the product
            out[:, indices] += block
            continue
        for start in range(0, len(indices), _BLOCK):
            group = slice(start, start + _BLOCK)
            keys = column_seeds(spec.seed, indices[group])[:, None]
            out += block[:, group] @ _stream_rows(spec.kind, spec.r, keys)
    return out
