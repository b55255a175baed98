"""Deterministic sub-seed derivation and the counter-based mixer.

A single master seed drives every stochastic component.  Sub-seeds are
derived with the splitmix64 finalizer so that any consumer (a sketch row,
an evaluation trial, a nested SVD) can regenerate its stream from the
master seed and a stable label, independent of call order.  Every seed
passes one rule, ``linalg._as_seed``: a Python or numpy int, but no bool,
taken modulo 2**64.  The same finalizer, vectorized over uint64 arrays, is
the counter-based generator of the sketch rows (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

import numpy as np

from .linalg import _MASK64, _as_seed

_GOLDEN = 0x9E3779B97F4A7C15
# splitmix64 finalizer: xor-shift, multiply, xor-shift, multiply, xor-shift
_S1, _M1, _S2, _M2, _S3 = 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31


def as_uint64(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array, the operand form of uint64 arithmetic.

    Explicitly uint64, because numpy 1.x promotes uint64 combined with a
    Python int scalar to float64; and a 0-d array, because a binary op with
    a numpy scalar pays a scalar conversion on every call.
    """
    return np.array(value, dtype=np.uint64)


_U_S1, _U_M1, _U_S2, _U_M2, _U_S3 = map(as_uint64, (_S1, _M1, _S2, _M2, _S3))
_U_GOLDEN = as_uint64(_GOLDEN)
_U_ONE = as_uint64(1)


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> _S1)) * _M1) & _MASK64
    z = ((z ^ (z >> _S2)) * _M2) & _MASK64
    return z ^ (z >> _S3)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` of every element of a uint64 array, as a new array.

    uint64 array arithmetic wraps modulo 2**64, which is the mask of the
    scalar mixer.
    """
    z = z ^ (z >> _U_S1)
    z *= _U_M1
    z ^= z >> _U_S2
    z *= _U_M2
    z ^= z >> _U_S3
    return z


def derive_seed(master: int, *parts) -> int:
    """Mix a master seed with integer or string labels into a new 64-bit seed.

    A string label is hashed; the master and every other label pass the seed rule.
    """
    state = _mix64(_as_seed(master) ^ _GOLDEN)
    for part in parts:
        if isinstance(part, str):
            import hashlib  # deferred: the one place that hashes

            part = int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "little")
        state = _mix64((state + _GOLDEN) ^ _as_seed(part))
    return state


def column_seeds(master: int, indices: np.ndarray) -> np.ndarray:
    """Sketch-row keys ``mix64(master + (i + 1) * GOLDEN)`` of nonnegative column indices i."""
    offsets = (indices.astype(np.uint64) + _U_ONE) * _U_GOLDEN
    return mix64_array(as_uint64(_as_seed(master)) + offsets)


def counter_words(keys, count: int) -> np.ndarray:
    """Counter-based stream words ``mix64(key + (j + 1) * GOLDEN)``, j < count.

    ``keys`` is a (g, 1) uint64 column, one stream per key.
    """
    offsets = np.arange(1, count + 1, dtype=np.uint64) * _U_GOLDEN
    return mix64_array(keys + offsets)
