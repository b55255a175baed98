"""Matrix file formats: CSV, coordinate triplets, and a binary layout.

All loaders return validated column-major float64 arrays.  The binary
format is a fixed 8-byte magic, two little-endian uint64 dimensions, and
the entries as little-endian float64 in column-major order, matching the
column-streaming access pattern of the selection algorithms.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .linalg import as_matrix

MAGIC = b"CSELMAT1"
FORMATS = ("csv", "coordinate", "binary")

# Columns per finite-value check of a binary payload, which bounds the
# check's boolean mask to this many columns.
_CHECK_BLOCK = 128


class MatrixFormatError(ValueError):
    """A matrix file does not conform to its declared format."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        location = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{location}: {message}")


def _parse_float(token: str, path, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixFormatError(path, f"cannot parse {token!r} as a number", lineno)
    if not math.isfinite(value):
        raise MatrixFormatError(path, f"non-finite value {token!r}", lineno)
    return value


def _load_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            values = [_parse_float(tok, path, lineno) for tok in stripped.split(",")]
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise MatrixFormatError(
                    path, f"expected {width} columns, found {len(values)}", lineno
                )
            rows.append(values)
    if not rows:
        raise MatrixFormatError(path, "file contains no rows")
    return np.array(rows, dtype=np.float64, order="F")


def _load_coordinate(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(i, line.strip()) for i, line in enumerate(handle, start=1)]
    lines = [(i, line) for i, line in lines if line]
    if not lines:
        raise MatrixFormatError(path, "missing header line")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 3:
        raise MatrixFormatError(path, "header must be 'rows cols nnz'", head_no)
    try:
        m, n, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixFormatError(path, f"non-integer header {head!r}", head_no)
    if m < 1 or n < 1 or nnz < 0:
        raise MatrixFormatError(path, f"invalid header dimensions {head!r}", head_no)
    entries = lines[1:]
    if len(entries) != nnz:
        raise MatrixFormatError(
            path, f"expected {nnz} entries, found {len(entries)}", head_no
        )
    out = np.zeros((m, n), order="F")
    filled = set()
    for lineno, line in entries:
        parts = line.split()
        if len(parts) != 3:
            raise MatrixFormatError(path, "entry must be 'row col value'", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MatrixFormatError(path, f"non-integer indices in {line!r}", lineno)
        if not (0 <= i < m and 0 <= j < n):
            raise MatrixFormatError(
                path, f"index ({i}, {j}) out of bounds for {m}x{n}", lineno
            )
        if (i, j) in filled:
            raise MatrixFormatError(path, f"duplicate entry for ({i}, {j})", lineno)
        filled.add((i, j))
        out[i, j] = _parse_float(parts[2], path, lineno)
    return out


def _load_binary(path) -> np.ndarray:
    # The payload is read straight into the returned array: one copy, sized
    # from the file before reading.  No memory map, because a mapped array
    # faults once its file is truncated, as save_matrix to the same path does.
    with open(path, "rb") as handle:
        header = handle.read(24)
        if len(header) < 24 or header[:8] != MAGIC:
            raise MatrixFormatError(path, "missing or corrupt binary header")
        m, n = struct.unpack("<QQ", header[8:])
        if m < 1 or n < 1:
            raise MatrixFormatError(path, f"invalid dimensions {m}x{n}")
        expected = 8 * m * n
        size = os.fstat(handle.fileno()).st_size - len(header)
        if size == expected:
            data = np.empty((m, n), dtype="<f8", order="F")
            size = handle.readinto(data.reshape(-1, order="F"))
    if size != expected:
        raise MatrixFormatError(path, f"payload holds {size} bytes, expected {expected}")
    for start in range(0, n, _CHECK_BLOCK):
        if not np.all(np.isfinite(data[:, start:start + _CHECK_BLOCK])):
            raise MatrixFormatError(path, "payload contains non-finite values")
    return data


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def _write_csv(a: np.ndarray, handle) -> None:
    handle.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in a)


def load_matrix(path, fmt: str) -> np.ndarray:
    _check_format(fmt)
    return {"csv": _load_csv, "coordinate": _load_coordinate, "binary": _load_binary}[fmt](path)


def save_matrix(matrix: np.ndarray, path, fmt: str) -> None:
    a = as_matrix(matrix)
    _check_format(fmt)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as handle:
            _write_csv(a, handle)
    elif fmt == "coordinate":
        rows, cols = np.nonzero(a)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{a.shape[0]} {a.shape[1]} {rows.size}\n")
            for i, j in zip(rows, cols):
                handle.write(f"{i} {j} {a[i, j]:.17g}\n")
    else:
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
            # The column-major buffer itself, which tobytes would copy first.
            handle.write(np.asarray(a, dtype="<f8").ravel(order="F"))
