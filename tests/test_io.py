import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from colsel import load_matrix, save_matrix
from colsel.matrixio import MAGIC, MatrixFormatError
from instances import random_matrix


def test_csv_identity(tmp_path):
    path = tmp_path / "eye.csv"
    path.write_text("1,0\n0,1\n")
    assert_array_equal(load_matrix(path, "csv"), np.eye(2))


def test_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixFormatError, match=":2"):
        load_matrix(path, "csv")
    path.write_text("1,2\n3\n")
    with pytest.raises(MatrixFormatError, match=":2"):
        load_matrix(path, "csv")
    path.write_text("1,2\n3,inf\n")
    with pytest.raises(MatrixFormatError, match="non-finite"):
        load_matrix(path, "csv")
    path.write_text("")
    with pytest.raises(MatrixFormatError, match="no rows"):
        load_matrix(path, "csv")


def test_coordinate_basics(tmp_path):
    path = tmp_path / "coo.txt"
    path.write_text("2 2 1\n0 1 3.5\n")
    assert_array_equal(load_matrix(path, "coordinate"), [[0.0, 3.5], [0.0, 0.0]])


def test_coordinate_errors(tmp_path):
    path = tmp_path / "coo.txt"
    path.write_text("2 2 1\n0 5 3.5\n")
    with pytest.raises(MatrixFormatError, match="out of bounds"):
        load_matrix(path, "coordinate")
    path.write_text("2 2 2\n0 1 3.5\n0 1 4.0\n")
    with pytest.raises(MatrixFormatError, match="duplicate"):
        load_matrix(path, "coordinate")
    path.write_text("2 2 3\n0 1 3.5\n")
    with pytest.raises(MatrixFormatError, match="expected 3 entries"):
        load_matrix(path, "coordinate")
    for text, message in [
        ("nope\n", "header must be"),
        ("\n\n", "missing header"),
        ("2 x 1\n0 1 3.5\n", "non-integer header"),
        ("0 2 0\n", "invalid header dimensions"),
        ("2 2 -1\n", "invalid header dimensions"),
        ("2 2 1\n0 1\n", "entry must be"),
        ("2 2 1\n0 a 3.5\n", "non-integer indices"),
        ("2 2 1\n0 1 nan\n", "non-finite"),
    ]:
        path.write_text(text)
        with pytest.raises(MatrixFormatError, match=message):
            load_matrix(path, "coordinate")


def test_binary_round_trip_bit_identical(tmp_path):
    a = random_matrix(7, 5, seed=0)
    path = tmp_path / "mat.bin"
    save_matrix(a, path, "binary")
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    back = load_matrix(path, "binary")
    assert back.shape == a.shape
    assert back.dtype == np.float64 and back.flags.f_contiguous
    assert np.array_equal(back, a)
    # Saving over the file the array was loaded from must not disturb the
    # array, as it would if the array were a memory map of that file.
    save_matrix(back, path, "binary")
    assert path.read_bytes() == raw
    assert np.array_equal(load_matrix(path, "binary"), a)


def test_binary_load_holds_one_copy_of_the_payload(tmp_path):
    a = random_matrix(200, 300, seed=2)
    path = tmp_path / "mat.bin"
    save_matrix(a, path, "binary")
    tracemalloc.start()
    try:
        load_matrix(path, "binary")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the loaded array plus the finite-value check's boolean mask of one
    # 128-column block: 200 * 128 bytes, 5.3% of the payload
    assert peak <= 1.06 * a.nbytes


def test_binary_save_does_not_copy_the_payload(tmp_path):
    a = random_matrix(200, 300, seed=2)
    tracemalloc.start()
    try:
        save_matrix(a, tmp_path / "mat.bin", "binary")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the finite-entry check's boolean mask of one 128-column block,
    # 5.3% of the payload; a serialized copy of the payload would be 100%
    assert peak <= 0.1 * a.nbytes


def test_binary_rejects_corruption(tmp_path):
    a = random_matrix(3, 2, seed=1)
    path = tmp_path / "mat.bin"
    save_matrix(a, path, "binary")
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="header"):
        load_matrix(path, "binary")
    save_matrix(a, path, "binary")
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(MatrixFormatError, match="payload"):
        load_matrix(path, "binary")
    save_matrix(a, path, "binary")
    path.write_bytes(path.read_bytes() + struct.pack("<d", 1.0))
    with pytest.raises(MatrixFormatError, match="payload"):
        load_matrix(path, "binary")
    path.write_bytes(MAGIC + struct.pack("<QQ", 0, 2))
    with pytest.raises(MatrixFormatError, match="invalid dimensions"):
        load_matrix(path, "binary")
    path.write_bytes(MAGIC + struct.pack("<QQ", 1, 2) + struct.pack("<2d", 1.0, np.inf))
    with pytest.raises(MatrixFormatError, match="non-finite"):
        load_matrix(path, "binary")
    # The check runs in 128-column blocks; the last column is in the third.
    values = np.ones(2 * 300)
    values[-1] = np.nan
    path.write_bytes(MAGIC + struct.pack("<QQ", 2, 300) + values.astype("<f8").tobytes())
    with pytest.raises(MatrixFormatError, match="non-finite"):
        load_matrix(path, "binary")


def test_csv_writes_identity(tmp_path):
    path = tmp_path / "eye.csv"
    save_matrix(np.eye(2), path, "csv")
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert [[float(v) for v in row] for row in rows] == [[1.0, 0.0], [0.0, 1.0]]


def test_csv_round_trip_exact(tmp_path):
    # 17 significant digits round-trip float64 exactly
    a = random_matrix(9, 6, seed=5, scale=3.7)
    path = tmp_path / "mat.csv"
    save_matrix(a, path, "csv")
    assert np.array_equal(load_matrix(path, "csv"), a)


def test_coordinate_round_trip(tmp_path):
    a = random_matrix(4, 6, seed=9)
    a[:, 2] = 0.0
    path = tmp_path / "mat.coo"
    save_matrix(a, path, "coordinate")
    assert np.array_equal(load_matrix(path, "coordinate"), a)


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_matrix(tmp_path / "x", "parquet")


def test_csv_non_finite_value_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,inf\n")
    with pytest.raises(MatrixFormatError, match=r":2: non-finite value 'inf'$"):
        load_matrix(path, "csv")


def test_save_rejects_an_unknown_format_before_writing(tmp_path):
    path = tmp_path / "x"
    with pytest.raises(ValueError, match=r"^unknown format 'parquet', expected one of \("):
        save_matrix(np.eye(2), path, "parquet")
    assert not path.exists()
