import io
import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import colsel
from colsel import (
    DistributedConfig,
    SketchSpec,
    derive_seed,
    distributed_select,
    generalized_select,
    greedy_select,
    load_matrix,
    reconstruction_error,
    relative_accuracy,
    save_matrix,
    sketch_matrix,
    uniform_select,
)
from colsel.cli import main
from instances import (
    badly_scaled_wide,
    planted_lowrank,
    random_matrix,
    rank_deficient_matrix,
    rank_two_beside_tiny,
)


@pytest.fixture
def eye3_csv(tmp_path):
    path = tmp_path / "eye3.csv"
    path.write_text("1,0,0\n0,1,0\n0,0,1\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_select_identity_tie_break(eye3_csv, capsys):
    code, out, _ = run_cli(capsys, ["select", "--input", eye3_csv, "--format", "csv",
                                    "--l", "3"])
    assert code == 0
    assert out == "0\n1\n2\n"


def test_select_dist_pipeline_collapse(tmp_path, capsys):
    a = random_matrix(10, 14, seed=31)
    path = tmp_path / "a.csv"
    save_matrix(a, path, "csv")
    code, plain, _ = run_cli(capsys, ["select", "--input", str(path), "--l", "4"])
    assert code == 0
    # library/CLI agreement on the file actually loaded
    library = greedy_select(load_matrix(path, "csv"), 4).indices
    assert [int(v) for v in plain.split()] == library
    code, dist, _ = run_cli(capsys, [
        "select-dist", "--input", str(path), "--l", "4", "--partitions", "1",
        "--sketch", "identity", "--r", "14",
    ])
    assert code == 0
    assert dist == plain


def test_select_gen_with_self_target(tmp_path, capsys):
    # a target run as separate from the source would stop the badly scaled
    # inputs after 4 picks, whether it is the input file or a copy of it
    inputs = [(random_matrix(9, 11, seed=5), 4)]
    inputs += [(badly_scaled_wide(seed=seed), 10) for seed in range(8, 14)]
    path, copy = tmp_path / "a.csv", tmp_path / "copy.csv"
    for a, l in inputs:
        save_matrix(a, path, "csv")
        copy.write_bytes(path.read_bytes())
        code, plain, _ = run_cli(capsys, ["select", "--input", str(path), "--l", str(l)])
        assert code == 0
        assert len(plain.split()) == l
        for target in (path, copy):
            code, gen, _ = run_cli(capsys, ["select-gen", "--input", str(path),
                                            "--target", str(target), "--l", str(l)])
            assert code == 0
            assert gen == plain


def test_select_dist_summary_flags_a_reconstructed_target(tmp_path, capsys):
    path, summary = tmp_path / "a.csv", tmp_path / "run.json"
    save_matrix(rank_two_beside_tiny(), path, "csv")
    code, out, _ = run_cli(capsys, [
        "select-dist", "--input", str(path), "--l", "6", "--partitions", "4",
        "--sketch", "gaussian", "--r", "8", "--seed", "1", "--summary", str(summary),
    ])
    assert code == 0
    doc = json.loads(summary.read_text())
    assert len(out.split()) == len(doc["selected"]) == 2
    assert doc["exhausted"]


def test_eval_agrees_with_library(tmp_path, capsys):
    a = planted_lowrank(200, 500, rank=30, noise_level=0.05, seed=0)
    mat = tmp_path / "planted.csv"
    save_matrix(a, mat, "csv")
    code, out, _ = run_cli(capsys, ["select", "--input", str(mat), "--l", "5"])
    assert code == 0
    indices = [int(line) for line in out.split()]
    idx_file = tmp_path / "idx.txt"
    idx_file.write_text(out)
    code, out, _ = run_cli(capsys, [
        "eval", "--input", str(mat), "--l", "5", "--trials", "10", "--seed", "3",
        "--indices", str(idx_file),
    ])
    assert code == 0
    got = float(out.strip())
    want = relative_accuracy(a, indices, uniform_trials=10, seed=3)
    assert got == want
    assert got > 0.0


@pytest.mark.parametrize("exponent", ["e160", "e-160"])
def test_eval_of_entries_whose_squares_leave_the_float_range(tmp_path, capsys, exponent):
    (tmp_path / "idx.txt").write_text("0\n")
    printed = []
    for suffix in ("", exponent):
        path = tmp_path / f"a{suffix}.csv"
        path.write_text(f"1{suffix},2{suffix},0\n0,1{suffix},3{suffix}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, ["eval", "--input", str(path),
                                            "--indices", str(tmp_path / "idx.txt")])
        assert code == 0
        printed.append(float(out))
    # 1e160 * x is x times a power of two only to rounding
    assert printed[1] == pytest.approx(printed[0], rel=1e-13)


def test_sketch_identity_round_trip(tmp_path, capsys):
    a = random_matrix(6, 8, seed=9)
    src = tmp_path / "a.bin"
    out = tmp_path / "b.bin"
    save_matrix(a, src, "binary")
    code, _, _ = run_cli(capsys, [
        "sketch", "--input", str(src), "--format", "binary",
        "--sketch", "identity", "--output", str(out),
    ])
    assert code == 0
    assert np.array_equal(load_matrix(out, "binary"), a)


def test_baseline_methods_smoke(tmp_path, capsys):
    a = random_matrix(20, 25, seed=13)
    path = tmp_path / "a.csv"
    save_matrix(a, path, "csv")
    for method in ("uniform", "hybrid-uni", "hybrid-col", "hybrid-svd",
                   "sketch-svd", "naive-dist"):
        code, out, err = run_cli(capsys, [
            "baseline", method, "--input", str(path), "--l", "4",
            "--partitions", "3", "--seed", "11",
        ])
        assert code == 0, (method, err)
        indices = [int(line) for line in out.split()]
        assert len(indices) == 4
        assert len(set(indices)) == 4


def test_baseline_summary_flags_fewer_picks_than_l(tmp_path, capsys):
    path, summary = tmp_path / "a.csv", tmp_path / "run.json"
    save_matrix(rank_deficient_matrix(12, 10, rank=3, seed=0), path, "csv")
    common = ["--input", str(path), "--l", "5", "--partitions", "2", "--summary", str(summary)]
    for method in ("naive-dist", "hybrid-uni", "sketch-svd"):
        code, out, err = run_cli(capsys, ["baseline", method, *common])
        assert code == 0, (method, err)
        doc = json.loads(summary.read_text())
        assert len(out.split()) == len(doc["selected"]) == 3, method
        assert doc["exhausted"] is True, method
    # uniform picks 5 columns of a rank-3 matrix: they span it, and the
    # summary's error is that of their span
    code, out, err = run_cli(capsys, ["baseline", "uniform", *common])
    assert code == 0, err
    doc = json.loads(summary.read_text())
    assert len(out.split()) == len(doc["selected"]) == 5
    assert doc["exhausted"] is False
    a = load_matrix(path, "csv")
    assert doc["f_value"] <= 1e-12 * np.sum(a * a)
    # the reduce step's union of this 15 x 22 matrix once took a 16th pick,
    # past its rank 15, and the summary's error raised
    order = [4, 0, 10, 7, 5, 8, 6, 3, 9, 2, 1, 13, 18, 12, 17, 21, 19, 15, 11, 14, 20, 16]
    save_matrix(random_matrix(15, 22, seed=23)[:, order], path, "csv")
    code, out, err = run_cli(capsys, ["baseline", "naive-dist", "--input", str(path),
                                      "--l", "22", "--partitions", "2",
                                      "--summary", str(summary)])
    assert code == 0, err
    doc = json.loads(summary.read_text())
    assert len(out.split()) == len(doc["selected"]) == 15
    assert doc["exhausted"] is True


def test_summary_document(tmp_path, capsys):
    a = random_matrix(12, 16, seed=17)
    path = tmp_path / "a.csv"
    save_matrix(a, path, "csv")
    summary_path = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, [
        "select-dist", "--input", str(path), "--l", "4", "--partitions", "2",
        "--sketch", "gaussian", "--r", "6", "--seed", "21",
        "--summary", str(summary_path), "--output", str(tmp_path / "idx.txt"),
    ])
    assert code == 0
    doc = json.loads(summary_path.read_text())
    assert doc["method"] == "distributed"
    assert doc["parameters"] == {
        "l": 4, "r": 6, "c": 2, "sketch": "gaussian", "seed": 21,
    }
    assert len(doc["selected"]) == len(set(doc["selected"])) == 4
    assert doc["f_value"] > 0
    assert doc["fbar_value"] > 0
    assert doc["columns_moved"] == 8  # each of the 2 partitions emits l = 4
    assert doc["exhausted"] is False
    config = DistributedConfig(partitions=2, budget=4,
                               sketch=SketchSpec("gaussian", r=6, seed=derive_seed(21, "sketch")))
    report = distributed_select(load_matrix(path, "csv"), config)
    assert doc["selected"] == report.selected
    assert doc["f_value"] == report.exact_error
    assert doc["fbar_value"] == report.target_error
    assert doc["columns_moved"] == report.columns_moved
    assert set(doc) == {"method", "parameters", "selected", "f_value", "fbar_value",
                        "relative_accuracy", "columns_moved", "exhausted", "timings"}
    assert set(doc["timings"]) >= {"sketch", "map", "reduce", "total"}
    written = (tmp_path / "idx.txt").read_text().split()
    assert [int(v) for v in written] == doc["selected"]


def _lstsq_error(a, cols, target):
    coef, *_ = np.linalg.lstsq(a[:, cols], target, rcond=None)
    residual = target - a[:, cols] @ coef
    return float(np.sum(residual * residual))


@pytest.mark.parametrize("command", ["select", "select-gen", "sketch", "baseline", "eval"])
def test_summary_of_each_subcommand(tmp_path, capsys, command):
    a = random_matrix(12, 16, seed=41)
    b = random_matrix(12, 5, seed=42)
    path, target = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix(a, path, "csv")
    save_matrix(b, target, "csv")
    idx = tmp_path / "idx.txt"
    idx.write_text("3\n0\n9\n4\n")
    summary = tmp_path / "run.json"
    common = ["--input", str(path), "--summary", str(summary)]
    seed = ["--seed", "5"]
    base = {"f_value": None, "fbar_value": None, "relative_accuracy": None,
            "columns_moved": None, "exhausted": False}
    if command == "select":
        argv = ["select", *common, "--l", "4"]
        picks = greedy_select(a, 4).indices
        want = {**base, "method": "greedy", "parameters": {"l": 4},
                "selected": picks, "f_value": reconstruction_error(a, picks)}
    elif command == "select-gen":
        argv = ["select-gen", *common, "--l", "4", "--target", str(target)]
        picks = generalized_select(a, b, 4).indices
        want = {**base, "method": "generalized", "parameters": {"l": 4},
                "selected": picks, "f_value": reconstruction_error(a, picks)}
    elif command == "sketch":
        argv = ["sketch", *common, *seed, "--sketch", "gaussian", "--r", "6"]
        want = {**base, "method": "sketch",
                "parameters": {"r": 6, "sketch": "gaussian", "seed": 5}, "selected": []}
    elif command == "baseline":
        argv = ["baseline", "uniform", *common, *seed, "--l", "4"]
        picks = uniform_select(16, 4, 5)
        want = {**base, "method": "baseline-uniform",
                "parameters": {"l": 4, "seed": 5, "method": "uniform"},
                "selected": picks, "f_value": reconstruction_error(a, picks)}
    else:
        argv = ["eval", *common, *seed, "--trials", "5", "--indices", str(idx)]
        picks = [3, 0, 9, 4]
        want = {**base, "method": "eval",
                "parameters": {"l": 4, "trials": 5, "seed": 5},
                "selected": picks, "f_value": reconstruction_error(a, picks),
                "relative_accuracy": relative_accuracy(a, picks, uniform_trials=5, seed=5)}
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(summary.read_text())
    timings = doc.pop("timings")
    if command == "select-gen":
        assert doc.pop("fbar_value") == pytest.approx(_lstsq_error(a, picks, b), rel=1e-9)
        want.pop("fbar_value")
    assert doc == want
    assert set(timings) == ({"eval", "total"} if command == "eval" else {"total"})
    assert all(value >= 0.0 for value in timings.values())
    if command == "sketch":
        spec = SketchSpec("gaussian", r=6, seed=derive_seed(5, "sketch"))
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()]
        assert np.array_equal(np.array(rows), sketch_matrix(a, spec))
    elif command == "eval":
        assert float(out) == want["relative_accuracy"]
    else:
        assert [int(v) for v in out.split()] == picks


def test_cli_determinism(tmp_path, capsys):
    a = random_matrix(15, 22, seed=23)
    path = tmp_path / "a.csv"
    save_matrix(a, path, "csv")
    argv = ["select-dist", "--input", str(path), "--l", "5", "--partitions", "3",
            "--sketch", "sparse-sign", "--r", "8", "--seed", "5"]
    outs, summaries = [], []
    for run in range(2):
        summary = tmp_path / f"s{run}.json"
        code, out, _ = run_cli(capsys, argv + ["--summary", str(summary)])
        assert code == 0
        outs.append(out)
        summaries.append(json.loads(summary.read_text()))
    assert outs[0] == outs[1]
    # summaries agree except for wall-clock timings
    for doc in summaries:
        doc.pop("timings")
    assert summaries[0] == summaries[1]


def test_usage_errors_exit_2(eye3_csv, capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["select", "--input", eye3_csv]) == 2  # missing --l
    capsys.readouterr()


def test_threads_only_on_select_dist(tmp_path, eye3_csv, capsys):
    # a subcommand rejects every option it does not read: greedy takes no
    # seed, and partitions are always contiguous blocks
    for argv in (["select", "--input", eye3_csv, "--l", "2", "--threads", "2"],
                 ["baseline", "uniform", "--input", eye3_csv, "--l", "2", "--trials", "5"],
                 ["sketch", "--input", eye3_csv, "--sketch", "identity", "--l", "3"],
                 ["select", "--input", eye3_csv, "--l", "2", "--seed", "1"],
                 ["select-gen", "--input", eye3_csv, "--target", eye3_csv, "--l", "2",
                  "--seed", "1"],
                 ["select-dist", "--input", eye3_csv, "--l", "2", "--sketch", "identity",
                  "--assignment", "contiguous"],
                 ["baseline", "naive-dist", "--input", eye3_csv, "--l", "2",
                  "--assignment", "round-robin"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["select-dist", "--input", eye3_csv, "--l", "2",
                                    "--sketch", "identity", "--threads", "2"])
    assert code == 0
    assert out == "0\n1\n"


def test_data_errors_exit_3(tmp_path, eye3_csv, capsys, monkeypatch):
    assert main(["select", "--input", eye3_csv, "--l", "9"]) == 3
    capsys.readouterr()
    assert main(["select-gen", "--input", eye3_csv, "--l", "1",
                 "--target", str(tmp_path / "missing.csv")]) == 3
    capsys.readouterr()
    idx = tmp_path / "idx.txt"
    for bad_indices in ("0\n0\n", "0\n3\n", "-1\n"):  # duplicate, out of range
        idx.write_text(bad_indices)
        assert main(["eval", "--input", eye3_csv, "--indices", str(idx)]) == 3
        assert "column ind" in capsys.readouterr().err
    evals = [
        # read from stdin past the blank line; uniform draws of eye(3) are optimal
        ("0\n\n1\n", [], "relative metric is undefined"),
        ("0\nx\n", [], "line 2: 'x' is not an integer"),
        ("\n", [], "index list is empty"),
        ("0\n1\n2\n0\n", ["--l", "3"], "does not match the 4 provided indices"),
        ("0\n1\n", ["--trials", "0"], "uniform_trials must be >= 1"),
    ]
    for stdin, extra, message in evals:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(["eval", "--input", eye3_csv, *extra]) == 3
        assert message in capsys.readouterr().err
    assert main(["select-dist", "--input", eye3_csv, "--l", "2", "--sketch", "gaussian"]) == 3
    assert "--r is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["select", "--l", "60"],
    ["select-dist", "--l", "100", "--r", "8", "--partitions", "2"],
    ["baseline", "naive-dist", "--l", "60", "--partitions", "2"],
    ["select-dist", "--l", "0", "--r", "8", "--partitions", "2"],
    ["baseline", "naive-dist", "--l", "0", "--partitions", "2"],
    ["baseline", "sketch-svd", "--l", "60"],
], ids=["select", "select-dist", "naive-dist", "select-dist-l0", "naive-dist-l0", "sketch-svd"])
def test_budget_past_the_column_count_exits_3(tmp_path, capsys, argv):
    # 30 x 50 has rank 30: the pipelines used to stop there and exit 0.
    path = tmp_path / "a.csv"
    save_matrix(random_matrix(30, 50, seed=3), path, "csv")
    code, out, err = run_cli(capsys, [*argv, "--input", str(path)])
    assert code == 3
    assert out == ""
    assert "budget l must satisfy 1 <= l <= 50" in err


def test_sketch_svd_rank_defaults_to_l_capped_at_the_row_count(tmp_path, capsys):
    path = tmp_path / "a.csv"
    save_matrix(random_matrix(30, 50, seed=3), path, "csv")
    code, out, err = run_cli(capsys, ["baseline", "sketch-svd", "--input", str(path),
                                      "--l", "40"])
    assert code == 0, err
    _, plain, _ = run_cli(capsys, ["select", "--input", str(path), "--l", "40"])
    assert len(out.split()) == len(plain.split()) == 30


def test_select_dist_skips_a_partition_with_no_nonzero_column(tmp_path, capsys):
    a = random_matrix(30, 50, seed=3)
    a[:, :25] = 0.0
    path = tmp_path / "a.csv"
    save_matrix(a, path, "csv")
    code, out, err = run_cli(capsys, ["select-dist", "--input", str(path), "--l", "4",
                                      "--r", "8", "--partitions", "2"])
    assert code == 0, err
    picks = [int(v) for v in out.split()]
    assert len(picks) == 4 and min(picks) >= 25


def test_eval_of_parallel_columns_measures_their_span(tmp_path, capsys):
    # columns 0 and 1 are parallel: together they span what column 0 spans
    rng = np.random.default_rng(0)
    d = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    cols = np.empty((5, 6))
    cols[:, 0] = d[:, 0]
    cols[:, 1] = 2.0 * d[:, 0]
    cols[:, 2:] = d @ rng.standard_normal((3, 4))
    path = tmp_path / "dep.csv"
    save_matrix(cols, path, "csv")
    idx = tmp_path / "idx.txt"
    idx.write_text("0\n1\n")
    summary = tmp_path / "s.json"
    code, _, err = run_cli(capsys, ["eval", "--input", str(path), "--indices", str(idx),
                                    "--trials", "2", "--summary", str(summary)])
    assert code == 0, err
    f_value = json.loads(summary.read_text())["f_value"]
    assert abs(f_value - reconstruction_error(cols, [0])) <= 1e-12 * np.sum(cols * cols)


def test_select_summary_past_the_rank_exits_0(tmp_path, capsys):
    # greedy takes a fourth pick on this rank-3 matrix (a known defect of
    # the selection); the summary's error is that of the picks' span
    path, summary = tmp_path / "a.csv", tmp_path / "run.json"
    a = rank_deficient_matrix(12, 10, rank=3, seed=4)
    save_matrix(a, path, "csv")
    code, out, err = run_cli(capsys, ["select", "--input", str(path), "--l", "10",
                                      "--summary", str(summary)])
    assert code == 0, err
    assert [int(v) for v in out.split()] == [2, 9, 0, 4]
    assert json.loads(summary.read_text())["f_value"] <= 1e-12 * np.sum(a * a)


def test_a_summary_value_past_the_float_range_exits_3_and_writes_nothing(tmp_path, capsys):
    # the squared error of any one column of this matrix overflows to inf,
    # which JSON cannot hold
    path, summary = tmp_path / "big.csv", tmp_path / "run.json"
    path.write_text("1e160,2e160,0\n0,1e160,3e160\n")
    code, out, err = run_cli(capsys, ["baseline", "uniform", "--l", "1", "--input", str(path),
                                      "--summary", str(summary)])
    assert code == 3
    assert out == ""
    assert "not JSON compliant" in err
    assert not summary.exists()


@pytest.mark.parametrize("argv", [["select", "--l", "2"], ["sketch", "--r", "2"]],
                         ids=["select", "sketch"])
def test_a_failed_write_exits_3_and_leaves_no_other_file(tmp_path, eye3_csv, capsys, argv):
    # a summary that cannot be opened leaves no picks or sketch behind
    output, summary = tmp_path / "out.txt", tmp_path / "run.json"
    missing = str(tmp_path / "no" / "such" / "dir.json")
    argv = [*argv, "--input", eye3_csv]
    for extra in ([], ["--output", str(output)]):
        code, out, err = run_cli(capsys, [*argv, *extra, "--summary", missing])
        assert (code, out) == (3, "")
        assert "No such file" in err
    assert not output.exists()
    # and an output that cannot be opened leaves no summary
    code, out, _ = run_cli(capsys, [*argv, "--output", missing, "--summary", str(summary)])
    assert (code, out) == (3, "")
    assert not summary.exists()
    # nor touches a summary that was there before
    summary.write_text("earlier run\n")
    code, out, err = run_cli(capsys, [*argv, "--output", missing, "--summary", str(summary)])
    assert (code, out) == (3, "")
    assert "No such file" in err
    assert summary.read_text() == "earlier run\n"


@pytest.mark.parametrize("argv, method", [(["select", "--l", "2"], "greedy"),
                                          (["sketch", "--r", "8"], "sketch")],
                         ids=["select", "sketch"])
def test_a_summary_naming_the_output_file_replaces_it(tmp_path, capsys, argv, method):
    # the result is written first, then the summary takes the whole file
    path, both = tmp_path / "a.csv", tmp_path / "both.json"
    save_matrix(random_matrix(6, 5, seed=0), path, "csv")
    code, _, _ = run_cli(capsys, [*argv, "--input", str(path),
                                  "--output", str(both), "--summary", str(both)])
    assert code == 0
    assert json.loads(both.read_text())["method"] == method


def test_module_entry_point(tmp_path, eye3_csv):
    # `-m` imports from the working directory: run where this colsel lives.
    proc = subprocess.run(
        [sys.executable, "-m", "colsel", "select", "--input", eye3_csv, "--l", "2"],
        capture_output=True, text=True, cwd=Path(colsel.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n1\n"


# Every numeric option of every subcommand, each in a run that exits 0 as
# written; baseline takes each option with a method that reads it.
_RUNS = [
    (["select", "--l", "4"], ["--l"]),
    (["select-gen", "--target", "{b}", "--l", "4"], ["--l"]),
    (["sketch", "--r", "6", "--seed", "1"], ["--r", "--seed"]),
    (["select-dist", "--l", "4", "--r", "6", "--partitions", "2", "--threads", "1",
      "--seed", "1"], ["--l", "--r", "--partitions", "--threads", "--seed"]),
    *((["baseline", method, "--l", "4", "--seed", "1"], ["--l", "--seed"])
      for method in ("uniform", "hybrid-uni", "hybrid-col", "hybrid-svd")),
    (["baseline", "sketch-svd", "--l", "4", "--r", "3", "--seed", "1"], ["--l", "--r", "--seed"]),
    (["baseline", "naive-dist", "--l", "4", "--partitions", "2"], ["--l", "--partitions"]),
    (["eval", "--indices", "{idx}", "--l", "3", "--trials", "2", "--seed", "1"],
     ["--l", "--trials", "--seed"]),
]
# 1.5 is a usage error; a huge --trials would be a long run, not a failure
_VALUES = ["0", "-1", str(2**63), str(10**30), "1.5"]
_SMALL_VALUES = ["0", "-1", "1.5"]
# A sketch of 30 x 10**13 float64 values (2.1 PiB) or a dense 10**8 x 10**8
# matrix is past the 2**47-byte address space, so allocating it fails at once.
_TOO_LARGE = "10000000000000"
# input files that fail to load: kind -> (format, content)
_MALFORMED = {
    "ragged": ("csv", "1,2\n3\n"),
    "empty": ("csv", ""),
    "non-numeric": ("csv", "1,2\n3,nope\n"),
    "nan": ("csv", "1,nan\n2,3\n"),
    "bad-magic": ("binary", b"NOTMAGIC" + (2).to_bytes(8, "little") * 2 + bytes(32)),
    "short-payload": ("binary", b"CSELMAT1" + (4).to_bytes(8, "little") * 2 + bytes(8)),
    "directory": ("csv", None),
    "missing": ("csv", None),
    "too-large": ("coordinate", "100000000 100000000 0\n"),
}


def _exit_code_cases():
    for base, options in _RUNS:
        name = " ".join(base[:2 if base[0] == "baseline" else 1])
        for option in options:
            at = base.index(option) + 1
            for value in _SMALL_VALUES if option == "--trials" else _VALUES:
                argv = [*base[:at], value, *base[at + 1:]]
                yield pytest.param(argv, None, 2 if value == "1.5" else None,
                                   id=f"{name} {option} {value}")
    yield pytest.param(["sketch", "--r", _TOO_LARGE], None, 3, id="sketch --r 10**13")
    yield pytest.param(["select-dist", "--l", "4", "--r", _TOO_LARGE], None, 3,
                       id="select-dist --r 10**13")
    # every subcommand loads its input first; baseline once, as naive-dist
    for command, base in {base[0]: base for base, _ in _RUNS}.items():
        for kind in _MALFORMED:
            yield pytest.param(base, kind, 3, id=f"{command} on {kind}")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    files = {"a": root / "a.csv", "b": root / "b.csv", "idx": root / "idx.txt",
             "zero": root / "zero.csv"}
    save_matrix(random_matrix(30, 50, seed=3), files["a"], "csv")
    save_matrix(np.zeros((30, 50)), files["zero"], "csv")
    save_matrix(random_matrix(30, 6, seed=4), files["b"], "csv")
    files["idx"].write_text("0\n2\n5\n")
    for kind, (_, content) in _MALFORMED.items():
        path = files[kind] = root / kind
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    return {key: str(path) for key, path in files.items()}


@pytest.mark.parametrize("argv, malformed, want", _exit_code_cases())
def test_every_failure_exits_2_3_or_4(cli_files, capsys, argv, malformed, want):
    # every failure exits 2 or 3; the name keeps each case's id stable
    fmt = _MALFORMED[malformed][0] if malformed else "csv"
    source = cli_files[malformed or "a"]
    argv = [arg.format(**cli_files) for arg in argv]
    code, _, err = run_cli(capsys, [*argv, "--input", source, "--format", fmt])
    assert code in (0, 2, 3), err
    assert want in (None, code), err
    assert "Traceback" not in err
    if code == 2:
        assert "usage:" in err
    elif code:
        assert err.startswith("colsel: error: "), err


def test_sketch_stdout_matches_a_saved_csv_sketch(tmp_path, capsys):
    a = random_matrix(9, 13, seed=61)
    path, saved = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix(a, path, "csv")
    code, out, _ = run_cli(capsys, ["sketch", "--input", str(path), "--seed", "7",
                                    "--sketch", "gaussian", "--r", "5"])
    assert code == 0
    save_matrix(sketch_matrix(a, SketchSpec("gaussian", 5, seed=derive_seed(7, "sketch"))),
                saved, "csv")
    assert out.encode("utf-8") == saved.read_bytes()


def test_select_dist_total_covers_the_whole_run(tmp_path, capsys, monkeypatch):
    path, summary = tmp_path / "a.csv", tmp_path / "run.json"
    save_matrix(random_matrix(12, 16, seed=62), path, "csv")
    load = colsel.cli.load_matrix

    def slow_load(*args):
        time.sleep(0.05)
        return load(*args)

    monkeypatch.setattr(colsel.cli, "load_matrix", slow_load)
    code, _, _ = run_cli(capsys, ["select-dist", "--input", str(path), "--l", "4",
                                  "--partitions", "2", "--r", "6", "--summary", str(summary)])
    assert code == 0
    timings = json.loads(summary.read_text())["timings"]
    assert timings["total"] >= 0.05 + timings["sketch"] + timings["map"] + timings["reduce"]


_ZERO_RUNS = [base for base, _ in _RUNS if base[0] != "eval"]
_ZERO_RUNS.append(["select-dist", "--sketch", "identity", "--partitions", "2", "--l", "4"])


@pytest.mark.parametrize("argv", _ZERO_RUNS, ids=" ".join)
def test_nothing_to_pick_exits_0_with_no_picks(cli_files, tmp_path, capsys, argv):
    argv = [arg.format(**cli_files) for arg in argv]
    summary = tmp_path / "run.json"
    code, out, err = run_cli(capsys, [*argv, "--input", cli_files["zero"],
                                      "--summary", str(summary)])
    assert code == 0, err
    assert err == ""
    # any selection of a zero matrix has error 0, uniform's four picks too
    f_value = json.loads(summary.read_text())["f_value"]
    assert f_value == (None if argv[0] == "sketch" else 0.0)
    if argv[0] == "sketch":
        assert not np.loadtxt(io.StringIO(out), delimiter=",").any()
    elif argv[:2] == ["baseline", "uniform"]:
        assert len(out.split()) == 4
    else:
        assert out == ""


def test_eval_of_a_zero_matrix_exits_3(cli_files, capsys):
    # every error is 0, so the relative metric is 0/0
    code, out, err = run_cli(capsys, ["eval", "--indices", cli_files["idx"],
                                      "--input", cli_files["zero"]])
    assert code == 3
    assert out == ""
    assert err.startswith("colsel: error: ")
    assert "the relative metric is undefined" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--indices", "{idx}"],
    ["baseline", "uniform", "--l", "3"],
], ids=["eval", "baseline uniform"])
def test_a_negative_seed_draws_as_its_value_modulo_2_64(cli_files, capsys, argv):
    # as sketch, select-dist and the other baselines do through derive_seed
    argv = [arg.format(**cli_files) for arg in argv] + ["--input", cli_files["a"]]
    code, out, err = run_cli(capsys, [*argv, "--seed", "-1"])
    assert code == 0, err
    assert run_cli(capsys, [*argv, "--seed", str(2**64 - 1)]) == (0, out, "")
