import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colsel
from colsel import (
    SketchSpec,
    derive_seed,
    generalized_select,
    greedy_select,
    reconstruction_error,
    relative_accuracy,
    save_matrix,
    sketch_matrix,
    uniform_select,
)
from colsel.cli import main
from instances import planted_lowrank, random_matrix


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
                                    "--l", "3", "--seed", "7"])
    assert code == 0
    assert out == "0\n1\n2\n"


def test_select_dist_pipeline_collapse(tmp_path, capsys):
    from colsel import greedy_select, load_matrix

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
    a = random_matrix(9, 11, seed=5)
    path = tmp_path / "a.csv"
    save_matrix(a, path, "csv")
    code, plain, _ = run_cli(capsys, ["select", "--input", str(path), "--l", "4"])
    code2, gen, _ = run_cli(capsys, ["select-gen", "--input", str(path),
                                     "--target", str(path), "--l", "4"])
    assert (code, code2) == (0, 0)
    assert gen == plain


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
    from colsel import load_matrix

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
        "l": 4, "r": 6, "c": 2, "sketch": "gaussian",
        "assignment": "contiguous", "seed": 21,
    }
    assert len(doc["selected"]) == len(set(doc["selected"])) == 4
    assert doc["f_value"] > 0
    assert doc["fbar_value"] > 0
    assert doc["columns_moved"] == 8  # each of the 2 partitions emits l = 4
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
    common = ["--input", str(path), "--seed", "5", "--summary", str(summary)]
    base = {"f_value": None, "fbar_value": None, "relative_accuracy": None,
            "columns_moved": None, "exhausted": False}
    if command == "select":
        argv = ["select", *common, "--l", "4"]
        picks = greedy_select(a, 4).indices
        want = {**base, "method": "greedy", "parameters": {"l": 4, "seed": 5},
                "selected": picks, "f_value": reconstruction_error(a, picks)}
    elif command == "select-gen":
        argv = ["select-gen", *common, "--l", "4", "--target", str(target)]
        picks = generalized_select(a, b, 4).indices
        want = {**base, "method": "generalized", "parameters": {"l": 4, "seed": 5},
                "selected": picks, "f_value": reconstruction_error(a, picks)}
    elif command == "sketch":
        argv = ["sketch", *common, "--sketch", "gaussian", "--r", "6"]
        want = {**base, "method": "sketch",
                "parameters": {"r": 6, "sketch": "gaussian", "seed": 5}, "selected": []}
    elif command == "baseline":
        argv = ["baseline", "uniform", *common, "--l", "4"]
        picks = uniform_select(16, 4, 5)
        want = {**base, "method": "baseline-uniform",
                "parameters": {"l": 4, "seed": 5, "method": "uniform"},
                "selected": picks, "f_value": reconstruction_error(a, picks)}
    else:
        argv = ["eval", *common, "--trials", "5", "--indices", str(idx)]
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
    assert main(["select", "--input", eye3_csv, "--l", "x"]) == 2
    capsys.readouterr()


def test_threads_only_on_select_dist(tmp_path, eye3_csv, capsys):
    # a subcommand rejects every option it does not read
    for argv in (["select", "--input", eye3_csv, "--l", "2", "--threads", "2"],
                 ["baseline", "uniform", "--input", eye3_csv, "--l", "2", "--trials", "5"],
                 ["sketch", "--input", eye3_csv, "--sketch", "identity", "--l", "3"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["select-dist", "--input", eye3_csv, "--l", "2",
                                    "--sketch", "identity", "--threads", "2"])
    assert code == 0
    assert out == "0\n1\n"


def test_data_errors_exit_3(tmp_path, eye3_csv, capsys, monkeypatch):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nope\n")
    assert main(["select", "--input", str(bad), "--l", "1"]) == 3
    capsys.readouterr()
    assert main(["select", "--input", eye3_csv, "--l", "9"]) == 3
    capsys.readouterr()
    assert main(["select", "--input", str(tmp_path / "missing.csv"), "--l", "1"]) == 3
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


def test_degeneracy_exit_4(tmp_path, capsys):
    # columns 0 and 1 are parallel: the metric itself tolerates that, but
    # the strict criterion behind the summary's f_value reports it
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
    code = main(["eval", "--input", str(path), "--indices", str(idx),
                 "--trials", "2", "--summary", str(tmp_path / "s.json")])
    capsys.readouterr()
    assert code == 4


def test_module_entry_point(tmp_path, eye3_csv):
    # `-m` imports from the working directory: run where this colsel lives.
    proc = subprocess.run(
        [sys.executable, "-m", "colsel", "select", "--input", eye3_csv, "--l", "2"],
        capture_output=True, text=True, cwd=Path(colsel.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n1\n"
