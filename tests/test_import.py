"""`import colsel` defers its submodules until a name from one is used.

Each check runs in a fresh interpreter, because this test session has
already imported every submodule.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colsel

HEAVY = ["greedy", "generalized", "distributed", "evaluate", "sketch", "cli"]


def run_fresh(code: str, *args: str) -> str:
    # `-c` imports from the working directory: run where this colsel lives.
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=Path(colsel.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_loading_imports_no_selection_code(tmp_path):
    path = tmp_path / "mat.bin"
    colsel.save_matrix([[1.0, 2.0], [3.0, 4.0]], path, "binary")
    code = (
        "import json, sys, colsel\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('colsel.'))\n"
        "after_import = loaded()\n"
        "colsel.load_matrix(sys.argv[1], 'binary')\n"
        "print(json.dumps([after_import, loaded()]))\n"
    )
    after_import, after_load = json.loads(run_fresh(code, str(path)))
    for modules in (after_import, after_load):
        assert not {f"colsel.{name}" for name in HEAVY} & set(modules), modules
    assert after_load == ["colsel.linalg", "colsel.matrixio"]


def test_names_and_submodules_resolve_on_first_use():
    code = (
        "import colsel\n"
        "from colsel import greedy_select\n"
        "from colsel.greedy import greedy_select as direct\n"
        "assert greedy_select is direct\n"
        "assert colsel.evaluate.best_rank_error.__module__ == 'colsel.evaluate'\n"
        "missing = set(colsel.__all__) - set(dir(colsel))\n"
        "assert not missing, missing\n"
        "try:\n"
        "    colsel.nope\n"
        "except AttributeError as exc:\n"
        "    assert 'nope' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('colsel.nope resolved')\n"
        "print('ok')\n"
    )
    assert run_fresh(code) == "ok\n"


BASELINES = {"baselines", "cli", "greedy", "linalg", "matrixio", "sketch"}


@pytest.mark.parametrize("argv, modules", [
    (["select", "--l", "2"], {"cli", "greedy", "linalg", "matrixio", "sketch"}),
    (["select-gen", "--l", "2", "--target", "target.bin"],
     {"cli", "greedy", "linalg", "matrixio", "sketch"}),
    (["select-dist", "--l", "2", "--r", "4", "--partitions", "2"],
     {"cli", "distributed", "greedy", "linalg", "matrixio", "sketch"}),
    (["eval", "--indices", "picks.txt"], {"cli", "evaluate", "linalg", "matrixio", "sketch"}),
    (["baseline", "uniform", "--l", "2"], BASELINES),
    (["baseline", "hybrid-svd", "--l", "2"], BASELINES),
], ids=["select", "select-gen", "select-dist", "eval", "baseline-uniform",
         "baseline-hybrid-svd"])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, argv, modules):
    rng = np.random.default_rng(0)
    colsel.save_matrix(rng.standard_normal((6, 8)), tmp_path / "mat.bin", "binary")
    colsel.save_matrix(rng.standard_normal((6, 3)), tmp_path / "target.bin", "binary")
    (tmp_path / "picks.txt").write_text("0\n3\n")
    argv = [str(tmp_path / arg) if arg in ("picks.txt", "target.bin") else arg
            for arg in argv] + [
        "--input", str(tmp_path / "mat.bin"), "--format", "binary",
        "--output", str(tmp_path / "out.txt")]
    # the modules the run adds to those numpy loads (numpy 1.x loads numpy.random)
    code = (
        "import json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "from colsel.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith('colsel.') "
        "or m in ('hashlib', 'numpy.random'))))\n"
    )
    loaded = set(json.loads(run_fresh(code, *argv)))
    extra = {"hashlib", "numpy.random"}
    assert loaded - extra == {f"colsel.{name}" for name in modules}, sorted(loaded)
    # every draw comes from the counter-based stream of colsel.sketch
    assert "numpy.random" not in loaded
    # the selects derive no seed and eval only integer-labelled ones, so none hashes a label
    assert argv[0] not in ("select", "select-gen", "eval") or "hashlib" not in loaded
