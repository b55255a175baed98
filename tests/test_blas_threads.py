"""Picks do not depend on the BLAS thread count.

OpenBLAS splits its products differently with one thread than with two, so
the rounding differs.  On these inputs the picks must come out identical
anyway.  Each count runs in a fresh interpreter, because OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when numpy loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import colsel

CHILD = """
import json
from colsel import (DistributedConfig, SketchSpec, distributed_select, generalized_select,
                    greedy_select, sketch_matrix)
from instances import (geometric_spectrum, planted_lowrank, planted_partitioned, random_matrix,
                       zipf_planted)

picks = {}
for seed in (0, 1):
    a = geometric_spectrum(1000, 400, seed=seed)
    picks[f"geometric-{seed}"] = greedy_select(a, 200).indices
a = planted_lowrank(300, 1500, rank=60, noise_level=0.05, seed=0)
picks["planted-lowrank"] = greedy_select(a, 80).indices
a = planted_partitioned(200, 1600, n_generators=20, c=4, seed=0)
cfg = DistributedConfig(partitions=4, budget=24, sketch=SketchSpec("gaussian", r=64, seed=0))
picks["distributed"] = distributed_select(a, cfg).selected
for seed in (0, 1):
    # wide: plain greedy and a 300x700 target take the row-space step, a
    # 48-column sketch the column-space step with a separate target
    a = zipf_planted(300, 2500, seed=seed)
    picks[f"zipf-{seed}"] = greedy_select(a, 64).indices
    sketch = sketch_matrix(a, SketchSpec("gaussian", r=48, seed=seed))
    picks[f"zipf-sketch-{seed}"] = generalized_select(a, sketch, 40).indices
    target = random_matrix(300, 700, seed=seed)
    picks[f"zipf-random-target-{seed}"] = generalized_select(a, target, 60).indices
print(json.dumps(picks))
"""


def picks_with_threads(threads: int) -> dict:
    paths = [str(Path(colsel.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_picks_identical_under_one_and_two_blas_threads():
    one, two = picks_with_threads(1), picks_with_threads(2)
    for name, picks in one.items():
        assert picks == two[name], name
    assert len(one["geometric-0"]) == 200
