"""Single-threaded baseline of the traced pipeline, run as a child of run.py.

    python3 perfbench/single_thread.py WORKLOAD INPUT REPEATS OUT

The parent starts it with OPENBLAS_NUM_THREADS=1 and the package on
PYTHONPATH.  After one warm-up it runs the traced pipeline REPEATS times
and writes the median of each single-threaded per-layer time to OUT.
"""

import json
import os
import statistics
import sys
from pathlib import Path

import colsel
from workloads import WORKLOADS, Context

REPORTED = ("greedy.init_s", "greedy.step_ms", "sketch.product_s",
            "distributed.map_s", "evaluate.relacc_s")


def main(name, path, repeats, out):
    wl, path = WORKLOADS[name], Path(path)
    ctx = Context(Path(colsel.__file__).parent.parent, path.parent, path,
                  colsel.load_matrix(path, "binary"), len(os.sched_getaffinity(0)))
    wl.traced_op(ctx)
    samples = [wl.traced_op(ctx)[1] for _ in range(int(repeats))]
    Path(out).write_text(json.dumps({
        f"{key}_1t": statistics.median(s[key] for s in samples)
        for key in REPORTED if key in samples[0]
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
