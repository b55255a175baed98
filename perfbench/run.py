"""colsel benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` beside this directory, never from an
installed copy.  With ``--trace 0`` the run times the workload's operation
closed-loop (one at a time, after one warm-up operation) for ``--seconds``
and reports the end-to-end metrics.  With ``--trace 1`` it alternates
untraced operations with the traced pipeline for ``--seconds`` and reports
the per-layer metrics.  Standard output is a readable report whose last
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

README.md in this directory describes the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SINGLE_THREAD_REPEATS = 3


def import_package():
    """Put ``src/`` first on the path; refuse to run against any other copy."""
    if not (SRC / "colsel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'colsel'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import colsel

    if Path(colsel.__file__).resolve().parent != SRC / "colsel":
        sys.exit(f"perfbench: imported colsel from {colsel.__file__}, not from {SRC}")
    return colsel


def check_picks(outcome, n: int, l: int) -> str | None:
    """Picks are distinct, in range, and ``l`` long unless exhaustion was reported."""
    picks = outcome.picks
    if len(set(picks)) != len(picks):
        return f"repeated picks {picks}"
    if any(not 0 <= p < n for p in picks):
        return f"pick out of range 0..{n - 1}: {picks}"
    if len(picks) != l and not outcome.exhausted:
        return f"{len(picks)} picks for l={l} without the exhausted flag"
    return None


class NoResult(RuntimeError):
    """No operation of the run passed its checks, so no metric can be reported."""


class Tally:
    """Attempted and failed operations, with the reason for each failure.

    Every operation of a run, traced or not, must return the same picks
    (and, for the command line, the same relative accuracy) as the first.
    """

    def __init__(self, n: int, l: int):
        self.n, self.l = n, l
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None

    def attempt(self, label, fn):
        """Run and check one operation; return (outcome, values, seconds), or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        outcome, values = result if isinstance(result, tuple) else (result, None)
        problem = check_picks(outcome, self.n, self.l)
        if problem is None and self.first is not None:
            if outcome.picks != self.first.picks:
                problem = f"picks {outcome.picks} differ from the first operation's {self.first.picks}"
            elif None not in (outcome.relacc, self.first.relacc) and outcome.relacc != self.first.relacc:
                problem = f"relative accuracy {outcome.relacc!r} != {self.first.relacc!r}"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            return None
        if self.first is None:
            self.first = outcome
        return outcome, values, elapsed


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples beyond).

    With ten samples or fewer no percentile qualifies, and the maximum is returned.
    """
    ordered = sorted(durations)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered), 10


def timed_run(wl, ctx, seconds, tally, report) -> dict:
    # The traced pipeline, rebuilt from public calls, sets the reference
    # picks that every timed operation must reproduce.
    tally.attempt("traced pipeline", lambda: wl.traced_op(ctx))
    tally.attempt("warm-up", lambda: wl.op(ctx))
    durations, rss, setups = [], [], []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        # Set-up probes are spread over the run, between operations, so
        # their median does not hang on one moment's machine load.
        if len(setups) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setups.append(probes.setup_time(ctx.src, ctx.path))
        done = tally.attempt(f"operation {tally.attempted}", lambda: wl.op(ctx))
        if done:
            durations.append(done[2])
            rss.append(done[0].rss_mb)
    if not durations:
        raise NoResult("no timed operation passed its checks")
    while len(setups) < SETUP_REPEATS:
        setups.append(probes.setup_time(ctx.src, ctx.path))
    if wl.uses_cli:
        tally.attempt("select-dist --threads 1", lambda: wl.op(ctx, threads=1))
        peak = statistics.median(rss)
    else:
        peak = wl.peak_rss_mb(ctx)
    run_tail, pct, beyond = tail(durations)
    report.append(f"samples: {len(durations)} timed operations; run_s_tail is p{pct:.1f}, "
                  f"with {beyond} samples beyond it")
    if tally.first.relacc is not None:
        report.append(f"relacc_pct {tally.first.relacc!r} (printed by colsel eval)")
    return {
        "run_s": statistics.median(durations),
        "run_s_tail": run_tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "err_ratio": wl.err_ratio(ctx.a, tally.first.picks),
    }


def single_thread_pass(wl, ctx) -> dict:
    """Per-layer times of the traced pipeline in a child limited to one BLAS thread."""
    out = ctx.work / "single_thread.json"
    probes.run_child(
        [sys.executable, str(HERE / "single_thread.py"), wl.name, str(ctx.path),
         str(SINGLE_THREAD_REPEATS), str(out)],
        probes.child_env(ctx.src, OPENBLAS_NUM_THREADS="1"),
        stderr_path=ctx.work / "stderr.txt")
    return json.loads(out.read_text())


def traced_run(wl, ctx, seconds, tally, report) -> dict:
    tally.attempt("warm-up", lambda: wl.op(ctx))
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        done = tally.attempt(f"operation {tally.attempted}", lambda: wl.op(ctx))
        if done:
            plain.append(done[2])
        done = tally.attempt(f"traced pipeline {tally.attempted}", lambda: wl.traced_op(ctx))
        if done:
            traced.append(done)
    if not plain or not traced:
        raise NoResult("no untraced or no traced operation passed its checks")
    values = {name: statistics.median(t[1][name] for t in traced) for name in traced[0][1]}
    if wl.uses_cli:
        done = tally.attempt("distributed_select", lambda: wl.library_op(ctx))
        if done:
            values.update(done[1])
    values.update(wl.run_extras(ctx, traced[0][0]))
    values.update(single_thread_pass(wl, ctx))
    values["trace.overhead"] = values["trace.run_s"] / statistics.median(plain) - 1.0
    report.append(f"samples: {len(plain)} untraced and {len(traced)} traced operations")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    colsel = import_package()
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = HERE / "work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        path = work / "input.bin"
        colsel.save_matrix(wl.generate(args.seed), path, "binary")
        a = colsel.load_matrix(path, "binary")
        ctx = Context(SRC, work, path, a, len(os.sched_getaffinity(0)))
        report = [
            f"workload {wl.name} seed {args.seed} trace {args.trace} seconds {args.seconds}",
            "machine " + json.dumps(probes.machine_record()),
            f"input {a.shape[0]}x{a.shape[1]} float64: {a.nbytes / 2**20:.2f} MiB in memory, "
            f"{path.stat().st_size / 2**20:.2f} MiB on disk",
        ]
        tally = Tally(a.shape[1], wl.l)
        try:
            values = (traced_run if args.trace else timed_run)(wl, ctx, args.seconds, tally, report)
        except NoResult as exc:
            print("\n".join(report + [f"failure: {f}" for f in tally.failures]), file=sys.stderr)
            sys.exit(f"perfbench: {exc}")
        if args.trace:
            declared = spec["per_layer"]
            idle = [m["name"] for m in declared if m["name"] not in values]
            report.append("zero, as their layer does not run here: " + (", ".join(idle) or "none"))
            values.update(dict.fromkeys(idle, 0.0))
        else:
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    failed = len(tally.failures)
    report.append(f"failed_frac {failed}/{tally.attempted} = {failed / tally.attempted!r}")
    report.extend(f"failure: {f}" for f in tally.failures)
    width = max(len(name) for name in metrics)
    report.extend(f"{name:<{width}}  {m['value']!r} {m['unit']}" for name, m in metrics.items())
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
