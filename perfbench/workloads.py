"""The benchmark's workloads: seeded inputs, the timed operation and its traced twin.

Each workload offers
- ``generate(seed)``: the input matrix, a pure function of the seed;
- ``op(ctx)``: one user-visible operation, timed with tracing off;
- ``traced_op(ctx)``: the same pipeline rebuilt from the package's public
  calls, with a span around each, returning per-layer values;
- ``run_extras(ctx, outcome)``: per-layer values measured once per run.

``CliWorkload`` also offers ``library_op(ctx)``, the pipeline through the
library's ``distributed_select``, whose report gives the exact counts.

The package under test only ever sees the generated matrix, as an array or
as a binary file; the workload seed is never passed to it.
"""

from __future__ import annotations

import json
import statistics
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import colsel
from probes import child_env, cli_startup_time, run_child
from spans import Trace

# `colsel eval` defaults, which the traced pipeline must reproduce.
EVAL_TRIALS = 10
EVAL_SEED = 0
# `colsel select-dist` defaults: the sketch seed derives from --seed 0.
CLI_SEED = 0


@dataclass
class Context:
    """What one run shares between its operations."""

    src: Path
    work: Path
    path: Path
    a: np.ndarray
    nproc: int


@dataclass
class Outcome:
    """What an operation returned, as far as the output checks need it."""

    picks: list[int]
    exhausted: bool
    relacc: float | None = None
    rss_mb: float | None = None
    gains: list[float] | None = None


def zipf_planted(rng, m, n, rank=128, noise=0.1):
    """A rank-``rank`` matrix plus noise; each column carries one direction.

    Direction i recurs in a share of the columns proportional to 1/i
    (Zipf-like), so a few directions fill many columns and the tail ones
    only a few.  Counts and amplitude are fixed and only the columns,
    signs, directions and noise are random, which keeps the quality
    metrics from swinging between seeds.
    """
    basis = rng.standard_normal((m, rank))
    basis /= np.linalg.norm(basis, axis=0)
    share = n / np.arange(1, rank + 1) / np.sum(1.0 / np.arange(1, rank + 1))
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[: n - counts.sum()]] += 1
    directions = rng.permutation(np.repeat(np.arange(rank), counts))
    signs = rng.choice([-1.0, 1.0], size=n)
    noise_part = rng.standard_normal((m, n)) * (noise / np.sqrt(m))
    return np.asfortranarray(basis[:, directions] * signs + noise_part)


def geometric_spectrum(rng, m, n, smallest=1e-10):
    """Random singular vectors with singular values geometric from 1 to ``smallest``."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return np.asfortranarray((u * np.geomspace(1.0, smallest, n)) @ v.T)


class Workload:
    def __init__(self, name, m, n, l, make):
        self.name, self.m, self.n, self.l, self.make = name, m, n, l, make

    def generate(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        return self.make(rng, self.m, self.n)

    def err_ratio(self, a: np.ndarray, picks: list[int]) -> float:
        return colsel.reconstruction_error(a, picks) / colsel.frobenius_sq(a)


class GreedyWorkload(Workload):
    """Library ``greedy_select(a, l)`` on an in-memory matrix."""

    uses_cli = False

    def op(self, ctx: Context) -> Outcome:
        res = colsel.greedy_select(ctx.a, self.l)
        return Outcome(list(res.indices), res.exhausted)

    def peak_rss_mb(self, ctx: Context) -> float:
        code = ("import sys, colsel; a = colsel.load_matrix(sys.argv[1], 'binary'); "
                "colsel.greedy_select(a, int(sys.argv[2]))")
        _, rss = run_child([sys.executable, "-c", code, str(ctx.path), str(self.l)],
                           child_env(ctx.src), stderr_path=ctx.work / "stderr.txt")
        return rss

    def traced_op(self, ctx: Context) -> tuple[Outcome, dict]:
        a, tr = ctx.a, Trace()
        with tr.span("op"):
            with tr.span("greedy.init"):
                state = colsel.init_state(a)
            exhausted = False
            for _ in range(self.l):
                if not np.any(state.active):
                    exhausted = True
                    break
                with tr.span("greedy.step"):
                    colsel.select_next(state, a)
        with tr.span("matrixio.load"):
            colsel.load_matrix(ctx.path, "binary")
        steps = tr.durations("greedy.step")
        tenth = max(1, len(steps) // 10)
        values = {
            "trace.run_s": tr.total("op"),
            "trace.unaccounted_frac": tr.unaccounted_frac(),
            "matrixio.load_s": tr.total("matrixio.load"),
            "greedy.init_s": tr.total("greedy.init"),
            "greedy.step_ms": 1e3 * statistics.median(steps),
            "greedy.step_growth": statistics.fmean(steps[-tenth:]) / statistics.fmean(steps[:tenth]),
            "greedy.steps": len(steps),
            "greedy.active_frac": float(np.mean(state.active)),
        }
        return Outcome(list(state.selected), exhausted, gains=list(state.gains)), values

    def run_extras(self, ctx: Context, outcome: Outcome) -> dict:
        a = ctx.a
        exact = colsel.reconstruction_error(a, outcome.picks)
        total = colsel.frobenius_sq(a)
        relacc = colsel.relative_accuracy(a, outcome.picks, EVAL_TRIALS, seed=EVAL_SEED)
        values = {
            "greedy.gain_drift": abs((total - sum(outcome.gains)) - exact) / exact,
            "relacc_pct": relacc,
            # The workload is centralized greedy, so it is its own base row.
            "ref.greedy_err_ratio": exact / total,
            "ref.greedy_relacc_pct": relacc,
        }
        return values


class CliWorkload(Workload):
    """A command-line session: ``colsel select-dist``, then ``colsel eval`` on its picks."""

    uses_cli = True

    def __init__(self, name, m, n, l, r, partitions, make):
        super().__init__(name, m, n, l, make)
        self.r, self.partitions = r, partitions

    def spec(self):
        return colsel.SketchSpec("gaussian", self.r, seed=colsel.derive_seed(CLI_SEED, "sketch"))

    def op(self, ctx: Context, threads: int | None = None) -> Outcome:
        picks_path, summary_path, eval_path = (ctx.work / f for f in ("picks.txt", "summary.json", "eval.txt"))
        for stale in (picks_path, summary_path, eval_path):
            stale.unlink(missing_ok=True)
        env, err = child_env(ctx.src), ctx.work / "stderr.txt"
        common = [sys.executable, "-m", "colsel"]
        io = ["--input", str(ctx.path), "--format", "binary"]
        _, rss_select = run_child(
            common + ["select-dist"] + io + [
                "--sketch", "gaussian", "--r", str(self.r), "--partitions", str(self.partitions),
                "--l", str(self.l), "--threads", str(threads or ctx.nproc),
                "--summary", str(summary_path), "--output", str(picks_path)],
            env, stderr_path=err)
        _, rss_eval = run_child(common + ["eval"] + io + ["--indices", str(picks_path)],
                                env, stdout_path=eval_path, stderr_path=err)
        picks = [int(tok) for tok in picks_path.read_text().split()]
        summary = json.loads(summary_path.read_text())
        return Outcome(picks, bool(summary["exhausted"]), float(eval_path.read_text()),
                       max(rss_select, rss_eval))

    def traced_op(self, ctx: Context) -> tuple[Outcome, dict]:
        spec, tr = self.spec(), Trace()
        budget = colsel.DistributedConfig(self.partitions, self.l, spec).resolved_partition_budget()
        with tr.span("op"):
            # colsel select-dist
            with tr.span("cli.startup"):
                cli_startup_time(ctx.src)
            with tr.span("matrixio.load"):
                a = colsel.load_matrix(ctx.path, "binary")
            with tr.span("distributed.partition"):
                parts = colsel.partition_columns(a, self.partitions)
            with tr.span("sketch.partitioned"):
                b = colsel.sketch_partitioned([(p.matrix, p.global_indices) for p in parts], spec)
            results = []
            for part in parts:
                with tr.span("distributed.map"):
                    results.append(colsel.map_phase(part, b, budget))
            with tr.span("distributed.reduce"):
                selection, winners, _ = colsel.reduce_phase(results, b, self.l)
            with tr.span("linalg.exact_error"):
                colsel.reconstruction_error(a, winners)
            # colsel eval
            with tr.span("cli.startup"):
                cli_startup_time(ctx.src)
            with tr.span("matrixio.load"):
                a = colsel.load_matrix(ctx.path, "binary")
            with tr.span("linalg.exact_error"):
                colsel.reconstruction_error(a, winners)
            with tr.span("evaluate.relacc"):
                relacc = colsel.relative_accuracy(a, winners, EVAL_TRIALS, seed=EVAL_SEED)
        # Probes outside the operation, on the same inputs: the rows that
        # sketch_partitioned generates, the initial scores that map_phase
        # and reduce_phase compute, and the SVD base of relative_accuracy.
        with tr.span("sketch.rows"):
            for j in range(a.shape[1]):
                colsel.sketch_row(spec, j)
        candidates = np.asfortranarray(np.concatenate([r.columns for r in results], axis=1))
        with tr.span("generalized.init"):
            for part in parts:
                colsel.generalized_init(part.matrix, b)
            colsel.generalized_init(candidates, b)
        with tr.span("evaluate.best_rank"):
            colsel.evaluate.best_rank_error(
                a, len(winners), seed=colsel.derive_seed(EVAL_SEED, "svd-oracle"))

        maps = tr.durations("distributed.map")
        rows = tr.total("sketch.rows")
        product = tr.total("sketch.partitioned") - rows
        ginit = tr.total("generalized.init")
        values = {
            "trace.run_s": tr.total("op"),
            "trace.unaccounted_frac": tr.unaccounted_frac(),
            "matrixio.load_s": statistics.fmean(tr.durations("matrixio.load")),
            "cli.startup_s": statistics.fmean(tr.durations("cli.startup")),
            "sketch.rows_s": rows,
            "sketch.product_s": product,
            "sketch.gflops": 2.0 * self.m * self.n * self.r / product / 1e9,
            "generalized.init_s": ginit,
            "generalized.select_s": sum(maps) + tr.total("distributed.reduce") - ginit,
            "distributed.partition_s": tr.total("distributed.partition"),
            "distributed.copy_mb": sum(p.matrix.nbytes for p in parts) / 2**20,
            "distributed.map_s": sum(maps),
            "distributed.map_skew": max(maps) / statistics.fmean(maps),
            "distributed.reduce_s": tr.total("distributed.reduce"),
            "distributed.union_over_l": candidates.shape[1] / self.l,
            "linalg.exact_error_s": tr.total("linalg.exact_error"),
            "evaluate.relacc_s": tr.total("evaluate.relacc"),
            "evaluate.best_rank_s": tr.total("evaluate.best_rank"),
        }
        return Outcome(list(winners), selection.exhausted, relacc), values

    def library_op(self, ctx: Context) -> tuple[Outcome, dict]:
        """The same pipeline through ``distributed_select``, with its report's exact counts."""
        config = colsel.DistributedConfig(self.partitions, self.l, self.spec())
        report = colsel.distributed_select(ctx.a, config, threads=ctx.nproc)
        return Outcome(list(report.selected), report.reduce_exhausted), {
            "distributed.columns_moved": report.columns_moved,
            "distributed.broadcast_values": report.broadcast_values,
        }

    def run_extras(self, ctx: Context, outcome: Outcome) -> dict:
        ref = colsel.greedy_select(ctx.a, self.l)
        return {
            "relacc_pct": outcome.relacc,
            "ref.greedy_err_ratio": self.err_ratio(ctx.a, ref.indices),
            "ref.greedy_relacc_pct": colsel.relative_accuracy(ctx.a, ref.indices, EVAL_TRIALS, seed=EVAL_SEED),
        }


WORKLOADS = {
    w.name: w
    for w in (
        GreedyWorkload("wide-greedy", 600, 5000, 64, zipf_planted),
        GreedyWorkload("tall-deep", 2000, 800, 300, geometric_spectrum),
        CliWorkload("pipeline-cli", 600, 2000, 48, 128, 4, zipf_planted),
    )
}
