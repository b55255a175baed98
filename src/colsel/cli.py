"""Command-line interface tying the selection pipeline together.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or
inconsistent inputs), 4 numerical degeneracy.  All indices are 0-based.
A single ``--seed`` drives every stochastic component; sub-seeds are
derived from it deterministically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field

from . import distributed, evaluate
from .distributed import DistributedConfig, distributed_select, naive_distributed_baseline
from .generalized import generalized_select
from .greedy import greedy_select
from .linalg import DegenerateBasisError, _projection_errors, reconstruction_error
from .matrixio import FORMATS, load_matrix, save_matrix
from .seeds import derive_seed
from .sketch import KINDS, SketchSpec, sketch_matrix

BASELINES = ("uniform", "hybrid-uni", "hybrid-col", "hybrid-svd", "sketch-svd", "naive-dist")


@dataclass
class RunSummary:
    """Structured result document written as JSON when --summary is given."""

    method: str
    parameters: dict
    selected: list[int]
    f_value: float | None = None
    fbar_value: float | None = None
    relative_accuracy: float | None = None
    columns_moved: int | None = None
    exhausted: bool = False
    timings: dict = field(default_factory=dict)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colsel",
        description="Greedy column selection, sketching and the partitioned pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_l=False):
        p.add_argument("--input", required=True, help="input matrix file")
        p.add_argument("--format", default="csv", choices=FORMATS)
        if need_l:
            p.add_argument("--l", type=int, required=True, help="number of columns to select")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--summary", help="write a JSON run summary here")
        return p

    common(sub.add_parser("select", help="centralized greedy selection"), need_l=True)

    gen = common(sub.add_parser("select-gen", help="select source columns for a target matrix"),
                 need_l=True)
    gen.add_argument("--target", required=True, help="target matrix file (same --format)")

    sk = common(sub.add_parser("sketch", help="emit the sketched matrix"))
    sk.add_argument("--r", type=int, help="sketch dimension (identity defaults to n)")
    sk.add_argument("--sketch", default="gaussian", choices=KINDS)

    dist = common(sub.add_parser("select-dist", help="two-phase partitioned selection"),
                  need_l=True)
    dist.add_argument("--r", type=int, help="sketch dimension (identity defaults to n)")
    dist.add_argument("--sketch", default="gaussian", choices=KINDS)
    dist.add_argument("--partitions", type=int, default=1)
    dist.add_argument("--assignment", default="contiguous",
                      choices=distributed.ASSIGNMENTS)
    dist.add_argument("--threads", type=int, default=None,
                      help="must be >= 1 but no longer changes the run: the map phase "
                           "runs on one thread, which measured faster than a pool on 2 cores")

    base = common(sub.add_parser("baseline", help="run a baseline selection method"),
                  need_l=True)
    base.add_argument("method", choices=BASELINES)
    base.add_argument("--r", type=int,
                      help="singular-vector count for sketch-svd (default: l)")
    base.add_argument("--partitions", type=int, default=1)
    base.add_argument("--assignment", default="contiguous",
                      choices=distributed.ASSIGNMENTS)

    ev = common(sub.add_parser("eval", help="relative accuracy of an index list"))
    ev.add_argument("--l", type=int, help="expected number of indices (checked if given)")
    ev.add_argument("--trials", type=int, default=10)
    ev.add_argument("--indices",
                    help="file with one 0-based index per line (default: stdin)")
    return parser


def _write_lines(lines: list[str], output: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_summary(summary: RunSummary, path: str | None) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dataclasses.asdict(summary), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sketch_spec(args, n: int) -> SketchSpec:
    kind = args.sketch
    r = args.r
    if r is None:
        if kind != "identity":
            raise ValueError(f"--r is required for {kind} sketches")
        r = n
    return SketchSpec(kind=kind, r=r, seed=derive_seed(args.seed, "sketch"))


def _read_indices(path: str | None) -> list[int]:
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin.readlines()
    indices = []
    for lineno, line in enumerate(lines, start=1):
        token = line.strip()
        if not token:
            continue
        try:
            indices.append(int(token))
        except ValueError:
            raise ValueError(f"index list line {lineno}: {token!r} is not an integer")
    if not indices:
        raise ValueError("index list is empty")
    return indices


def _run(args) -> int:
    t0 = time.perf_counter()
    a = load_matrix(args.input, args.format)
    summary = None

    if args.command == "select":
        res = greedy_select(a, args.l)
        _write_lines([str(i) for i in res.indices], args.output)
        if args.summary:
            summary = RunSummary(
                method="greedy",
                parameters={"l": args.l, "seed": args.seed},
                selected=res.indices,
                f_value=reconstruction_error(a, res.indices),
                exhausted=res.exhausted,
            )

    elif args.command == "select-gen":
        b = load_matrix(args.target, args.format)
        res = generalized_select(a, b, args.l)
        _write_lines([str(i) for i in res.indices], args.output)
        if args.summary:
            f_value, fbar_value = _projection_errors(a, res.indices, [a, b])
            summary = RunSummary(
                method="generalized",
                parameters={"l": args.l, "seed": args.seed},
                selected=res.indices,
                f_value=f_value,
                fbar_value=fbar_value,
                exhausted=res.exhausted or res.target_reconstructed,
            )

    elif args.command == "sketch":
        spec = _sketch_spec(args, a.shape[1])
        b = sketch_matrix(a, spec)
        if args.output:
            save_matrix(b, args.output, args.format)
        else:
            _write_lines([",".join(f"{v:.17g}" for v in row) for row in b], None)
        if args.summary:
            summary = RunSummary(
                method="sketch",
                parameters={"r": spec.r, "sketch": spec.kind, "seed": args.seed},
                selected=[],
            )

    elif args.command == "select-dist":
        spec = _sketch_spec(args, a.shape[1])
        config = DistributedConfig(
            partitions=args.partitions,
            budget=args.l,
            sketch=spec,
            assignment=args.assignment,
        )
        report = distributed_select(a, config, threads=args.threads)
        _write_lines([str(i) for i in report.selected], args.output)
        if args.summary:
            summary = RunSummary(
                method="distributed",
                parameters={
                    "l": args.l,
                    "r": spec.r,
                    "c": args.partitions,
                    "sketch": spec.kind,
                    "assignment": args.assignment,
                    "seed": args.seed,
                },
                selected=report.selected,
                f_value=report.exact_error,
                fbar_value=report.target_error,
                columns_moved=report.columns_moved,
                exhausted=report.reduce_exhausted,
                timings=dict(report.timings),
            )

    elif args.command == "baseline":
        indices = _run_baseline(args, a)
        _write_lines([str(i) for i in indices], args.output)
        if args.summary:
            summary = RunSummary(
                method=f"baseline-{args.method}",
                parameters={"l": args.l, "seed": args.seed, "method": args.method},
                selected=indices,
                f_value=reconstruction_error(a, indices),
            )

    elif args.command == "eval":
        indices = _read_indices(args.indices)
        if args.l is not None and args.l != len(indices):
            raise ValueError(
                f"--l {args.l} does not match the {len(indices)} provided indices"
            )
        started = time.perf_counter()
        error, accuracy = evaluate.evaluate_selection(
            a, indices, uniform_trials=args.trials, seed=args.seed
        )
        duration = time.perf_counter() - started
        _write_lines([f"{accuracy:.17g}"], args.output)
        if args.summary:
            summary = RunSummary(
                method="eval",
                parameters={"l": len(indices), "trials": args.trials, "seed": args.seed},
                selected=indices,
                f_value=error,
                relative_accuracy=accuracy,
                timings={"eval": duration},
            )

    if summary is not None:
        summary.timings.setdefault("total", time.perf_counter() - t0)
        _write_summary(summary, args.summary)
    return 0


def _run_baseline(args, a) -> list[int]:
    n = a.shape[1]
    if args.method == "uniform":
        return evaluate.uniform_select(n, args.l, args.seed)
    if args.method == "hybrid-uni":
        return evaluate.hybrid_select(a, args.l, "uniform", args.seed)
    if args.method == "hybrid-col":
        return evaluate.hybrid_select(a, args.l, "column-norm", args.seed)
    if args.method == "hybrid-svd":
        return evaluate.hybrid_select(a, args.l, "svd-rows", args.seed)
    if args.method == "sketch-svd":
        k = args.r if args.r is not None else args.l
        return evaluate.sketch_svd_select(a, args.l, k, args.seed)
    config = DistributedConfig(
        partitions=args.partitions,
        budget=args.l,
        sketch=None,
        assignment=args.assignment,
    )
    return naive_distributed_baseline(a, config)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except DegenerateBasisError as exc:
        print(f"colsel: numerical degeneracy: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # MatrixFormatError and MetricUndefinedError too
        print(f"colsel: error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
