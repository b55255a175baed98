"""Command-line interface tying the selection pipeline together.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or
inconsistent inputs, an undefined metric, or a matrix or sketch too large
to allocate).  All indices are 0-based.
In each subcommand with a stochastic component (sketch, select-dist,
baseline, eval) a single ``--seed`` drives all of them; sub-seeds are
derived from it deterministically.

Public names are called through the package (``colsel.greedy_select``),
whose ``_EXPORTS`` table imports a submodule on first use, so each
subcommand imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import colsel

from .linalg import _projection_errors, reconstruction_error
from .matrixio import FORMATS, _write_csv, load_matrix, save_matrix
from .sketch import KINDS, SketchSpec

_BASELINES = {
    "uniform": lambda a, args: colsel.uniform_select(a.shape[1], args.l, args.seed),
    "hybrid-uni": lambda a, args: colsel.hybrid_select(a, args.l, "uniform", args.seed),
    "hybrid-col": lambda a, args: colsel.hybrid_select(a, args.l, "column-norm", args.seed),
    "hybrid-svd": lambda a, args: colsel.hybrid_select(a, args.l, "svd-rows", args.seed),
    "sketch-svd": lambda a, args: colsel.sketch_svd_select(a, args.l, args.r, args.seed),
    "naive-dist": lambda a, args: colsel.naive_distributed_baseline(
        a, colsel.DistributedConfig(partitions=args.partitions, budget=args.l, sketch=None)),
}


# The --summary document's keys; a value that a subcommand does not set is null.
_SUMMARY_KEYS = ("method", "parameters", "selected", "f_value", "fbar_value",
                 "relative_accuracy", "columns_moved", "exhausted", "timings")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colsel",
        description="Greedy column selection, sketching and the partitioned pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_l=False, seeded=True):
        p.add_argument("--input", required=True, help="input matrix file")
        p.add_argument("--format", default="csv", choices=FORMATS)
        if need_l:
            p.add_argument("--l", type=int, required=True, help="number of columns to select")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--summary", help="write a JSON run summary here")
        return p

    # Greedy selection is deterministic: select and select-gen take no seed.
    common(sub.add_parser("select", help="centralized greedy selection"),
           need_l=True, seeded=False)

    gen = common(sub.add_parser("select-gen", help="select source columns for a target matrix"),
                 need_l=True, seeded=False)
    gen.add_argument("--target", required=True, help="target matrix file (same --format)")

    sk = common(sub.add_parser("sketch", help="emit the sketched matrix"))
    sk.add_argument("--r", type=int, help="sketch dimension (identity defaults to n)")
    sk.add_argument("--sketch", default="gaussian", choices=KINDS)

    dist = common(sub.add_parser("select-dist", help="two-phase partitioned selection"),
                  need_l=True)
    dist.add_argument("--r", type=int, help="sketch dimension (identity defaults to n)")
    dist.add_argument("--sketch", default="gaussian", choices=KINDS)
    dist.add_argument("--partitions", type=int, default=1)
    dist.add_argument("--threads", type=int, default=None,
                      help="must be >= 1 but no longer changes the run: the map phase "
                           "runs on one thread, which measured faster than a pool on 2 cores")

    base = common(sub.add_parser("baseline", help="run a baseline selection method"),
                  need_l=True)
    base.add_argument("method", choices=_BASELINES)
    base.add_argument("--r", type=int,
                      help="singular-vector count for sketch-svd (default: l, at most min(m, n))")
    base.add_argument("--partitions", type=int, default=1)

    ev = common(sub.add_parser("eval", help="relative accuracy of an index list"))
    ev.add_argument("--l", type=int, help="expected number of indices (checked if given)")
    ev.add_argument("--trials", type=int, default=10,
                    help="uniform draws to average, one QR each; no upper bound")
    ev.add_argument("--indices",
                    help="file with one 0-based index per line (default: stdin)")
    return parser


def _sketch_spec(args, n: int) -> SketchSpec:
    if args.r is None and args.sketch != "identity":
        raise ValueError(f"--r is required for {args.sketch} sketches")
    r = n if args.r is None else args.r
    return SketchSpec(kind=args.sketch, r=r, seed=colsel.derive_seed(args.seed, "sketch"))


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
    # Each branch computes its picks and summary values before anything is written.
    timings, lines = {}, None

    if args.command == "select":
        selected = colsel.greedy_select(a, args.l).indices
        if args.summary:
            summary = {"method": "greedy", "parameters": {"l": args.l},
                       "f_value": reconstruction_error(a, selected)}

    elif args.command == "select-gen":
        b = load_matrix(args.target, args.format)
        selected = colsel.generalized_select(a, b, args.l).indices
        if args.summary:
            f_value, fbar_value = _projection_errors(a, selected, [a, b])
            summary = {"method": "generalized", "parameters": {"l": args.l},
                       "f_value": f_value, "fbar_value": fbar_value}

    elif args.command == "sketch":
        spec = _sketch_spec(args, a.shape[1])
        b = colsel.sketch_matrix(a, spec)
        selected = []
        summary = {"method": "sketch",
                   "parameters": {"r": spec.r, "sketch": spec.kind, "seed": args.seed}}

    elif args.command == "select-dist":
        spec = _sketch_spec(args, a.shape[1])
        config = colsel.DistributedConfig(partitions=args.partitions, budget=args.l, sketch=spec)
        report = colsel.distributed_select(a, config, threads=args.threads)
        selected, timings = report.selected, report.timings
        summary = {
            "method": "distributed",
            "parameters": {"l": args.l, "r": spec.r, "c": args.partitions,
                           "sketch": spec.kind, "seed": args.seed},
            "f_value": report.exact_error,
            "fbar_value": report.target_error,
            "columns_moved": report.columns_moved,
        }

    elif args.command == "baseline":
        selected = _BASELINES[args.method](a, args)
        if args.summary:
            summary = {"method": f"baseline-{args.method}",
                       "parameters": {"l": args.l, "seed": args.seed, "method": args.method},
                       "f_value": reconstruction_error(a, selected)}

    elif args.command == "eval":
        selected = _read_indices(args.indices)
        if args.l is not None and args.l != len(selected):
            raise ValueError(
                f"--l {args.l} does not match the {len(selected)} provided indices"
            )
        started = time.perf_counter()
        error, accuracy = colsel.evaluate_selection(
            a, selected, uniform_trials=args.trials, seed=args.seed
        )
        timings = {"eval": time.perf_counter() - started}
        lines = [f"{accuracy:.17g}"]
        summary = {"method": "eval",
                   "parameters": {"l": len(selected), "trials": args.trials, "seed": args.seed},
                   "f_value": error, "relative_accuracy": accuracy}

    summary_created = False
    if args.summary:
        doc = {**dict.fromkeys(_SUMMARY_KEYS), **summary, "selected": selected,
               "exhausted": len(selected) < summary["parameters"].get("l", 0),
               "timings": {**timings, "total": time.perf_counter() - t0}}
        # An infinite or NaN value is not JSON, and a summary path may not
        # open: either raises here, before the picks or the sketch are written.
        # The probe does not truncate: a summary there before stays as it was.
        summary_text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        try:
            open(args.summary, "x").close()
        except FileExistsError:
            open(args.summary, "a").close()
        else:
            summary_created = True
    try:
        if args.command == "sketch":
            # A sketch file takes --format; stdout takes CSV rows.
            if args.output:
                save_matrix(b, args.output, args.format)
            else:
                _write_csv(b, sys.stdout)
        else:
            text = "".join(line + "\n" for line in lines or map(str, selected))
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                sys.stdout.write(text)
    except BaseException:
        if summary_created:  # a failed write of the result leaves no new summary
            with contextlib.suppress(OSError):
                os.remove(args.summary)
        raise
    if args.summary:  # after the result: a summary naming the --output file replaces it
        with open(args.summary, "w", encoding="utf-8") as handle:
            handle.write(summary_text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: too large to allocate
        print(f"colsel: error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
