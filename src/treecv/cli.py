"""Command line benchmark harness.

Subcommands:

* `run`: execute a cross-validation plan and stream one CSV record per run.
* `bench`: runtime sweep over a strictly ascending n grid, medians per cell.
* `stability`: incremental-vs-batch gap table over training-set sizes.
* `report`: aggregate run records into mean +/- std cells.

All randomness derives from --seed; records are appended as soon as each
run finishes, so a partial output file is still valid CSV.  Exit codes:
0 success, 2 validation error, 1 runtime failure (for `run`, also when
any record has status "error").
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict

from .core import LOSSES, ORDERINGS, CrossValidationError
from .dataio import fit_transform, parse_sparse_text
from .forkjoin import MAX_WORKERS
from .harness import (
    BENCH_FIELDS,
    DEFAULT_LOSS,
    LEARNER_NAMES,
    REPORT_FIELDS,
    RUN_FIELDS,
    SCHEDULERS,
    STABILITY_FIELDS,
    TRACE_FIELDS,
    ExperimentPlan,
    aggregate_records,
    bench_rows,
    iter_run_records,
    make_synth_dataset,
    render_pivot,
    speedup_summary,
    stability_rows,
)


def _add_data_arguments(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="path to a sparse label index:value text file")
    source.add_argument("--synth", help="synthetic spec, e.g. classification:n=1000,d=20,noise=0.1")
    parser.add_argument("--unit-variance", action="store_true",
                        help="scale features to unit variance before partitioning")
    parser.add_argument("--binarize-label", type=float, metavar="CLASS",
                        help="map this class token to +1 and the rest to -1")
    parser.add_argument("--scale-targets", action="store_true",
                        help="min-max scale outcomes into [0, 1]")


def _add_learner_arguments(parser):
    parser.add_argument("--learner", choices=LEARNER_NAMES, required=True)
    parser.add_argument("--loss", choices=tuple(LOSSES),
                        help="defaults to the learner's natural loss")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--lambda", dest="lam", type=float, default=1e-4,
                        help="regularization strength for pegasos")
    parser.add_argument("--alpha", type=float,
                        help="step size for lsqsgd (default: n**-0.5 of the full dataset)")
    parser.add_argument("--clusters", type=int, default=3, help="centers for kmeans")
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def _add_grid_arguments(parser):
    parser.add_argument("--k", default="5",
                        help="comma-separated fold counts; the token n means LOOCV")
    parser.add_argument("--scheduler", choices=(*SCHEDULERS, "both"), default="tree")
    parser.add_argument("--ordering", choices=(*ORDERINGS, "both"), default="fixed")
    parser.add_argument("--reps", type=int, default=1, metavar="M")
    parser.add_argument("--threads", type=int, default=0, metavar="T",
                        help=f"forked worker processes inside each run, 0 to {MAX_WORKERS} "
                             "(0 or 1: sequential); a cap: treecv.forkjoin's rule decides")
    parser.add_argument("--update-budget", type=int, default=10_000_000,
                        help="skip standard runs, and tree runs under --verify (whose "
                             "oracle replay does as many updates), whose point updates "
                             "would exceed this")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecv",
        description="Cross-validation benchmark harness for incremental learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a cross-validation plan")
    _add_data_arguments(p_run)
    _add_learner_arguments(p_run)
    _add_grid_arguments(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="also write recursion node traces to <out>.trace")
    p_run.add_argument("--verify", action="store_true",
                       help="replay each tree run through the standard oracle")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="runtime sweep over a grid of dataset sizes")
    _add_data_arguments(p_bench)
    _add_learner_arguments(p_bench)
    _add_grid_arguments(p_bench)
    p_bench.add_argument("--n-grid", required=True,
                         help="comma-separated, strictly ascending dataset sizes")
    p_bench.set_defaults(func=cmd_bench)

    p_stab = sub.add_parser("stability", help="incremental-vs-batch gap measurement")
    p_stab.add_argument("--synth", required=True, help="synthetic spec without a fixed n")
    _add_learner_arguments(p_stab)
    p_stab.add_argument("--n-list", required=True, help="comma-separated training sizes")
    p_stab.add_argument("--seeds", type=int, default=50, help="independent repetitions")
    p_stab.add_argument("--chunks", type=int, default=10,
                        help="training chunks for the incremental side")
    p_stab.set_defaults(func=cmd_stability)

    p_report = sub.add_parser("report", help="aggregate run records")
    p_report.add_argument("records", help="CSV file produced by the run subcommand")
    p_report.add_argument("--pivot", action="store_true",
                          help="render a k-by-scheduler text table instead of CSV")
    p_report.add_argument("--out", help="output path (default: stdout)")
    p_report.set_defaults(func=cmd_report)
    return parser


def _load_dataset(args):
    if args.data:
        # universal newlines: the text's lines are the ones iterating the handle gives
        with open(args.data, "r", encoding="utf-8") as handle:
            dataset = parse_sparse_text(handle.read())
    else:
        dataset = make_synth_dataset(args.synth)
    if args.binarize_label is not None:
        dataset, _ = fit_transform(dataset, "binarize-label", target_label=args.binarize_label)
    if args.unit_variance:
        dataset, spec = fit_transform(dataset, "unit-variance")
        for warning in spec.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.scale_targets:
        dataset, _ = fit_transform(dataset, "targets-to-unit")
    return dataset


def _parse_k_values(text: str) -> tuple:
    values = []
    for token in text.split(","):
        token = token.strip()
        values.append("n" if token == "n" else int(token))
    return tuple(values)


def _build_plan(args, **grid) -> ExperimentPlan:
    """The plan of the shared learner options in `args`, over the cells in
    `grid`: `_grid(args)` for `run` and `bench`; `stability` runs no folds
    and keeps the plan's defaults."""
    return ExperimentPlan(
        learner=args.learner,
        loss=args.loss or DEFAULT_LOSS[args.learner],
        base_seed=args.seed,
        lam=args.lam,
        alpha=args.alpha,
        n_clusters=args.clusters,
        **grid,
    )


def _grid(args) -> dict:
    return dict(
        k_values=_parse_k_values(args.k),
        schedulers=SCHEDULERS if args.scheduler == "both" else (args.scheduler,),
        orderings=ORDERINGS if args.ordering == "both" else (args.ordering,),
        repetitions=args.reps,
        threads=args.threads,
        update_budget=args.update_budget,
    )


def _write_csv(path, fields, rows) -> list[dict]:
    """Write rows as CSV to a file path or stdout, flushing after every
    row, and return the rows written."""
    handle = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    written = []
    try:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
            handle.flush()
            written.append(row)
    finally:
        if path:
            handle.close()
    return written


def cmd_run(args) -> int:
    if args.trace and not args.out:
        raise ValueError("--trace needs --out so trace rows get their own file")
    dataset = _load_dataset(args)
    trace_log = [] if args.trace else None
    plan = _build_plan(args, **_grid(args), verify=args.verify)
    pending = iter_run_records(plan, dataset, trace_log)  # checks before the header
    records = _write_csv(args.out, RUN_FIELDS, pending)
    if args.trace:
        _write_csv(f"{args.out}.trace", TRACE_FIELDS,
                   ({"row_id": row_id, **asdict(node)} for row_id, node in trace_log))
    failures = sum(1 for r in records if r["status"] == "error")
    if failures:
        print(f"{failures} run(s) recorded errors", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    dataset = _load_dataset(args)
    n_grid = [int(tok) for tok in args.n_grid.split(",")]
    plan = _build_plan(args, **_grid(args))
    pending = bench_rows(plan, dataset, n_grid)  # checks before the header
    for line in speedup_summary(_write_csv(args.out, BENCH_FIELDS, pending)):
        print(line, file=sys.stderr)
    return 0


def cmd_stability(args) -> int:
    plan = _build_plan(args)
    n_list = [int(tok) for tok in args.n_list.split(",")]
    # checks the plan and counts before the header is written
    _write_csv(args.out, STABILITY_FIELDS,
               stability_rows(plan, args.synth, n_list, args.seeds, args.chunks))
    return 0


def cmd_report(args) -> int:
    with open(args.records, "r", newline="", encoding="utf-8") as handle:
        records = list(csv.DictReader(handle))
    if not records:
        raise CrossValidationError(f"no records in {args.records}")
    rows = aggregate_records(records)
    if args.pivot:
        text = render_pivot(rows)
        text = "estimates are mean +/- population std over repetitions\n\n" + text
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return 0
    _write_csv(args.out, REPORT_FIELDS, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrossValidationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # unexpected runtime failure
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
