"""Experiment harness: run plans, benchmark sweeps, stability gaps, and
record aggregation.

A plan enumerates (scheduler, ordering, k, repetition) cells over one
dataset; every cell is fully determined by the plan plus the base seed
and repetition index.  Execution emits one flat record per run, in
canonical (k, scheduler, ordering, repetition) order, which the report
stage aggregates into mean +/- std tables with full row traceability.
A benchmark sweep summarizes that same run stream, taken over the first
n points for each n of its grid, into one row per cell.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .core import (
    CrossValidationError,
    CvReport,
    Dataset,
    Loss,
    check_ordering,
    evaluate_chunk,
    get_loss,
    partition as make_partition,
)
from .dataio import synth_blobs, synth_classification, synth_regression
from .forkjoin import check_workers
from .learners import LsqSgd, MeanPredictor, OnlineKMeans, Pegasos
from .rng import SplitMix64Stream, derive_seed
from .standard import brute_force_oracle, standard_cv
from .tree import NodeTrace, TreeCvConfig, tree_cv, tree_feed_orders

TAG_REPETITION = 7
TAG_STABILITY_CHUNK_ORDER = 8
TAG_STABILITY_DATA = 10
TAG_STABILITY_GAP = 11

LEARNER_NAMES = ("pegasos", "lsqsgd", "kmeans", "mean")
SCHEDULERS = ("tree", "standard")
DEFAULT_LOSS = {
    "pegasos": "zeroone",
    "lsqsgd": "squared",
    "kmeans": "quantization",
    "mean": "squared",
}

RUN_FIELDS = [
    "row_id", "status", "learner", "loss", "scheduler", "ordering", "k", "n", "d",
    "rep", "run_seed", "estimate", "fold_scores", "point_updates", "snapshots",
    "nodes_visited", "model_transfers", "evaluations", "wall_time", "error",
]

TRACE_FIELDS = ["row_id"] + [f.name for f in fields(NodeTrace)]

BENCH_FIELDS = [
    "n", "k", "scheduler", "ordering", "reps", "median_wall_time",
    "point_updates", "estimate_mean",
]

STABILITY_FIELDS = ["learner", "n", "chunks", "seeds", "mean_gap", "max_gap"]


# ---------------------------------------------------------------------------
# Synthetic dataset specs


# The keys each synthetic kind reads; the integral ones must be whole numbers.
SYNTH_KEYS = {
    "classification": ("n", "d", "margin", "noise", "seed"),
    "regression": ("n", "d", "noise", "seed"),
    "blobs": ("n", "d", "clusters", "spread", "seed"),
}
_INTEGRAL_KEYS = ("n", "d", "clusters", "seed")


def _parse_number(text: str):
    """Integers stay exact (seeds are 64-bit); everything else is float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_synth_spec(spec: str) -> tuple[str, dict]:
    """Parse "kind:key=value,key=value" into (kind, params).

    Only the kind's own keys are accepted, and n, d, clusters and seed
    must be whole numbers (1e3 is; 2.7 is not), returned as ints.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in SYNTH_KEYS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    params: dict = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"expected key=value in synthetic spec, got {item!r}")
            if key not in SYNTH_KEYS[kind]:
                raise ValueError(f"unknown key {key!r} in {kind} spec; expected one of "
                                 f"{', '.join(SYNTH_KEYS[kind])}")
            number = _parse_number(value)
            if key in _INTEGRAL_KEYS and isinstance(number, float):
                if not number.is_integer():
                    raise ValueError(f"{key} must be a whole number, got {value.strip()}")
                number = int(number)
            params[key] = number
    return kind, params


def make_synth_dataset(spec: str) -> Dataset:
    """Materialize a synthetic dataset from its spec string.

    The string's own `seed` key (default 0) pins the dataset, so the same
    string always yields the same points.
    """
    kind, params = parse_synth_spec(spec)
    return _synth(kind, params, params.get("n", 1000))


def _synth(kind: str, params: dict, n: int) -> Dataset:
    d = params.get("d", 10)
    seed = params.get("seed", 0)
    if kind == "classification":
        return synth_classification(n, d, margin=params.get("margin", 0.3),
                                    noise=params.get("noise", 0.1), seed=seed)
    if kind == "regression":
        return synth_regression(n, d, noise=params.get("noise", 0.1), seed=seed)
    return synth_blobs(n, d, n_clusters=params.get("clusters", 3),
                       spread=params.get("spread", 1.0), seed=seed)


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class ExperimentPlan:
    """One dataset crossed with schedulers, orderings, fold counts, reps."""

    learner: str
    loss: str
    k_values: tuple[object, ...] = (5,)   # ints, or the string "n" for LOOCV
    schedulers: tuple[str, ...] = ("tree",)
    orderings: tuple[str, ...] = ("fixed",)
    repetitions: int = 1
    base_seed: int = 0
    lam: float = 1e-4
    alpha: float | None = None            # None: full-dataset n**-0.5
    n_clusters: int = 3
    threads: int = 0
    update_budget: int = 10_000_000
    verify: bool = False

    def validate(self) -> None:
        if self.learner not in LEARNER_NAMES:
            raise ValueError(f"unknown learner {self.learner!r}")
        get_loss(self.loss)
        if (self.learner == "kmeans") != (self.loss == "quantization"):
            raise ValueError(f"loss {self.loss!r} cannot score learner {self.learner!r}: k-means "
                             "predicts a center per row, which only quantization scores, and "
                             "the other learners predict one number per row, which only "
                             "zeroone and squared score")
        for s in self.schedulers:
            if s not in SCHEDULERS:
                raise ValueError(f"unknown scheduler {s!r}")
        for o in self.orderings:
            check_ordering(o)
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.update_budget < 0:
            raise ValueError(f"update budget must be at least 0, got {self.update_budget}")
        check_workers(self.threads, "threads")
        for kv in self.k_values:
            if kv != "n" and (not isinstance(kv, int) or kv < 2):
                raise ValueError(f"k values must be integers >= 2 or 'n', got {kv!r}")
        if len(set(self.k_values)) < len(self.k_values):  # the same rows, twice
            raise ValueError(f"k values must not repeat, got {list(self.k_values)}")


def check_labels(plan: ExperimentPlan, dataset: Dataset) -> None:
    """Reject data whose labels the validated plan's learner cannot read.

    Every learner but k-means, and so every loss but quantization, reads
    an outcome per point.  Pegasos and the zero-one loss take binary
    labels as -1.0 / +1.0: Pegasos scales its step by the label, so with
    0/1 labels it would silently never learn from the 0 class.
    """
    if plan.learner == "pegasos" or plan.loss == "zeroone":
        if dataset.y is None or not np.isin(dataset.y, (-1.0, 1.0)).all():
            raise ValueError(f"learner {plan.learner!r} with loss {plan.loss!r} needs every "
                             "label to be -1 or +1; a classification spec gives them, and "
                             "--binarize-label maps one class of a data file to +1 and the "
                             "rest to -1")
    elif dataset.y is None and plan.learner != "kmeans":
        raise ValueError(f"learner {plan.learner!r} needs an outcome for every point, "
                         "but the data is unlabeled")


def make_learner_factory(plan: ExperimentPlan, dataset: Dataset):
    """Factory for the plan's learner, with data-dependent defaults."""
    dim = dataset.dim
    if plan.learner == "pegasos":
        lam = plan.lam
        return lambda: Pegasos(dim, lam)
    if plan.learner == "lsqsgd":
        alpha = plan.alpha if plan.alpha is not None else dataset.n ** -0.5
        return lambda: LsqSgd(dim, alpha)
    if plan.learner == "kmeans":
        clusters = plan.n_clusters
        return lambda: OnlineKMeans(dim, clusters)
    return lambda: MeanPredictor(dim)


def resolve_k(k_value, n: int) -> int:
    return n if k_value == "n" else int(k_value)


def standard_update_cost(n: int, k: int) -> int:
    """Point updates a standard-CV run will perform: sum of n - |Z_i|."""
    return n * k - n


# ---------------------------------------------------------------------------
# Run execution


def execute_run(plan: ExperimentPlan, dataset: Dataset, scheduler: str, ordering: str,
                k: int, run_seed: int,
                trace_sink: list[NodeTrace] | None = None) -> CvReport:
    """Execute one cross-validation run of the plan."""
    part = make_partition(dataset, k)
    loss = get_loss(plan.loss)
    factory = make_learner_factory(plan, dataset)
    if scheduler == "tree":
        config = TreeCvConfig(ordering=ordering, max_workers=plan.threads, seed=run_seed)
        report = tree_cv(factory, dataset, part, loss, config, trace_sink=trace_sink)
        if plan.verify:
            orders = tree_feed_orders(part, ordering, run_seed)
            replay = brute_force_oracle(factory, dataset, part, loss, orders, seed=run_seed)
            if replay.fold_scores != report.fold_scores:
                raise CrossValidationError(
                    "verification failed: tree fold scores do not match oracle replay"
                )
        return report
    return standard_cv(factory, dataset, part, loss, ordering, run_seed,
                       max_workers=plan.threads)


def iter_run_records(plan: ExperimentPlan, dataset: Dataset, trace_log: list | None = None):
    """Execute the whole plan, yielding one flat record per run.

    Runs are emitted in canonical (k, scheduler, ordering, repetition)
    order.  Standard runs whose projected point updates exceed the plan
    budget yield a "budget-exceeded" record, and so do verified tree
    runs, whose oracle replay costs as many updates; a failing run
    yields an "error" record and execution continues.  When `trace_log`
    is a list, tree runs append (row_id, NodeTrace) pairs to it.  The
    plan, the labels and the learner's parameters are checked when this
    is called, before any record.
    """
    _check_entry(plan, dataset)
    return _run_records(plan, dataset, trace_log)


def _check_entry(plan: ExperimentPlan, dataset: Dataset) -> None:
    """Checks every stream makes before its first row.  Building one
    learner runs the learner's own parameter checks."""
    plan.validate()
    check_labels(plan, dataset)
    make_learner_factory(plan, dataset)()


def _run_records(plan: ExperimentPlan, dataset: Dataset, trace_log: list | None):
    n, d = dataset.n, dataset.dim
    row_id = 0
    for k_value in plan.k_values:
        k = resolve_k(k_value, n)
        for scheduler in plan.schedulers:
            for ordering in plan.orderings:
                for rep in range(plan.repetitions):
                    run_seed = derive_seed(plan.base_seed, TAG_REPETITION, rep)
                    row_id += 1
                    record = dict.fromkeys(RUN_FIELDS, "")
                    record.update({
                        "row_id": row_id, "status": "ok", "learner": plan.learner,
                        "loss": plan.loss, "scheduler": scheduler, "ordering": ordering,
                        "k": k, "n": n, "d": d, "rep": rep, "run_seed": run_seed,
                    })
                    cost = standard_update_cost(n, k)
                    if cost > plan.update_budget and (scheduler == "standard" or plan.verify):
                        record["status"] = "budget-exceeded"
                        if scheduler == "tree":
                            record["error"] = (f"the --verify oracle replay costs {cost} point "
                                               f"updates, over the budget of {plan.update_budget}")
                        yield record
                        continue
                    sink = [] if trace_log is not None else None
                    try:
                        report = execute_run(plan, dataset, scheduler, ordering, k,
                                             run_seed, trace_sink=sink)
                    except CrossValidationError as err:
                        record.update({"status": "error", "error": str(err)})
                        yield record
                        continue
                    if sink:
                        trace_log.extend((row_id, t) for t in sink)
                    c = report.counters
                    record.update({
                        "estimate": repr(report.estimate),
                        "fold_scores": ";".join(repr(s) for s in report.fold_scores),
                        "point_updates": c.point_updates,
                        "snapshots": c.snapshots,
                        "nodes_visited": c.nodes_visited,
                        "model_transfers": c.model_transfers,
                        "evaluations": c.evaluations,
                        "wall_time": repr(report.wall_time),
                    })
                    yield record


# ---------------------------------------------------------------------------
# Benchmarks


def bench_rows(plan: ExperimentPlan, dataset: Dataset, n_grid: list[int]):
    """Median wall time and update counts over a strictly ascending n grid.

    Each row summarizes the `plan.repetitions` run records of one cell of
    the plan, run on the first n points of the dataset for each grid
    entry, so a single generated dataset serves the whole sweep.  The
    plan, the grid, the labels and the learner's parameters are checked
    when this is called, before any row.
    """
    if not n_grid:
        raise ValueError("n grid must not be empty")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n grid must be strictly ascending")
    if n_grid[-1] > dataset.n:
        raise ValueError(f"n grid exceeds dataset size {dataset.n}")
    _check_entry(plan, dataset)
    smallest = n_grid[0]
    if any(not 2 <= resolve_k(kv, smallest) <= smallest for kv in plan.k_values):
        raise ValueError(f"every fold count must satisfy 2 <= k <= {smallest}, "
                         "the smallest grid size")
    return _bench_rows(plan, dataset, n_grid)


def _bench_rows(plan: ExperimentPlan, dataset: Dataset, n_grid: list[int]):
    for n in n_grid:
        records = _run_records(plan, dataset.head(n), None)
        while cell := list(islice(records, plan.repetitions)):
            first = cell[0]
            row = {key: first[key] for key in ("n", "k", "scheduler", "ordering")}
            if first["status"] == "budget-exceeded":
                row.update({"reps": 0, "median_wall_time": "budget-exceeded",
                            "point_updates": standard_update_cost(n, first["k"]),
                            "estimate_mean": ""})
                yield row
                continue
            for record in cell:
                if record["status"] == "error":
                    raise CrossValidationError(record["error"])
            row.update({
                "reps": len(cell),
                "median_wall_time": repr(statistics.median(float(r["wall_time"]) for r in cell)),
                "point_updates": cell[-1]["point_updates"],
                "estimate_mean": repr(math.fsum(float(r["estimate"]) for r in cell) / len(cell)),
            })
            yield row


def speedup_summary(rows: list[dict]) -> list[str]:
    """Human-readable ratios from bench rows: scheduler speedup per cell,
    next to the ratio of point updates it would be if time followed work,
    and the measured overhead of randomized feeding where both orderings
    were benchmarked."""
    by_key = {}
    for row in rows:
        if row["reps"]:
            by_key[(row["n"], row["k"], row["scheduler"], row["ordering"])] = (
                float(row["median_wall_time"]), int(row["point_updates"])
            )
    lines = []
    for (n, k, scheduler, ordering), (wall, updates) in sorted(by_key.items()):
        if scheduler == "standard":
            tree = by_key.get((n, k, "tree", ordering))
            if tree and tree[0]:
                lines.append(
                    f"n={n} k={k} ordering={ordering}: standard/tree wall ratio "
                    f"{wall / tree[0]:.2f}, update ratio {updates / tree[1]:.2f}"
                )
        if ordering == "randomized":
            fixed = by_key.get((n, k, scheduler, "fixed"))
            if fixed and fixed[0]:
                lines.append(
                    f"n={n} k={k} scheduler={scheduler}: randomized/fixed wall ratio "
                    f"{wall / fixed[0]:.2f}"
                )
    return lines


# ---------------------------------------------------------------------------
# Incremental-vs-batch stability


def stability_gap(learner_factory, dataset: Dataset, n_chunks: int, loss: Loss,
                  seed: int = 0) -> float:
    """|test score of chunk-trained model - batch-trained model|.

    The dataset is split into n_chunks training cells plus one held-out
    test cell (the last).  The batch model absorbs all training points in
    one call, in dataset order; the incremental model absorbs the same
    cells one update at a time, in a seeded random cell order.  With a
    single training chunk the two sequences coincide and the gap is
    exactly zero.
    """
    if n_chunks < 1:
        raise ValueError("need at least one training chunk")
    part = make_partition(dataset, n_chunks + 1)
    test_slice = part.chunk_slice(n_chunks)
    x, y = dataset.x, dataset.y

    batch = learner_factory().fresh()
    train = slice(0, test_slice.start)
    batch.update(x[train], y[train] if y is not None else None)

    incremental = learner_factory().fresh()
    cell_order = list(range(n_chunks))
    SplitMix64Stream(derive_seed(seed, TAG_STABILITY_CHUNK_ORDER)).shuffle(cell_order)
    for cell in cell_order:
        sl = part.chunk_slice(cell)
        incremental.update(x[sl], y[sl] if y is not None else None)

    score_batch = evaluate_chunk(batch, dataset, test_slice, loss)
    score_inc = evaluate_chunk(incremental, dataset, test_slice, loss)
    return abs(score_inc - score_batch)


def stability_rows(plan: ExperimentPlan, synth_spec: str, n_list: list[int],
                   n_seeds: int, n_chunks: int = 10):
    """Mean |incremental - batch| gap per training-set size, over seeds.

    Each seed draws a fresh dataset from the synthetic spec and a fresh
    chunk order, so the row reports the expected gap at that size.  The
    plan, the sizes, the counts, the spec's labels and the learner's
    parameters are checked when this is called, before any row.  The spec
    may not set `n` or `seed`: the sizes come from `n_list` and each
    repetition derives its own data seed.
    """
    kind, params = parse_synth_spec(synth_spec)
    for key in ("n", "seed"):
        if key in params:
            raise ValueError(f"the stability spec may not set {key!r}: sizes come from "
                             f"--n-list and each repetition derives its own data seed")
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if n_chunks < 1:
        raise ValueError("need at least one training chunk")
    if not n_list or min(n_list) < n_chunks + 1:
        raise ValueError(f"every training size must be at least chunks + 1 = {n_chunks + 1}")
    # every seed of the spec draws labels from the same domain
    _check_entry(plan, _synth(kind, params, min(n_list)))
    return _stability_rows(plan, kind, params, n_list, n_seeds, n_chunks)


def _stability_rows(plan: ExperimentPlan, kind: str, params: dict, n_list: list[int],
                    n_seeds: int, n_chunks: int):
    loss = get_loss(plan.loss)
    for n in n_list:
        gaps = []
        for rep in range(n_seeds):
            data_seed = derive_seed(plan.base_seed, TAG_STABILITY_DATA, n, rep)
            dataset = _synth(kind, dict(params, seed=data_seed), n)
            factory = make_learner_factory(plan, dataset)
            gap_seed = derive_seed(plan.base_seed, TAG_STABILITY_GAP, rep)
            gaps.append(stability_gap(factory, dataset, n_chunks, loss, seed=gap_seed))
        yield {
            "learner": plan.learner, "n": n, "chunks": n_chunks, "seeds": n_seeds,
            "mean_gap": repr(math.fsum(gaps) / len(gaps)),
            "max_gap": repr(max(gaps)),
        }


# ---------------------------------------------------------------------------
# Aggregation


GROUP_KEYS = ("learner", "loss", "scheduler", "ordering", "k", "n")


def aggregate_records(records: list[dict]):
    """Group ok-status run records and report mean, population std, and the
    contributing row ids for each cell."""
    if not records:
        raise ValueError("no records to aggregate")
    missing = [f for f in ("row_id", "status", *GROUP_KEYS, "estimate") if f not in records[0]]
    if missing:
        raise ValueError(f"records lack the run-record column(s) {', '.join(missing)}")
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        if None in record.values():  # csv.DictReader's filler for a cut line
            raise ValueError(f"run record {record['row_id']} is cut short: it lacks fields")
        if record["status"] != "ok":
            continue
        key = (record["learner"], record["loss"], record["scheduler"],
               record["ordering"], int(record["k"]), int(record["n"]))
        groups.setdefault(key, []).append(record)
    rows = []
    for key in sorted(groups):
        cell = groups[key]
        estimates = [float(r["estimate"]) for r in cell]
        mean = math.fsum(estimates) / len(estimates)
        variance = math.fsum((e - mean) ** 2 for e in estimates) / len(estimates)
        row = dict(zip(GROUP_KEYS, key))
        row.update({
            "count": len(cell),
            "mean": repr(mean),
            "std": repr(math.sqrt(variance)),
            "row_ids": ";".join(str(r["row_id"]) for r in cell),
        })
        rows.append(row)
    return rows


REPORT_FIELDS = list(GROUP_KEYS) + ["count", "mean", "std", "row_ids"]


def render_pivot(aggregate_rows: list[dict]) -> str:
    """Text table with one row per k and one column per scheduler/ordering."""
    if not aggregate_rows:
        return "(no aggregated rows)"
    columns = sorted({(r["scheduler"], r["ordering"]) for r in aggregate_rows})
    ks = sorted({int(r["k"]) for r in aggregate_rows})
    blocks = sorted({(r["learner"], r["loss"], r["n"]) for r in aggregate_rows})
    lines = []
    for learner, loss, n in blocks:
        lines.append(f"{learner} ({loss}), n={n}: estimate mean +/- std")
        header = ["k".rjust(8)] + [f"{s}/{o}".rjust(24) for s, o in columns]
        lines.append(" ".join(header))
        for k in ks:
            cells = [str(k).rjust(8)]
            for s, o in columns:
                match = [r for r in aggregate_rows
                         if r["learner"] == learner and r["loss"] == loss
                         and r["n"] == n and int(r["k"]) == k
                         and r["scheduler"] == s and r["ordering"] == o]
                if match:
                    r = match[0]
                    cells.append(f"{float(r['mean']):.6f} +/- {float(r['std']):.6f}".rjust(24))
                else:
                    cells.append("-".rjust(24))
            lines.append(" ".join(cells))
        lines.append("")
    return "\n".join(lines)
