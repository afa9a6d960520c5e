"""Tree-structured k-fold cross-validation.

`tree_cv` computes the k-fold estimate with a single logical training
pass organized as a binary recursion over chunk ranges.  A node holding
out chunks s..e preserves its incoming model, trains it on the second
half of the range, recurses into the first half, then trains the
preserved model on the first half and recurses into the second.  Leaves
evaluate a model that has been trained on every chunk except their own.
Relative to training one model, the extra work is a log2(k) factor
instead of the k-fold repetition of the standard method.

Model preservation is pluggable: "copy" duplicates the model state at
each internal node, "save-revert" snapshots and later restores the same
object.  Both produce identical results; fork-join parallel runs
require "copy" because the two children own their models concurrently.

Fork-join runs (max_workers > 1) split the top floor(log2(max_workers))
levels of the recursion across worker processes made with the POSIX
"fork" start method (see `forkjoin`): at each of those nodes a worker
trains and descends the right branch from a copy-on-write image of the
node's model, and the parent process the left.

Determinism: all shuffles and learner streams are derived from the run
seed and the position in the recursion, never from execution order, so
sequential and fork-join runs of the same configuration produce
bit-identical reports (wall time aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .core import (
    CvReport,
    Dataset,
    InconsistentStateError,
    IncrementalLearner,
    InvalidChunkError,
    Loss,
    Partition,
    UpdateFailedError,
    WorkCounters,
    evaluate_chunk,
    make_report,
    partition as make_partition,
)
from .forkjoin import check_workers, fork, join_all
from .rng import SplitMix64Stream, derive_seed

# Stream purpose tags; every derive_seed call site in the package uses a
# distinct leading tag so no two components share a stream.
TAG_BRANCH_LEARNER = 1
TAG_NODE_SHUFFLE = 2

STRATEGIES = ("copy", "save-revert")
ORDERINGS = ("fixed", "randomized")


@dataclass(frozen=True)
class TreeCvConfig:
    """Scheduler options.

    max_workers <= 1 runs sequentially; larger values fork the top
    floor(log2(max_workers)) recursion levels onto worker processes, up
    to `forkjoin.MAX_WORKERS`.  The seed fully determines all shuffles
    and learner streams regardless of worker count.
    """

    strategy: str = "copy"
    ordering: str = "fixed"
    max_workers: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        check_workers(self.max_workers)
        if self.max_workers > 1 and self.strategy == "save-revert":
            raise ValueError("fork-join execution requires the copy strategy")


@dataclass(frozen=True)
class NodeTrace:
    """One visited recursion node.

    `points_fed_left` is the number of points trained into the model
    handed to the left child (the second half of the chunk range), and
    `points_fed_right` the number trained into the right child's model.
    Leaves record mid == start and zero fed counts.
    """

    start: int
    end: int
    mid: int
    points_fed_left: int
    points_fed_right: int
    depth: int


class _RunContext:
    __slots__ = ("dataset", "partition", "loss", "config", "fold_scores", "on_leaf")

    def __init__(self, dataset, partition, loss, config, on_leaf):
        self.dataset = dataset
        self.partition = partition
        self.loss = loss
        self.config = config
        self.fold_scores = [0.0] * partition.k
        self.on_leaf = on_leaf


def _feed(ctx: _RunContext, model: IncrementalLearner, first: int, last: int,
          counters: WorkCounters) -> None:
    """Train the model on chunks first..last inclusive.

    Fixed ordering feeds the chunks in dataset order, one update per
    chunk.  Randomized ordering feeds one batch holding a fresh uniform
    permutation of the range's points, drawn from a stream derived from
    the run seed and the fed range.
    """
    part = ctx.partition
    x, y = ctx.dataset.x, ctx.dataset.y
    rows = part.range_slice(first, last)
    try:
        if ctx.config.ordering == "randomized":
            stream = SplitMix64Stream(
                derive_seed(ctx.config.seed, TAG_NODE_SHUFFLE, first, last)
            )
            order = stream.permutation(rows.stop - rows.start) + rows.start
            model.update(x[order], y[order] if y is not None else None)
        else:
            for c in range(first, last + 1):
                sl = part.chunk_slice(c)
                model.update(x[sl], y[sl] if y is not None else None)
    except Exception as err:
        raise UpdateFailedError(first, last, err) from err
    counters.point_updates += rows.stop - rows.start
    counters.model_transfers += last - first + 1


def _branch_seed(ctx: _RunContext, s: int, e: int) -> int:
    return derive_seed(ctx.config.seed, TAG_BRANCH_LEARNER, s, e)


def _fed_points(part: Partition, first: int, last: int) -> int:
    sl = part.range_slice(first, last)
    return sl.stop - sl.start


def _leaf(ctx, s, model, depth, counters, traces) -> float:
    if traces is not None:
        traces.append(NodeTrace(s, s, s, 0, 0, depth))
    score = evaluate_chunk(model, ctx.dataset, ctx.partition.chunk_slice(s), ctx.loss, counters)
    ctx.fold_scores[s] = score
    if ctx.on_leaf is not None:
        ctx.on_leaf(s, model)
    return score / ctx.partition.k


def _recurse(ctx, s, e, model, depth, counters, traces) -> float:
    """Sequential recursion; returns the partial sum of fold scores / k."""
    counters.nodes_visited += 1
    if s == e:
        return _leaf(ctx, s, model, depth, counters, traces)
    m = (s + e) // 2
    if traces is not None:
        traces.append(NodeTrace(s, e, m, _fed_points(ctx.partition, m + 1, e),
                                _fed_points(ctx.partition, s, m), depth))
    counters.snapshots += 1
    if ctx.config.strategy == "copy":
        preserved = model.clone()
        saved = None
    else:
        preserved = None
        saved = model.snapshot()
    model.reseed(_branch_seed(ctx, s, m))
    _feed(ctx, model, m + 1, e, counters)
    total = _recurse(ctx, s, m, model, depth + 1, counters, traces)
    if preserved is None:
        try:
            model.restore(saved)
        except Exception as err:
            raise InconsistentStateError(
                f"could not revert model at chunk range ({s}, {e})"
            ) from err
        preserved = model
    preserved.reseed(_branch_seed(ctx, m + 1, e))
    _feed(ctx, preserved, s, m, counters)
    total += _recurse(ctx, m + 1, e, preserved, depth + 1, counters, traces)
    return total


def _recurse_forked(ctx, s, e, model, depth, counters, traces, fork_depth) -> float:
    """Fork-join recursion over the top `fork_depth` levels.

    At each such node a forked worker takes the right branch, starting
    from a copy-on-write image of the incoming model, while this process
    runs the left branch inline; below those levels `_recurse` takes
    over.  The worker sends back its partial sum, fold scores, counters
    and node traces, merged here so that the report and the pre-order
    trace equal a sequential run's.  A failure in the left branch takes
    precedence over one in the right, as in sequential order.
    """
    if s == e or depth >= fork_depth:
        return _recurse(ctx, s, e, model, depth, counters, traces)
    counters.nodes_visited += 1
    m = (s + e) // 2
    if traces is not None:
        traces.append(NodeTrace(s, e, m, _fed_points(ctx.partition, m + 1, e),
                                _fed_points(ctx.partition, s, m), depth))
    counters.snapshots += 1
    join_right = fork(_right_branch, ctx, s, e, model, depth + 1, traces is not None,
                      fork_depth)

    def left() -> float:
        model.reseed(_branch_seed(ctx, s, m))
        _feed(ctx, model, m + 1, e, counters)
        return _recurse_forked(ctx, s, m, model, depth + 1, counters, traces, fork_depth)

    total, (right_total, scores, right_counters, right_traces) = join_all([left, join_right])
    ctx.fold_scores[m + 1:e + 1] = scores
    counters.merge(right_counters)
    if traces is not None:
        traces.extend(right_traces)
    return total + right_total


def _right_branch(ctx, s, e, model, depth, trace, fork_depth):
    """Worker side of a fork at node (s, e): feed chunks s..m, recurse
    into m+1..e, and return what the parent needs to merge."""
    m = (s + e) // 2
    counters = WorkCounters()
    traces = [] if trace else None
    model.reseed(_branch_seed(ctx, m + 1, e))
    _feed(ctx, model, s, m, counters)
    total = _recurse_forked(ctx, m + 1, e, model, depth, counters, traces, fork_depth)
    return total, ctx.fold_scores[m + 1:e + 1], counters, traces


def tree_cv(
    learner_factory: Callable[[], IncrementalLearner],
    dataset: Dataset,
    partition: Partition,
    loss: Loss,
    config: TreeCvConfig = TreeCvConfig(),
    trace_sink: list[NodeTrace] | None = None,
    on_leaf: Callable[[int, IncrementalLearner], None] | None = None,
) -> CvReport:
    """k-fold cross-validation via the recursive tree schedule.

    Every fold's model is trained incrementally on all chunks except its
    own, in the order the tree induces; fold i's score is the mean loss
    on chunk i.  `trace_sink`, when given, receives one NodeTrace per
    visited node in sequential pre-order; `on_leaf` is called with
    (fold_index, model) right after each fold is scored, and requires a
    sequential run: under fork-join most leaves live in worker processes.
    """
    config.validate()
    if on_leaf is not None and config.max_workers > 1:
        raise ValueError("on_leaf needs a sequential run (max_workers <= 1): "
                         "worker processes cannot call back into this one")
    if partition.n != dataset.n:
        raise InvalidChunkError(
            f"partition covers {partition.n} points but dataset has {dataset.n}"
        )
    k = partition.k
    counters = WorkCounters()
    ctx = _RunContext(dataset, partition, loss, config, on_leaf)
    model = learner_factory().fresh()
    model.reseed(derive_seed(config.seed, TAG_BRANCH_LEARNER, 0, k - 1))
    start = time.perf_counter()
    if config.max_workers > 1:
        fork_depth = config.max_workers.bit_length() - 1
        _recurse_forked(ctx, 0, k - 1, model, 0, counters, trace_sink, fork_depth)
    else:
        _recurse(ctx, 0, k - 1, model, 0, counters, trace_sink)
    wall = time.perf_counter() - start
    return make_report(ctx.fold_scores, counters, wall, "tree", config.ordering, config.seed)


def loocv(
    learner_factory: Callable[[], IncrementalLearner],
    dataset: Dataset,
    loss: Loss,
    config: TreeCvConfig = TreeCvConfig(),
    trace_sink: list[NodeTrace] | None = None,
) -> CvReport:
    """Leave-one-out cross-validation: the k = n case of `tree_cv`."""
    return tree_cv(learner_factory, dataset, make_partition(dataset, dataset.n),
                   loss, config, trace_sink)


def tree_feed_orders(part: Partition, ordering: str = "fixed", seed: int = 0) -> list[list[int]]:
    """Per-fold point feeding orders induced by the tree schedule.

    Returns, for each fold i, the exact sequence of dataset row indices a
    model accumulates on its way to being evaluated on chunk i.  Used to
    replay tree-trained models through the standard-CV oracle.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    orders: list[list[int]] = [[] for _ in range(part.k)]

    def fed_rows(first: int, last: int) -> list[int]:
        rows = part.range_slice(first, last)
        if ordering == "randomized":
            stream = SplitMix64Stream(derive_seed(seed, TAG_NODE_SHUFFLE, first, last))
            return (stream.permutation(rows.stop - rows.start) + rows.start).tolist()
        return list(range(rows.start, rows.stop))

    def walk(s: int, e: int, fed: list[int]) -> None:
        if s == e:
            orders[s] = fed
            return
        m = (s + e) // 2
        walk(s, m, fed + fed_rows(m + 1, e))
        walk(m + 1, e, fed + fed_rows(s, m))

    walk(0, part.k - 1, [])
    return orders
