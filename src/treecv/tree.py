"""Tree-structured k-fold cross-validation.

`tree_cv` computes the k-fold estimate with a single logical training
pass organized as a binary recursion over chunk ranges.  A node holding
out chunks s..e preserves a copy of its incoming model, trains the model
on the second half of the range, recurses into the first half, then
trains the copy on the first half and recurses into the second.  Leaves
evaluate a model that has been trained on every chunk except their own.
Relative to training one model, the extra work is a log2(k) factor
instead of the k-fold repetition of the standard method.

Fork-join runs (max_workers > 1) split the top floor(log2(max_workers))
levels of the recursion across worker processes made with the POSIX
"fork" start method (see `forkjoin`): at each of those nodes a worker
trains and descends the right branch from a copy-on-write image of the
node's model, which stands in for the copy, and the parent process the
left.

Determinism: every node's shuffle is derived from the run seed and the
node's position in the recursion, never from execution order, so
sequential and fork-join runs of the same configuration produce
bit-identical reports (wall time aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CvReport,
    Dataset,
    IncrementalLearner,
    Loss,
    Partition,
    UpdateFailedError,
    WorkCounters,
    check_ordering,
    check_partition,
    evaluate_chunk,
    make_report,
    partition as make_partition,
)
from .forkjoin import check_workers, fork, join_all
from .rng import SplitMix64Stream, derive_seed

# Stream purpose tag; every derive_seed call site in the package uses a
# distinct leading tag so no two components share a stream.
TAG_NODE_SHUFFLE = 2


@dataclass(frozen=True)
class TreeCvConfig:
    """Scheduler options.

    max_workers 0 or 1: sequential; larger values fork the top
    floor(log2(max_workers)) recursion levels onto worker processes, up
    to `forkjoin.MAX_WORKERS`.  Negative counts are rejected.  The seed
    fully determines all shuffles regardless of worker count.
    """

    ordering: str = "fixed"
    max_workers: int = 0
    seed: int = 0

    def validate(self) -> None:
        check_ordering(self.ordering)
        check_workers(self.max_workers)


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


class _Run:
    """What every node of one run reads, and the totals it writes.

    A forked worker gets its own copy-on-write image of the run and sends
    back the fold scores, counters and traces of its subtree.
    """

    __slots__ = ("dataset", "partition", "loss", "ordering", "shuffle_seed", "fork_depth",
                 "fold_scores", "counters", "traces")

    def __init__(self, dataset, partition, loss, config, traces):
        self.dataset = dataset
        self.partition = partition
        self.loss = loss
        self.ordering = config.ordering
        # a per-run prefix: derive_seed folds its tags left to right
        self.shuffle_seed = derive_seed(config.seed, TAG_NODE_SHUFFLE)
        # <= 0 for sequential runs: no level forks
        self.fork_depth = config.max_workers.bit_length() - 1
        self.fold_scores = [0.0] * partition.k
        self.counters = WorkCounters()
        self.traces = traces


def _fed_rows(part: Partition, ordering: str, shuffle_seed: int, first: int, last: int):
    """Rows of chunks first..last in the order they are fed.

    Fixed ordering feeds them in dataset order, as a slice.  Randomized
    ordering feeds a uniform permutation of them, as an int64 index
    array, drawn from the stream derive_seed(shuffle_seed, first, last);
    `shuffle_seed` is derive_seed(run seed, TAG_NODE_SHUFFLE).  A single
    row stays a slice: its Fisher-Yates shuffle draws nothing, and a
    slice gathers as a view.
    """
    rows = part.range_slice(first, last)
    if ordering == "randomized" and rows.stop - rows.start > 1:
        rows = np.arange(rows.start, rows.stop, dtype=np.int64)
        SplitMix64Stream(derive_seed(shuffle_seed, first, last)).shuffle(memoryview(rows))
    return rows


def _node(run: _Run, s: int, e: int, model: IncrementalLearner, depth: int) -> None:
    """Visit chunk range s..e with a model trained on every other chunk.

    A leaf scores its chunk.  An internal node preserves its model for
    the right branch and descends: in the top `run.fork_depth` levels a
    forked worker takes the right branch from a copy-on-write image of
    the model while this process runs the left; below them the right
    branch runs inline on a clone.  Either way a left-branch failure
    takes precedence, as in sequential order.
    """
    run.counters.nodes_visited += 1
    part = run.partition
    if s == e:
        if run.traces is not None:
            run.traces.append(NodeTrace(s, s, s, 0, 0, depth))
        run.fold_scores[s] = evaluate_chunk(model, run.dataset, part.chunk_slice(s), run.loss,
                                            run.counters)
        return
    m = (s + e) // 2
    if run.traces is not None:
        b = part.bounds
        run.traces.append(NodeTrace(s, e, m, b[e + 1] - b[m + 1], b[m + 1] - b[s], depth))
    run.counters.snapshots += 1
    if depth < run.fork_depth:
        join_right = fork(_worker_branch, run, m + 1, e, model, s, m, depth + 1)
        _, (scores, counters, traces) = join_all([
            lambda: _branch(run, s, m, model, m + 1, e, depth + 1), join_right])
        run.fold_scores[m + 1:e + 1] = scores
        run.counters.merge(counters)
        if run.traces is not None:
            run.traces.extend(traces)
    else:
        right = model.clone()
        _branch(run, s, m, model, m + 1, e, depth + 1)
        _branch(run, m + 1, e, right, s, m, depth + 1)


def _branch(run: _Run, s: int, e: int, model: IncrementalLearner, first: int, last: int,
            depth: int) -> None:
    """Train the model on chunks first..last, then visit subtree s..e."""
    rows = _fed_rows(run.partition, run.ordering, run.shuffle_seed, first, last)
    x = run.dataset.x[rows]
    y = run.dataset.y[rows] if run.dataset.y is not None else None
    try:
        model.update(x, y)
    except Exception as err:
        raise UpdateFailedError(first, last, err) from err
    run.counters.point_updates += x.shape[0]
    run.counters.model_transfers += last - first + 1
    del rows, x, y  # free this batch before the subtree feeds its own
    _node(run, s, e, model, depth)


def _worker_branch(run: _Run, s: int, e: int, model: IncrementalLearner, first: int,
                   last: int, depth: int):
    """Forked side of a node: run the branch on this process's copy of
    the run and return what the parent merges."""
    run.counters = WorkCounters()
    run.traces = [] if run.traces is not None else None
    _branch(run, s, e, model, first, last, depth)
    return run.fold_scores[s:e + 1], run.counters, run.traces


def tree_cv(
    learner_factory: Callable[[], IncrementalLearner],
    dataset: Dataset,
    partition: Partition,
    loss: Loss,
    config: TreeCvConfig = TreeCvConfig(),
    trace_sink: list[NodeTrace] | None = None,
) -> CvReport:
    """k-fold cross-validation via the recursive tree schedule.

    Every fold's model is trained incrementally on all chunks except its
    own, in the order the tree induces; fold i's score is the mean loss
    on chunk i.  `trace_sink`, when given, receives one NodeTrace per
    visited node in sequential pre-order.  `tree_feed_orders` gives the
    sequence of rows each fold's model was fed.
    """
    config.validate()
    check_partition(partition, dataset)
    run = _Run(dataset, partition, loss, config, trace_sink)
    model = learner_factory().fresh()
    start = time.perf_counter()
    _node(run, 0, partition.k - 1, model, 0)
    wall = time.perf_counter() - start
    return make_report(run.fold_scores, run.counters, wall, "tree", config.ordering, config.seed)


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
    check_ordering(ordering)
    check_partition(part)
    orders: list[list[int]] = [[] for _ in range(part.k)]
    index = np.arange(part.n)
    shuffle_seed = derive_seed(seed, TAG_NODE_SHUFFLE)

    def fed_rows(first: int, last: int) -> list[int]:
        return index[_fed_rows(part, ordering, shuffle_seed, first, last)].tolist()

    def walk(s: int, e: int, fed: list[int]) -> None:
        if s == e:
            orders[s] = fed
            return
        m = (s + e) // 2
        walk(s, m, fed + fed_rows(m + 1, e))
        walk(m + 1, e, fed + fed_rows(s, m))

    walk(0, part.k - 1, [])
    return orders
