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

Randomized runs feed each node's rows in the order of a Fisher-Yates
shuffle drawn from a stream keyed by the run seed and the fed chunk
range.  `_fed_rows` draws one range at a time.  Deep in the tree that is
tens of thousands of short shuffles, so on entering a subtree of at most
SUBTREE_ROWS rows the recursion draws every range of that subtree's wide
levels at once (`_level_table`, with `rng.shuffle_ranges`) and frees them
on leaving it.  The ranges fed at one depth are disjoint, so a level is
one array indexed by row.  The permutations are the same either way:
each range still gets the draws of its own stream, the same picks and
the same swaps in the same order (see `rng`).  `tree_feed_orders`, which
the oracle replays, keeps to `_fed_rows`, so the tests check one path
against the other.

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
from .rng import SplitMix64Stream, derive_seed, derive_seeds, shuffle_ranges

# Stream purpose tag; every derive_seed call site in the package uses a
# distinct leading tag so no two components share a stream.
TAG_NODE_SHUFFLE = 2

# A randomized run shuffles level by level inside every subtree of at
# most SUBTREE_ROWS rows, on the levels where at least LEVEL_MIN_RANGES
# ranges of two or more rows are fed.  The table of a subtree holds
# about SUBTREE_ROWS * log2(SUBTREE_ROWS) int64 entries.  A lockstep
# step (~2 us on a 2-vCPU Xeon VM) costs about as much as 10 elements of
# a per-node shuffle, so a level of a few long ranges is cheaper one
# range at a time.
SUBTREE_ROWS = 4096
LEVEL_MIN_RANGES = 16


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
                 "fold_scores", "counters", "traces", "row_bounds", "levels", "levels_base")

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
        # the chunk bounds as an array, for randomized runs' level shuffles
        self.row_bounds = (np.asarray(partition.bounds, dtype=np.int64)
                           if config.ordering == "randomized" else None)
        # the current subtree's level table (see _level_table), or None
        self.levels = None
        self.levels_base = 0


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
        stream = SplitMix64Stream(derive_seed(shuffle_seed, first, last))
        rows = rows.start + stream.permutation(rows.stop - rows.start)
    return rows


def _level_table(run: _Run, s: int, e: int, depth: int) -> dict:
    """The fed rows of the wide levels of subtree s..e, by depth.

    The ranges fed at a depth are the nodes at that depth (each node is
    fed its sibling), so they are disjoint, and one int64 row over the
    subtree's rows holds them all: the rows of range first..last, in the
    order `_fed_rows` gives, sit at their own positions minus the
    subtree's first row.  A level gets a row only if at least
    LEVEL_MIN_RANGES of its ranges hold two or more rows.  One
    `shuffle_ranges` call shuffles every range of every such level.
    """
    bounds = run.row_bounds
    base, size = int(bounds[s]), int(bounds[e + 1] - bounds[s])
    starts, ends = np.array([s]), np.array([e])
    depths, firsts, lasts = [], [], []
    while starts.size:
        mids = (starts + ends) // 2
        starts, ends = np.concatenate((starts, mids + 1)), np.concatenate((mids, ends))
        depth += 1
        fed = bounds[ends + 1] - bounds[starts] > 1
        if np.count_nonzero(fed) >= LEVEL_MIN_RANGES:
            depths.append(depth)
            firsts.append(starts[fed])
            lasts.append(ends[fed])
        inner = starts < ends
        starts, ends = starts[inner], ends[inner]
    if not depths:
        return {}
    table = np.tile(np.arange(base, base + size), (len(depths), 1))
    # row `row` of table row l is flat position l * size + row - base
    shift = np.repeat(np.arange(len(depths)) * size - base, [len(f) for f in firsts])
    firsts, lasts = np.concatenate(firsts), np.concatenate(lasts)
    shuffle_ranges(table.reshape(-1), derive_seeds(run.shuffle_seed, firsts, lasts),
                   bounds[firsts] + shift, bounds[lasts + 1] + shift)
    return dict(zip(depths, table))


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
        b = part.bounds
        # a randomized run's first node of at most SUBTREE_ROWS rows
        # shuffles its subtree's wide levels, if it has enough chunks for one
        tabled = (run.levels is None and run.row_bounds is not None
                  and e - s >= LEVEL_MIN_RANGES - 1 and b[e + 1] - b[s] <= SUBTREE_ROWS)
        if tabled:
            run.levels = _level_table(run, s, e, depth)
            run.levels_base = b[s]
        right = model.clone()
        _branch(run, s, m, model, m + 1, e, depth + 1)
        _branch(run, m + 1, e, right, s, m, depth + 1)
        if tabled:
            run.levels = None


def _branch(run: _Run, s: int, e: int, model: IncrementalLearner, first: int, last: int,
            depth: int) -> None:
    """Train the model on chunks first..last, then visit subtree s..e.

    The rows come from the level table when it holds them, else from
    `_fed_rows`; both give the same order.
    """
    lo, hi = run.partition.bounds[first], run.partition.bounds[last + 1]
    level = run.levels.get(depth) if run.levels else None
    if level is not None and hi - lo > 1:
        rows = level[lo - run.levels_base:hi - run.levels_base]
    else:
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
