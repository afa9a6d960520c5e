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

Below the fork levels, the first node of at most SUBTREE_ROWS rows and
at least LEVEL_MIN_RANGES chunks runs its subtree as one unit
(`_subtree`).  `_level_list` lists the subtree's levels once, and one
rule reads that list: a level is wide when it has at least
LEVEL_MIN_RANGES nodes.  If the model's exact type is `Pegasos` or
`LsqSgd`, which have compiled and lockstep kernels (`learners`), the
subtree runs level by level (`_levels`): the models of a level are rows
of stacked arrays, preserving a model is a row repeat, and a level's
leaves are scored in one batched prediction.  With the compiled kernels
loaded, one C call feeds every model of a level its rows; without them,
a wide level is fed one vectorized step per position and a narrow one
model by model.  Every model gets the rows, the order and the bits the
recursion gives it.  Any other learner, including a subclass of those
two (it may override `_update_point`), runs the recursion, which holds
only the log2(k) models of one root-to-leaf path; there the `update` of
an exact `Pegasos`, `LsqSgd` or `OnlineKMeans` runs compiled too.

Randomized runs feed each node's rows in the order of a Fisher-Yates
shuffle drawn from a stream keyed by the run seed and the fed chunk
range.  `_fed_rows` draws one range at a time.  Deep in the tree that is
tens of thousands of short shuffles, so on entering such a subtree the
run draws every range of two or more rows of the subtree's wide levels
at once (`_level_table`, with `rng.shuffle_ranges`) and frees them on
leaving it; a narrow level's ranges are drawn by `_fed_rows` as they are
fed.  Both the level loop and the recursion fetch a range through
`_rows`.  The ranges fed at one depth are disjoint, so a level is one
array indexed by row.  The permutations are the same either way: each
range still gets the draws of its own stream, the same picks and the
same swaps in the same order (see `rng`).  `tree_feed_orders`, which the
oracle replays, keeps to `_fed_rows`, so the tests check one path
against the other.

Determinism: every node's shuffle is derived from the run seed and the
node's position in the recursion, never from execution order, so
sequential and fork-join runs of the same configuration produce
bit-identical reports (wall time aside).
"""

from __future__ import annotations

import math
import operator
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _native
from .core import (
    CvReport,
    Dataset,
    IncrementalLearner,
    Loss,
    Partition,
    UpdateFailedError,
    WorkCounters,
    check_integer,
    check_ordering,
    check_partition,
    evaluate_chunk,
    make_report,
    partition as make_partition,
)
from .forkjoin import check_workers, fork, join_all
from .learners import LOCKSTEP, load_kernels
from .rng import SplitMix64Stream, derive_seed, derive_seeds, shuffle_ranges

# Stream purpose tag; every derive_seed call site in the package uses a
# distinct leading tag so no two components share a stream.
TAG_NODE_SHUFFLE = 2

# Subtrees of at most SUBTREE_ROWS rows and at least LEVEL_MIN_RANGES
# chunks run as one unit.  Inside one, a level is wide when it has at
# least LEVEL_MIN_RANGES nodes.  A randomized run shuffles at once every
# range of two or more rows of the wide levels: a table of about
# SUBTREE_ROWS * log2(SUBTREE_ROWS) int64 entries.  A subtree's level
# holds up to SUBTREE_ROWS gathered rows and about as many models.  On a
# 2-vCPU Xeon VM, Pegasos LOOCV at n=20000 and d=20 with the compiled
# kernels took 0.039 / 0.069 s (fixed / randomized, median of 7) with a
# 4096-row bound, 0.037 / 0.072 s with 8192 and 0.039 / 0.079 s with
# 16384.  Without them, the level loop feeds a wide level's models in
# lockstep: a Pegasos step costs ~28 us whatever the width up to ~32
# models, against ~2.4 us per point of the Python `update`, so it breaks
# even at ~12 models (an LsqSgd step, against ~6 us per point, at ~4);
# the same run took 0.36 / 0.42 s with 4096, 0.32 / 0.36 s with 8192 and
# 0.28 / 0.32 s with 16384, at tracemalloc peaks of 2.3, 3.6 and 6.4 MB.
# 8192 is as fast as any bound with the kernels and keeps the memory
# near half of 16384's without them.
SUBTREE_ROWS = 8192
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
        check_integer(self.seed, "seed")


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
        self.shuffle_seed = derive_seed(operator.index(config.seed), TAG_NODE_SHUFFLE)
        # <= 0 for sequential runs: no level forks
        self.fork_depth = operator.index(config.max_workers).bit_length() - 1
        self.fold_scores = [0.0] * partition.k
        self.counters = WorkCounters()
        self.traces = traces
        # the chunk bounds as an array, for the level shuffles and the level loop
        self.row_bounds = np.asarray(partition.bounds, dtype=np.int64)
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


# One level below a subtree's root, as `_level_list` gives it.  The nodes
# are the children of the level above's inner nodes in left-then-right
# pairs, stably sorted by the length of the range they are fed, longest
# first.  Node i holds out chunks starts[i]..ends[i], takes the model of
# node parents[i] of the level above and is fed chunks firsts[i]..lasts[i]
# (its sibling's), sizes[i] rows.  The one wide-level rule: a level is
# wide when it has at least LEVEL_MIN_RANGES nodes.
_Level = namedtuple("_Level", "depth starts ends parents firsts lasts sizes wide")


def _rows(run: _Run, first: int, last: int, depth: int):
    """The rows of chunks first..last fed at `depth`, in the order
    `_fed_rows` gives: a slice of the level table when it holds that
    depth and the range has two or more rows, else `_fed_rows`'s own."""
    lo, hi = run.partition.bounds[first], run.partition.bounds[last + 1]
    table = run.levels.get(depth) if run.levels else None
    if table is not None and hi - lo > 1:
        return table[lo - run.levels_base:hi - run.levels_base]
    return _fed_rows(run.partition, run.ordering, run.shuffle_seed, first, last)


def _level_list(run: _Run, s: int, e: int, depth: int) -> list[_Level]:
    """The levels below the root of subtree s..e, which sits at `depth`,
    top down to the level whose nodes are all leaves."""
    bounds = run.row_bounds
    starts, ends = np.array([s]), np.array([e])
    levels = []
    while (inner := np.flatnonzero(starts < ends)).size:
        # each inner node's children, left then right; a child is fed its
        # sibling's range
        parent_starts, parent_ends = starts[inner], ends[inner]
        mids = (parent_starts + parent_ends) // 2
        starts = np.column_stack((parent_starts, mids + 1)).ravel()
        ends = np.column_stack((mids, parent_ends)).ravel()
        sibling = np.arange(starts.size) ^ 1
        firsts, lasts = starts[sibling], ends[sibling]
        sizes = bounds[lasts + 1] - bounds[firsts]
        # longest fed range first, so the models a lockstep step feeds are
        # a prefix
        order = np.argsort(-sizes, kind="stable")
        starts, ends = starts[order], ends[order]
        depth += 1
        levels.append(_Level(depth, starts, ends, inner[order // 2], firsts[order], lasts[order],
                             sizes[order], starts.size >= LEVEL_MIN_RANGES))
    return levels


def _level_table(run: _Run, s: int, e: int, levels: list[_Level]) -> dict:
    """The fed rows of the wide levels of subtree s..e, by depth.

    The ranges fed at a depth are the nodes at that depth (each node is
    fed its sibling), so they are disjoint, and one int64 row over the
    subtree's rows holds them all: the rows of range first..last, in the
    order `_fed_rows` gives, sit at their own positions minus the
    subtree's first row.  One `shuffle_ranges` call shuffles every range
    of two or more rows of every wide level; a wide level with no such
    range gets no row.
    """
    bounds = run.row_bounds
    base, size = int(bounds[s]), int(bounds[e + 1] - bounds[s])
    depths, firsts, lasts = [], [], []
    for level in levels:
        multi = level.sizes > 1
        if level.wide and multi.any():
            depths.append(level.depth)
            firsts.append(level.firsts[multi])
            lasts.append(level.lasts[multi])
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

    Below the fork levels, the first node of at most SUBTREE_ROWS rows
    and at least LEVEL_MIN_RANGES chunks runs its subtree with
    `_subtree`; every other node is a `_visit`.
    """
    b = run.partition.bounds
    if (run.levels is None and depth >= run.fork_depth and e - s >= LEVEL_MIN_RANGES - 1
            and b[e + 1] - b[s] <= SUBTREE_ROWS):
        _subtree(run, s, e, model, depth)
    else:
        _visit(run, s, e, model, depth)


def _node_trace(b, s: int, e: int, depth: int) -> NodeTrace:
    """The trace of node s..e at `depth`; `b` holds the chunk bounds."""
    if s == e:
        return NodeTrace(s, s, s, 0, 0, depth)
    m = (s + e) // 2
    return NodeTrace(s, e, m, b[e + 1] - b[m + 1], b[m + 1] - b[s], depth)


def _visit(run: _Run, s: int, e: int, model: IncrementalLearner, depth: int) -> None:
    """One node of the recursion.

    A leaf scores its chunk.  An internal node preserves its model for
    the right branch and descends: in the top `run.fork_depth` levels a
    forked worker takes the right branch from a copy-on-write image of
    the model while this process runs the left; below them the right
    branch runs inline on a clone.  Either way a left-branch failure
    takes precedence, as in sequential order.
    """
    run.counters.nodes_visited += 1
    part = run.partition
    if run.traces is not None:
        run.traces.append(_node_trace(part.bounds, s, e, depth))
    if s == e:
        run.fold_scores[s] = evaluate_chunk(model, run.dataset, part.chunk_slice(s), run.loss,
                                            run.counters)
        return
    m = (s + e) // 2
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


def _subtree(run: _Run, s: int, e: int, model: IncrementalLearner, depth: int) -> None:
    """Run subtree s..e, of at most SUBTREE_ROWS rows, as one unit.

    The subtree's levels are listed once, and a randomized run shuffles
    the wide ones into `run.levels`.  A model whose exact type has a
    lockstep kernel, with a loss that scores a batch, runs the subtree
    level by level (`_levels`) if it holds state of the types its
    constructor gives, for rows of the data's width (`_Stack.holds`); any
    other runs the recursion.  The table is freed on leaving.
    """
    levels = _level_list(run, s, e, depth)
    run.levels = _level_table(run, s, e, levels) if run.ordering == "randomized" else {}
    run.levels_base = run.partition.bounds[s]
    try:
        kernel = LOCKSTEP.get(type(model))
        # both kernels' learners read labels: on unlabeled data, as on a
        # model of another width or with float32 parameters, the recursion
        # raises the error or gives the bits the Python update does
        if (kernel is None or run.loss.batch is None or run.dataset.y is None
                or not kernel.holds(model, run.dataset.x, run.dataset.y)):
            _visit(run, s, e, model, depth)
            return
        try:
            _levels(run, s, e, kernel.of(model), depth, levels)
        except Exception:
            # An update or the loss failed, perhaps at an overflow that
            # np.errstate turns into an error.  `model` is untouched, and
            # the loop adds counters and traces only at its end, so the
            # recursion reruns the subtree: it meets the failure sequential
            # order meets first and raises it with its chunk range, or, if
            # it meets none, gives the sequential results.
            _visit(run, s, e, model, depth)
    finally:
        run.levels = None


def _levels(run: _Run, s: int, e: int, stack, depth: int, levels: list[_Level]) -> None:
    """Run subtree s..e, whose root sits at `depth`, one level of
    `levels` at a time, starting from a stack of one model, its root's.

    Every internal node of a level preserves its model for both children
    by a row repeat of the stack.  With the compiled kernels loaded, one
    kernel call feeds every model of a level its range, range after
    range; it raises FloatingPointError if a floating-point flag went up.
    Without them, a wide level is fed in lockstep: step j feeds the j-th
    row of each range to the models whose range is longer than j, a
    prefix, as the level lists the longest range first; a narrower level
    feeds each model its range with the Python `update`.  The leaves of
    a level are scored in one batched prediction.  Every model is fed the
    rows `_branch` would feed it, in the same order, and gets the same
    bits.  Counters and node traces, which depend only on the partition,
    are added once the subtree has run.
    """
    x_all, y_all = run.dataset.x, run.dataset.y
    kernels = _native.kernels()
    counters = WorkCounters(nodes_visited=2 * (e - s) + 1, snapshots=e - s,
                            evaluations=int(run.row_bounds[e + 1] - run.row_bounds[s]))
    starts, ends = np.array([s]), np.array([e])
    for level in levels:
        _score_leaves(run, stack, starts, ends)
        starts, ends, firsts, sizes = level.starts, level.ends, level.firsts, level.sizes
        stack = stack.take(level.parents)
        counters.point_updates += int(sizes.sum())
        counters.model_transfers += int((level.lasts - firsts).sum()) + sizes.size
        if kernels is not None:
            rows, _ = _level_rows(run, level)
            if not stack.feed_rows(kernels, x_all[rows], y_all[rows], sizes):
                raise FloatingPointError("a compiled level feed raised a floating-point flag")
        elif level.wide:
            rows, offsets = _level_rows(run, level)
            # each fed row's position within its range; a stable sort by it
            # puts step j's rows in model order
            position = np.arange(rows.size) - np.repeat(offsets, sizes)
            rows = rows[np.argsort(position, kind="stable")]
            stack.feed(x_all[rows], y_all[rows], np.bincount(position).tolist())
        else:
            for i, (first, last) in enumerate(zip(firsts.tolist(), level.lasts.tolist())):
                fed = _rows(run, first, last, level.depth)
                model = stack.model(i)
                model.update(x_all[fed], y_all[fed])
                stack.put(i, model)
    _score_leaves(run, stack, starts, ends)
    run.counters.merge(counters)
    if run.traces is not None:
        _trace_subtree(run.traces, run.partition.bounds, s, e, depth)


def _level_rows(run: _Run, level: _Level) -> tuple[np.ndarray, np.ndarray]:
    """The rows fed to the nodes of `level`, range after range, each
    range in the order `_rows` gives, and the offset where each range
    starts among them."""
    rows, offsets = _ranges(run.row_bounds[level.firsts], level.sizes)
    table = run.levels.get(level.depth)
    if table is not None:
        rows = table[rows - run.levels_base]
    elif run.ordering == "randomized":
        for first, last, start, size in zip(level.firsts.tolist(), level.lasts.tolist(),
                                            offsets.tolist(), level.sizes.tolist()):
            if size > 1:
                rows[start:start + size] = _rows(run, first, last, level.depth)
    return rows, offsets


def _ranges(lo: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows lo[i] .. lo[i] + sizes[i] - 1 of every range i, one range
    after another, and the offset where each range starts among them."""
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(lo - offsets, sizes) + np.arange(int(offsets[-1] + sizes[-1])), offsets


def _score_leaves(run: _Run, stack, starts: np.ndarray, ends: np.ndarray) -> None:
    """Score model i of the stack on its chunk, starts[i], for every leaf
    i (starts[i] == ends[i]), in one batched prediction; each score is
    `evaluate_chunk`'s."""
    leaves = np.flatnonzero(starts == ends)
    if not leaves.size:
        return
    chunks = starts[leaves]
    b = run.row_bounds
    sizes = b[chunks + 1] - b[chunks]
    rows, offsets = _ranges(b[chunks], sizes)
    x, y = run.dataset.x[rows], run.dataset.y[rows]
    values = run.loss.batch(stack.predict(x, np.repeat(leaves, sizes)), x, y).tolist()
    for chunk, start, size in zip(chunks.tolist(), offsets.tolist(), sizes.tolist()):
        run.fold_scores[chunk] = math.fsum(values[start:start + size]) / size


def _trace_subtree(traces: list, b, s: int, e: int, depth: int) -> None:
    """Append the node traces of subtree s..e in the recursion's pre-order."""
    traces.append(_node_trace(b, s, e, depth))
    if s != e:
        m = (s + e) // 2
        _trace_subtree(traces, b, s, m, depth + 1)
        _trace_subtree(traces, b, m + 1, e, depth + 1)


def _branch(run: _Run, s: int, e: int, model: IncrementalLearner, first: int, last: int,
            depth: int) -> None:
    """Train the model on chunks first..last, then visit subtree s..e."""
    rows = _rows(run, first, last, depth)
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
    load_kernels(model)  # outside the wall time, and inherited by forked workers
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
    shuffle_seed = derive_seed(check_integer(seed, "seed"), TAG_NODE_SHUFFLE)

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
