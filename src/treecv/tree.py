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
(`_subtree`).  If the compiled kernels are loaded (`_native`) and the
model's exact type is `Pegasos` or `LsqSgd` (`learners.LEVEL_LOOP`),
the subtree runs level by level (`_levels`): `_level_list` lists its
levels once, the models of a level are rows of stacked arrays,
preserving a model is a row repeat, one C call shuffles the ranges a
level feeds, one C call feeds every model of the level its rows, and a
level's leaves are scored in one batched prediction.  Every model gets
the rows, the order and the bits the recursion gives it.  Any other
learner, including a subclass of those two (it may override
`_update_point`), and every learner without the kernels, runs the
recursion, which holds only the log2(k) models of one root-to-leaf
path; there the `update` of an exact `Pegasos`, `LsqSgd` or
`OnlineKMeans` runs compiled when the kernels are loaded.

Randomized runs feed each node's rows in the order of a Fisher-Yates
shuffle drawn from a stream keyed by the run seed and the fed chunk
range, and every such shuffle runs in the compiled `shuffle_ranges`
kernel when the kernels are loaded.  The recursion draws one range at a
time (`_fed_rows`, through `rng.shuffled`).  The ranges fed at one level
of a subtree are disjoint, so the level loop lays them out one after
another in one int64 array and shuffles each in place with its own
stream, all in one `rng.shuffle_ranges` call; each range gets the
permutation `_fed_rows` gives it.  `tree_feed_orders`, which the oracle
replays, calls `_fed_rows` without the kernels, so its orders come from
the Python loop of `SplitMix64Stream.shuffle` and the tests check the
kernel against it.

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
from .learners import LEVEL_LOOP, load_kernels
from .rng import derive_seed, derive_seeds, shuffle_ranges, shuffled

# Stream purpose tag; every derive_seed call site in the package uses a
# distinct leading tag so no two components share a stream.
TAG_NODE_SHUFFLE = 2

# Subtrees of at most SUBTREE_ROWS rows and at least LEVEL_MIN_RANGES
# chunks run as one unit.  A subtree's level holds up to SUBTREE_ROWS
# gathered rows and about as many models.  On a 2-vCPU Xeon VM, Pegasos
# LOOCV at n=20000 and d=20 took 0.038-0.039 / 0.055-0.056 s (fixed /
# randomized, medians of 7 in four rounds) with a 4096-row bound,
# 0.032 / 0.044-0.045 s with 8192 and 0.028-0.033 / 0.038-0.040 s with
# 16384, every shuffle running in the kernel.  16384 leaves one
# recursion level above the subtrees instead of two, and two subtrees of
# 14 levels instead of four of 13 (28 level feeds against 52); its
# levels hold twice the rows and models, and its effect on peak memory
# and on fork-join runs is unmeasured, so the bound stays 8192.
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

    __slots__ = ("dataset", "partition", "loss", "ordering", "shuffle_seed", "kernels",
                 "fork_depth", "fold_scores", "counters", "traces", "row_bounds", "in_subtree")

    def __init__(self, dataset, partition, loss, config, traces):
        self.dataset = dataset
        self.partition = partition
        self.loss = loss
        self.ordering = config.ordering
        # a per-run prefix: derive_seed folds its tags left to right
        self.shuffle_seed = derive_seed(operator.index(config.seed), TAG_NODE_SHUFFLE)
        # what the recursion shuffles with: resolved once, before the clock
        # and any fork, and only by a run that shuffles
        self.kernels = _native.kernels() if config.ordering == "randomized" else None
        # <= 0 for sequential runs: no level forks
        self.fork_depth = operator.index(config.max_workers).bit_length() - 1
        self.fold_scores = [0.0] * partition.k
        self.counters = WorkCounters()
        self.traces = traces
        # the chunk bounds as an array, for the level loop
        self.row_bounds = np.asarray(partition.bounds, dtype=np.int64)
        # whether a subtree is running by the recursion, so that no node
        # below it starts another
        self.in_subtree = False


def _fed_rows(kernels, part: Partition, ordering: str, shuffle_seed: int, first: int,
              last: int):
    """Rows of chunks first..last in the order they are fed.

    Fixed ordering feeds them in dataset order, as a slice.  Randomized
    ordering feeds a uniform permutation of them, as an int64 index
    array, drawn from the stream derive_seed(shuffle_seed, first, last)
    by `rng.shuffled` with `kernels`; `shuffle_seed` is derive_seed(run
    seed, TAG_NODE_SHUFFLE).  A single row stays a slice: its
    Fisher-Yates shuffle draws nothing, and a slice gathers as a view.
    """
    rows = part.range_slice(first, last)
    if ordering == "randomized" and rows.stop - rows.start > 1:
        rows = shuffled(kernels, np.arange(rows.start, rows.stop, dtype=np.int64),
                        derive_seed(shuffle_seed, first, last))
    return rows


# One level below a subtree's root, as `_level_list` gives it.  The nodes
# are the children of the level above's inner nodes in left-then-right
# pairs.  Node i holds out chunks starts[i]..ends[i], takes the model of
# node parents[i] of the level above and is fed chunks firsts[i]..lasts[i]
# (its sibling's), sizes[i] rows.
_Level = namedtuple("_Level", "starts ends parents firsts lasts sizes")


def _level_list(run: _Run, s: int, e: int) -> list[_Level]:
    """The levels below the root of subtree s..e, top down to the level
    whose nodes are all leaves."""
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
        levels.append(_Level(starts, ends, inner.repeat(2), firsts, lasts,
                             bounds[lasts + 1] - bounds[firsts]))
    return levels


def _node(run: _Run, s: int, e: int, model: IncrementalLearner, depth: int) -> None:
    """Visit chunk range s..e with a model trained on every other chunk.

    Below the fork levels, the first node of at most SUBTREE_ROWS rows
    and at least LEVEL_MIN_RANGES chunks runs its subtree with
    `_subtree`; every other node is a `_visit`.
    """
    b = run.partition.bounds
    if (not run.in_subtree and depth >= run.fork_depth and e - s >= LEVEL_MIN_RANGES - 1
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

    With the compiled kernels loaded, a model whose exact type has a
    level loop (`LEVEL_LOOP`), with a loss that scores a batch, runs the
    subtree level by level (`_levels`) if it holds state of the types its
    constructor gives, for rows of the data's width (`_Stack.holds`).
    Any other, and every model without the kernels, runs the recursion.
    """
    stack_type = LEVEL_LOOP.get(type(model))
    # both kernels' learners read labels: on unlabeled data, as on a model
    # of another width or with float32 parameters, the recursion raises
    # the error or gives the bits the Python update does.  Other learners
    # never resolve the kernels here.
    if (stack_type is not None and run.loss.batch is not None and run.dataset.y is not None
            and (kernels := _native.kernels()) is not None
            and stack_type.holds(model, run.dataset.x, run.dataset.y)):
        try:
            _levels(run, s, e, stack_type.of(model), depth, kernels)
            return
        except Exception:
            # An update or the loss failed, perhaps at an overflow that
            # np.errstate turns into an error.  `model` is untouched, and
            # the loop adds counters and traces only at its end, so the
            # recursion reruns the subtree: it meets the failure sequential
            # order meets first and raises it with its chunk range, or, if
            # it meets none, gives the sequential results.
            pass
    run.in_subtree = True
    try:
        _visit(run, s, e, model, depth)
    finally:
        run.in_subtree = False


def _levels(run: _Run, s: int, e: int, stack, depth: int, kernels: _native.Kernels) -> None:
    """Run subtree s..e, whose root sits at `depth`, one level at a time,
    starting from a stack of one model, its root's.

    Every internal node of a level preserves its model for both children
    by a row repeat of the stack.  One kernel call shuffles every range a
    randomized level feeds (`_level_rows`), and one feeds every model of
    the level its range, range after range; it raises FloatingPointError
    if a floating-point flag went up.  The leaves of a level are scored in
    one batched prediction.  Every model is fed the rows `_branch` would
    feed it, in the same order, and gets the same bits.  Counters and
    node traces, which depend only on the partition, are added once the
    subtree has run.
    """
    x_all, y_all = run.dataset.x, run.dataset.y
    counters = WorkCounters(nodes_visited=2 * (e - s) + 1, snapshots=e - s,
                            evaluations=int(run.row_bounds[e + 1] - run.row_bounds[s]))
    starts, ends = np.array([s]), np.array([e])
    for level in _level_list(run, s, e):
        _score_leaves(run, stack, starts, ends)
        starts, ends, sizes = level.starts, level.ends, level.sizes
        stack = stack.take(level.parents)
        counters.point_updates += int(sizes.sum())
        counters.model_transfers += int((level.lasts - level.firsts).sum()) + sizes.size
        rows = _level_rows(run, kernels, level)
        if not stack.feed_rows(kernels, x_all[rows], y_all[rows], sizes):
            raise FloatingPointError("a compiled level feed raised a floating-point flag")
    _score_leaves(run, stack, starts, ends)
    run.counters.merge(counters)
    if run.traces is not None:
        _trace_subtree(run.traces, run.partition.bounds, s, e, depth)


def _level_rows(run: _Run, kernels: _native.Kernels, level: _Level) -> np.ndarray:
    """The rows fed to the nodes of `level`, range after range, each range
    in the order `_fed_rows` gives it: a randomized run shuffles range
    first..last with the stream derive_seed(shuffle_seed, first, last)."""
    rows, offsets = _ranges(run.row_bounds[level.firsts], level.sizes)
    if run.ordering == "randomized":
        shuffle_ranges(kernels, rows, derive_seeds(run.shuffle_seed, level.firsts, level.lasts),
                       offsets, offsets + level.sizes)
    return rows


def _ranges(lo: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows lo[i] .. lo[i] + sizes[i] - 1 of every range i, one range
    after another, and the offset where each range starts among them."""
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(lo - offsets, sizes) + np.arange(int(offsets[-1] + sizes[-1])), offsets


def _score_leaves(run: _Run, stack, starts: np.ndarray, ends: np.ndarray) -> None:
    """Score model i of the stack on its chunk, starts[i], for every leaf
    i (starts[i] == ends[i]), in one batched prediction; each score is
    `evaluate_chunk`'s, the `math.fsum` of the chunk's losses over its
    size."""
    leaves = np.flatnonzero(starts == ends)
    if not leaves.size:
        return
    chunks = starts[leaves]
    b = run.row_bounds
    sizes = b[chunks + 1] - b[chunks]
    rows, offsets = _ranges(b[chunks], sizes)
    x, y = run.dataset.x[rows], run.dataset.y[rows]
    values = run.loss.batch(stack.predict(x, np.repeat(leaves, sizes)), x, y)
    if values.size == leaves.size:
        # a row per leaf: fsum([v]) / 1 is v + 0.0 bit for bit, -0.0 going
        # to 0.0 and inf and nan passing through
        scores = (values + 0.0).tolist()
    else:
        values = values.tolist()
        scores = [math.fsum(values[start:start + size]) / size
                  for start, size in zip(offsets.tolist(), sizes.tolist())]
    for chunk, score in zip(chunks.tolist(), scores):
        run.fold_scores[chunk] = score


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
    rows = _fed_rows(run.kernels, run.partition, run.ordering, run.shuffle_seed, first, last)
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
        # no kernels: the replayed orders come from the Python shuffle
        return index[_fed_rows(None, part, ordering, shuffle_seed, first, last)].tolist()

    def walk(s: int, e: int, fed: list[int]) -> None:
        if s == e:
            orders[s] = fed
            return
        m = (s + e) // 2
        walk(s, m, fed + fed_rows(m + 1, e))
        walk(m + 1, e, fed + fed_rows(s, m))

    walk(0, part.k - 1, [])
    return orders
