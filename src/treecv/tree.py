"""Tree-structured k-fold cross-validation.

`tree_cv` computes the k-fold estimate with a single logical training
pass organized as a binary recursion over chunk ranges.  A node holding
out chunks s..e preserves a copy of its incoming model, trains the model
on the second half of the range, recurses into the first half, then
trains the copy on the first half and recurses into the second.  Leaves
evaluate a model that has been trained on every chunk except their own.
Relative to training one model, the extra work is a log2(k) factor
instead of the k-fold repetition of the standard method.  `_branches`
writes that split, and what each branch is fed, once: the recursion,
the fork rule, the node traces and `tree_feed_orders` all read it.

Fork-join runs (max_workers > 1) may split the top
floor(log2(max_workers)) levels of the recursion across worker processes
made with the POSIX "fork" start method (see `forkjoin`): at a node that
forks, a worker trains and descends the right branch from a
copy-on-write image of the node's model, which stands in for the copy,
and the parent process the left.  Whether a node forks is the rule
stated in `forkjoin`, which `_right_pays` applies to the node's right
branch; a node that does not fork runs its subtree in this process, as
in a sequential run.

Every node at the fork depth (the root, in a sequential run), and every
node above it that does not fork, runs its subtree as one unit
(`_subtree`).  If the compiled kernels are loaded
(`_native`) and the model's exact type is `Pegasos`, `LsqSgd` or
`OnlineKMeans` (`learners.COMPILED`), one C call, `tree_feed`, runs the
whole subtree under any loss: the same recursion, with a memcpy for each
preserved model, and each leaf's score under the built-in loss of its
learner computed in C, or its predictions written to one array, which
`core.chunk_scores` scores, at once for a loss with a batch form and one
row at a time for any other (`learners._Feed.run_subtree`).  Every model
gets the rows, the order and the bits the recursion gives it, and every
fold the score `evaluate_chunk` gives it.  Any other learner, including
a subclass of those three (it may override `_update_point`), and every
learner without the kernels, runs the recursion in Python, which holds
only the log2(k) models of one root-to-leaf path; there the `update` of
an exact `Pegasos`, `LsqSgd` or `OnlineKMeans` runs compiled when the
kernels are loaded.  The Python recursion is the reference: when
`tree_feed` fails (a raised floating-point flag, which np.errstate may
turn into an error) or the loss raises, the recursion reruns the
subtree and raises what sequential order meets first.

Randomized runs feed each node's rows in the order of a Fisher-Yates
shuffle drawn from a stream keyed by the run seed and the fed chunk
range.  The recursion draws one range at a time (`_fed_rows`, through
`rng.shuffled`, in the compiled `shuffle` kernel when the kernels are
loaded); `tree_feed` inlines the same seed derivation and loop.
`tree_feed_orders`, which the oracle replays, calls `_fed_rows` without
the kernels, so its orders come from the Python loop of
`SplitMix64Stream.shuffle` and the tests check the kernels against it.

Determinism: every node's shuffle is derived from the run seed and the
node's position in the recursion, never from execution order, so
sequential and fork-join runs of the same configuration produce
bit-identical reports (wall time and the fork count aside).

Node traces (`trace_sink`) describe the schedule, not the visits one run
made: they are a function of the partition alone (`_node_traces`), which
`tree_cv` writes once the estimate completes, outside its wall time.  So
sequential, forked and compiled runs of one partition write the same
traces, and a run that raises writes none.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _native, forkjoin
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
from .forkjoin import check_workers, join_all
from .learners import compiled_feed, load_kernels
from .rng import derive_seed, shuffled

# Stream purpose tag; every derive_seed call site in the package uses a
# distinct leading tag so no two components share a stream.
TAG_NODE_SHUFFLE = 2


@dataclass(frozen=True)
class TreeCvConfig:
    """Scheduler options.

    max_workers 0 or 1: sequential; larger values are a cap, up to
    `forkjoin.MAX_WORKERS`: the top floor(log2(max_workers)) recursion
    levels may fork onto worker processes, where the rule of `forkjoin`
    says a fork pays.  Negative counts are rejected.  The seed fully
    determines all shuffles regardless of worker count.
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
    """What every node of one run reads, and the totals it writes: the
    fold scores, a float64 array that `make_report` reads with one
    `tolist()`, and the counters.

    A forked worker gets its own copy-on-write image of the run and sends
    back the fold scores and counters of its subtree.
    """

    __slots__ = ("dataset", "partition", "loss", "ordering", "shuffle_seed", "kernels",
                 "fork_depth", "fold_scores", "counters", "row_bounds")

    def __init__(self, dataset, partition, row_bounds, loss, config):
        self.dataset = dataset
        self.partition = partition
        # the partition's bounds as `check_partition` gives them, for `tree_feed`
        self.row_bounds = row_bounds
        self.loss = loss
        self.ordering = config.ordering
        # a per-run prefix: derive_seed folds its tags left to right
        self.shuffle_seed = derive_seed(operator.index(config.seed), TAG_NODE_SHUFFLE)
        # what the recursion shuffles with: resolved once, before the clock
        # and any fork, and only by a run that shuffles
        self.kernels = _native.kernels() if config.ordering == "randomized" else None
        # 0 for sequential runs: no level forks, and the root runs `_subtree`
        self.fork_depth = max(operator.index(config.max_workers).bit_length() - 1, 0)
        self.fold_scores = np.zeros(partition.k)
        self.counters = WorkCounters()


def _branches(s, e):
    """The two branches of internal node s..e, in the order the recursion
    runs them, each as (its subtree, the chunks fed to its model), two
    (first, last) chunk ranges: the node splits at m = (s + e) // 2, and
    the left branch holds out s..m and is fed m+1..e, the right holds out
    m+1..e and is fed s..m.  `s` and `e` are ints, or int64 arrays of
    nodes.  This is the one place the package's Python writes the split;
    the C `node()` of `tree_feed` is its compiled copy, which
    `Kernels.tree()` checks against `tree_feed_orders`."""
    m = (s + e) // 2
    return ((s, m), (m + 1, e)), ((m + 1, e), (s, m))


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


def _node(run: _Run, s: int, e: int, model: IncrementalLearner, depth: int) -> None:
    """Visit chunk range s..e with a model trained on every other chunk.

    Above the fork depth a node forks where its right branch pays for the
    fork, by the rule of `forkjoin`: always in the Python recursion, and
    for a model that `tree_feed` takes (`learners.compiled_feed`) where
    `_right_pays`.  Down to the fork depth, a node that does not fork runs
    its whole subtree by one `tree_feed` call where `_subtree` can make
    it; every other node is visited by `_visit`."""
    fork = False
    if depth <= run.fork_depth:
        feed = compiled_feed(model, run.dataset.x, run.dataset.y)
        fork = depth < run.fork_depth and s < e and (
            feed is None or _right_pays(run.row_bounds, s, e))
        if not fork and feed is not None and _subtree(run, feed, s, e, model):
            return
    _visit(run, s, e, model, depth, fork)


def _right_pays(b: np.ndarray, s: int, e: int) -> bool:
    """Whether internal node s..e's right branch makes more than
    `forkjoin.FORK_FLOOR` point updates (`_right_updates`).  Every leaf of
    its subtree first..last lies D or D + 1 levels below the subtree's root,
    D = floor(log2(last - first + 1)), so the count lies between the rows
    fed to the branch plus D or D + 1 times the subtree's rows; it is
    counted only when the floor falls between the two."""
    (first, last), (fed_first, fed_last) = _branches(s, e)[1]
    fed, rows = int(b[fed_last + 1] - b[fed_first]), int(b[last + 1] - b[first])
    depth, floor = (last - first + 1).bit_length() - 1, forkjoin.FORK_FLOOR
    if fed + depth * rows > floor:
        return True
    return fed + (depth + 1) * rows > floor and _right_updates(b, s, e) > floor


def _right_updates(b: np.ndarray, s: int, e: int) -> int:
    """The point updates of internal node s..e's right branch, in chunks
    delimited by `b`: the rows of the chunks fed to it, and inside its
    subtree the rows of each internal node, which feeds each of them once,
    to one branch or the other."""
    (first, last), fed = _branches(s, e)[1]
    total = int(b[fed[1] + 1] - b[fed[0]])
    first, last = np.array([first]), np.array([last])
    while first.size:  # one level of internal nodes at a time
        internal = first < last
        first, last = first[internal], last[internal]
        total += int((b[last + 1] - b[first]).sum())
        (left, _), (right, _) = _branches(first, last)
        first, last = (np.concatenate(ends) for ends in zip(left, right))
    return total


def _visit(run: _Run, s: int, e: int, model: IncrementalLearner, depth: int,
           fork: bool) -> None:
    """One node of the recursion.

    A leaf scores its chunk.  An internal node preserves its model for
    the right branch and descends: where `fork` is set a forked worker
    takes the right branch from a copy-on-write image of the model while
    this process runs the left; elsewhere the right branch runs inline on
    a clone.  Either way a left-branch failure takes precedence, as in
    sequential order.
    """
    run.counters.nodes_visited += 1
    if s == e:
        run.fold_scores[s] = evaluate_chunk(model, run.dataset, run.partition.chunk_slice(s),
                                            run.loss, run.counters)
        return
    left, right = _branches(s, e)
    run.counters.snapshots += 1
    if fork:
        run.counters.forks += 1
        join_right = forkjoin.fork(_worker_branch, run, *right, model, depth + 1)
        _, (scores, counters) = join_all([lambda: _branch(run, *left, model, depth + 1),
                                          join_right])
        (first, last), _ = right
        run.fold_scores[first:last + 1] = scores
        run.counters.merge(counters)
    else:
        right_model = model.clone()
        _branch(run, *left, model, depth + 1)
        _branch(run, *right, right_model, depth + 1)


def _subtree(run: _Run, feed, s: int, e: int, model: IncrementalLearner) -> bool:
    """Run subtree s..e by one `tree_feed` call through `feed`, which
    `compiled_feed` gave for `model`, and say whether that happened.

    `model` is left untouched, and scores and counters are added
    only when it returns True.  On False the recursion runs the subtree:
    where `tree_feed` or the loss failed, it meets the failure sequential
    order meets first and raises it, an update's with its chunk range, or,
    if it meets none, gives the sequential results.
    """
    ran = feed(model).run_subtree(_native.kernels(), run.row_bounds, s, e, run.dataset.x,
                                  run.dataset.y,
                                  run.shuffle_seed if run.ordering == "randomized" else None,
                                  run.loss)
    if ran is None:
        return False
    run.fold_scores[s:e + 1], (updates, transfers) = ran
    b = run.partition.bounds
    run.counters.merge(WorkCounters(
        point_updates=int(updates), snapshots=e - s, nodes_visited=2 * (e - s) + 1,
        model_transfers=int(transfers), evaluations=b[e + 1] - b[s]))
    return True


def _branch(run: _Run, subtree: tuple, fed: tuple, model: IncrementalLearner,
            depth: int) -> None:
    """Train the model on the chunks `fed`, then visit `subtree`; each is a
    (first, last) chunk range."""
    first, last = fed
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
    _node(run, *subtree, model, depth)


def _worker_branch(run: _Run, subtree: tuple, fed: tuple, model: IncrementalLearner,
                   depth: int):
    """Forked side of a node: run the branch on this process's copy of
    the run and return what the parent merges."""
    run.counters = WorkCounters()
    _branch(run, subtree, fed, model, depth)
    first, last = subtree
    return run.fold_scores[first:last + 1], run.counters


def _node_traces(b, s: int, e: int, depth: int = 0) -> list[NodeTrace]:
    """The traces of subtree s..e, its root at `depth`, in the recursion's
    pre-order; `b` holds the chunk bounds."""
    if s == e:
        return [NodeTrace(s, s, s, 0, 0, depth)]
    (left, left_fed), (right, right_fed) = _branches(s, e)
    fed = [b[last + 1] - b[first] for first, last in (left_fed, right_fed)]
    return [NodeTrace(s, e, left[1], *fed, depth),
            *_node_traces(b, *left, depth + 1), *_node_traces(b, *right, depth + 1)]


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
    node of the schedule, in the recursion's pre-order, once the estimate
    completes: a run that raises leaves it as it was.  `tree_feed_orders`
    gives the sequence of rows each fold's model was fed.
    """
    config.validate()
    run = _Run(dataset, partition, check_partition(partition, dataset), loss, config)
    model = learner_factory().fresh()
    load_kernels(model)  # outside the wall time, and inherited by forked workers
    start = time.perf_counter()
    _node(run, 0, partition.k - 1, model, 0)
    wall = time.perf_counter() - start
    if trace_sink is not None:
        trace_sink.extend(_node_traces(partition.bounds, 0, partition.k - 1))
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
        for subtree, chunks in _branches(s, e):
            walk(*subtree, fed + fed_rows(*chunks))

    walk(0, part.k - 1, [])
    return orders
