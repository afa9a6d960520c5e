"""Standard k-repetition cross-validation.

`standard_cv` trains k independent models from scratch, one per fold; it
is the correctness reference and the speedup baseline for the tree
scheduler.  `brute_force_oracle` runs the same fold loop with a caller
supplied feeding order per fold, which lets tests replay the exact point
order the tree schedule induces and confirm fold-score equality.

If the compiled kernels are loaded (`_native`) and pass the schedulers'
self-check (`Kernels.tree`), every fold's model is of one exact
`Pegasos`, `LsqSgd` or `OnlineKMeans` type with the first fold's state
and parameter (`learners.compiled_feed`), one C call, `standard_feed`,
runs each group of folds (all k when sequential; whether a group forks
is the rule of `forkjoin`, see `standard_cv`), under any loss: it
copies the fresh state into a slot per fold, feeds it the other chunks'
rows, read from x by index in the fold's order, and scores the fold in
C under the built-in loss of its learner, or writes its predictions
into one array, which `core.chunk_scores` scores, at once for a loss
with a batch form and one row at a time for any other, as the tree's
`tree_feed` does a subtree.
Every model gets the rows, the order and the bits the Python loop gives
it, and every fold its score.  The Python loop is the reference: it
runs any other learner, a factory whose models differ, the oracle's
explicit orders, and a group whose kernel or loss failed (a raised
floating-point flag, or a per-row loss that raises), where it raises or
warns as it does alone.
There a randomized fold's training rows are shuffled as an int64 vector
with `rng.shuffled`, in the compiled `shuffle` kernel when the kernels
are loaded, and gathered through it.
"""

from __future__ import annotations

import operator
import time
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import _native
from .core import (
    CvReport,
    Dataset,
    IncrementalLearner,
    InvalidOrderError,
    Loss,
    Partition,
    WorkCounters,
    check_integer,
    check_ordering,
    check_partition,
    evaluate_chunk,
    make_report,
)
from . import forkjoin
from .forkjoin import check_workers, join_all
from .learners import compiled_feed, load_kernels
from .rng import derive_seed, shuffled

TAG_FOLD_SHUFFLE = 4


def _train_rows(partition: Partition, fold: int) -> np.ndarray:
    """Row indices outside the fold's chunk, in dataset order, as int64."""
    sl = partition.chunk_slice(fold)
    return np.concatenate((np.arange(sl.start, dtype=np.int64),
                           np.arange(sl.stop, partition.n, dtype=np.int64)))


def _shuffled_order(kernels, partition: Partition, seed: int, fold: int) -> np.ndarray:
    """The fold's training rows in randomized order: shuffled with the
    stream derive_seed(seed, TAG_FOLD_SHUFFLE, fold)."""
    return shuffled(kernels, _train_rows(partition, fold),
                    derive_seed(seed, TAG_FOLD_SHUFFLE, fold))


def _checked_order(partition: Partition, fold_orders, fold: int) -> np.ndarray:
    """Fold `fold`'s order as an int64 array, if its entries are integers
    (`operator.index`) that permute the fold's training rows."""
    entries = fold_orders[fold]
    # a list of Python ints needs no `operator.index` per entry
    if not (type(entries) is list and set(map(type, entries)) <= {int}):
        try:
            entries = list(map(operator.index, entries))
        except TypeError:
            raise InvalidOrderError(f"fold {fold}: order entries must be integers") from None
    not_a_permutation = InvalidOrderError(
        f"fold {fold}: order is not a permutation of the training rows")
    try:
        order = np.array(entries, dtype=np.int64)
    except OverflowError:  # an integer beyond int64 is no row
        raise not_a_permutation from None
    # rows in range before counting them: bincount allocates up to the largest
    if order.size and (order.min() < 0 or order.max() >= partition.n):
        raise not_a_permutation
    # each training row once, and no row of the fold's chunk
    expected = np.ones(partition.n, dtype=np.int64)
    expected[partition.chunk_slice(fold)] = 0
    if not np.array_equal(np.bincount(order, minlength=partition.n), expected):
        raise not_a_permutation
    return order


def _run_folds(model_of, dataset, partition, loss, folds, order_of, compiled=None):
    """(scores, counters) of the folds of the range `folds`: each the
    fresh model `model_of(fold)` trained on the rows `order_of(fold)`
    lists (None: the other chunks in dataset order) and scored on the
    fold's chunk.  With `compiled` (see `_compiled_folds`), one
    `standard_feed` call runs them where it can."""
    models = map(model_of, folds)
    if compiled is not None:
        models = list(models)  # the factory runs once per fold, whichever path runs it
        ran = _compiled_folds(compiled, models, dataset, partition, loss, folds)
        if ran is not None:
            return ran
    x, y = dataset.x, dataset.y
    scores, counters = [], WorkCounters()
    for fold, model in zip(folds, models):
        sl = partition.chunk_slice(fold)
        order = order_of(fold)
        if order is None:
            # two slices: gathering the rows through an int64 index costs ~5x more
            fx = np.concatenate((x[:sl.start], x[sl.stop:]))
            fy = np.concatenate((y[:sl.start], y[sl.stop:])) if y is not None else None
        else:  # an int64 index: gathering through a list of ints costs ~3.5x more
            fx, fy = x[order], y[order] if y is not None else None
        model.update(fx, fy)
        counters.point_updates += fx.shape[0]
        counters.model_transfers += partition.k - 1
        scores.append(evaluate_chunk(model, dataset, sl, loss, counters))
    return scores, counters


def _compiled_folds(compiled, models, dataset, partition, loss, folds):
    """What `_run_folds` gives, from one `standard_feed` call, or None
    where the Python loop must run the folds: a fold's model is not of
    the first model's feed, or holds another state or parameter, or the
    kernel or the loss failed.  `compiled` is (first model, its feed,
    the row bounds, the fold seed or None)."""
    first, feed, bounds, fold_seed = compiled
    x, y = dataset.x, dataset.y
    state = feed(first)
    for model in models:
        other = state if model is first else feed(model)
        if (compiled_feed(model, x, y) is not feed or other.param != state.param
                or any(a.tobytes() != b.tobytes() for a, b in zip(other.arrays, state.arrays))):
            return None
    ran = state.run_folds(_native.kernels(), bounds, folds[0], folds[-1], x, y, fold_seed, loss)
    if ran is None:
        return None
    scores, (updates, transfers) = ran
    b = partition.bounds
    return scores, WorkCounters(point_updates=int(updates), model_transfers=int(transfers),
                                evaluations=b[folds[-1] + 1] - b[folds[0]])


def _report(groups, wall: float, ordering: str, seed: int, forks: int = 0) -> CvReport:
    counters = WorkCounters(forks=forks)
    for _, group_counters in groups:
        counters.merge(group_counters)
    return make_report([s for scores, _ in groups for s in scores], counters, wall, "standard",
                       ordering, seed)


def standard_cv(
    learner_factory: Callable[[], IncrementalLearner],
    dataset: Dataset,
    partition: Partition,
    loss: Loss,
    ordering: str = "fixed",
    seed: int = 0,
    max_workers: int = 0,
) -> CvReport:
    """k-fold cross-validation by training one fresh model per fold.

    Fixed ordering feeds each fold's training chunks in dataset order;
    randomized ordering feeds a seeded shuffle of the fold's training
    points.  Folds are independent, so they run in min(max_workers, k)
    contiguous groups (one when max_workers is 0 or 1): this process runs
    the first, and forks each later group where the rule of `forkjoin`
    says the fork pays, or else runs it too, with bit-identical results.
    Each stretch of consecutive groups that this process runs is one
    range of folds, so one `standard_feed` call where they run compiled.
    """
    check_ordering(ordering)
    check_workers(max_workers)
    seed = check_integer(seed, "seed")
    bounds = check_partition(partition, dataset)
    k = partition.k
    # the kernels a randomized run shuffles with, and fold 0's model, built
    # here to resolve the kernels its type runs on and whether its folds
    # run compiled: outside the wall time, and before forked workers would
    # each do it
    order_of = (partial(_shuffled_order, _native.kernels(), partition, seed)
                if ordering == "randomized" else lambda fold: None)
    first = learner_factory().fresh()
    load_kernels(first)
    feed = compiled_feed(first, dataset.x, dataset.y)
    compiled = None if feed is None else (
        first, feed, bounds,
        derive_seed(seed, TAG_FOLD_SHUFFLE) if ordering == "randomized" else None)
    model_of = lambda fold: first if fold == 0 else learner_factory().fresh()
    run = partial(_run_folds, model_of, dataset, partition, loss, order_of=order_of,
                  compiled=compiled)
    w = min(max(max_workers, 1), k)
    cuts = [i * (k // w) + min(i, k % w) for i in range(w + 1)]  # as `core.partition` cuts
    groups = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    start = time.perf_counter()
    # the rule of `forkjoin`: a group after the first forks where the
    # Python loop runs it, or where its point updates exceed the floor
    forks = [g.start > 0 and (compiled is None or len(g) * partition.n - int(
        bounds[g.stop] - bounds[g.start]) > forkjoin.FORK_FLOOR) for g in groups]
    runs = []  # each stretch of groups that runs here merged into one range
    for g, f in zip(groups, forks):
        if runs and not f and not runs[-1][1]:
            g = range(runs.pop()[0].start, g.stop)
        runs.append((g, f))
    results = join_all([forkjoin.fork(run, g) if f else partial(run, g) for g, f in runs])
    return _report(results, time.perf_counter() - start, ordering, seed, sum(forks))


def brute_force_oracle(
    learner_factory: Callable[[], IncrementalLearner],
    dataset: Dataset,
    partition: Partition,
    loss: Loss,
    fold_orders: Sequence[Sequence[int]],
    seed: int = 0,
) -> CvReport:
    """Standard CV with an explicit feeding order per fold.

    `fold_orders[i]` must be a permutation of the row indices outside
    chunk i, given as integers; each fold's model is trained in exactly
    that order.  Each order is checked just before its fold runs.  The
    report's ordering field is set to "explicit"; `seed` draws nothing
    and is only recorded in the report.
    """
    seed = check_integer(seed, "seed")
    check_partition(partition, dataset)
    if len(fold_orders) != partition.k:
        raise InvalidOrderError(f"expected {partition.k} fold orders, got {len(fold_orders)}")
    start = time.perf_counter()
    results = _run_folds(lambda fold: learner_factory().fresh(), dataset, partition, loss,
                         range(partition.k), partial(_checked_order, partition, fold_orders))
    return _report([results], time.perf_counter() - start, "explicit", seed)
