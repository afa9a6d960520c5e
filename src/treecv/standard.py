"""Standard k-repetition cross-validation.

`standard_cv` trains k independent models from scratch, one per fold; it
is the correctness reference and the speedup baseline for the tree
scheduler.  `brute_force_oracle` runs the same fold loop with a caller
supplied feeding order per fold, which lets tests replay the exact point
order the tree schedule induces and confirm fold-score equality.

A randomized run shuffles each fold's training rows as an int64 vector
with `rng.shuffled`, in the compiled `shuffle` kernel when the kernels
are loaded (`_native`), and gathers them through it.
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
    partition as make_partition,
)
from .forkjoin import check_workers, fork, join_all
from .learners import load_kernels
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


def _run_folds(model_of, dataset, partition, loss, folds, order_of):
    """(score, counters) of each fold: the fresh model `model_of(fold)`
    trained on the rows `order_of(fold)` lists (None: the other chunks in
    dataset order) and scored on the fold's chunk."""
    x, y = dataset.x, dataset.y
    results = []
    for fold in folds:
        sl = partition.chunk_slice(fold)
        order = order_of(fold)
        if order is None:
            # two slices: gathering the rows through an int64 index costs ~5x more
            fx = np.concatenate((x[:sl.start], x[sl.stop:]))
            fy = np.concatenate((y[:sl.start], y[sl.stop:])) if y is not None else None
        else:  # an int64 index: gathering through a list of ints costs ~3.5x more
            fx, fy = x[order], y[order] if y is not None else None
        model = model_of(fold)
        model.update(fx, fy)
        counters = WorkCounters(point_updates=fx.shape[0], model_transfers=partition.k - 1)
        results.append((evaluate_chunk(model, dataset, sl, loss, counters), counters))
    return results


def _report(results, wall: float, ordering: str, seed: int, forks: int = 0) -> CvReport:
    counters = WorkCounters(forks=forks)
    for _, fold_counters in results:
        counters.merge(fold_counters)
    return make_report([s for s, _ in results], counters, wall, "standard", ordering, seed)


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
    points.  Folds are independent, so max_workers > 1 splits them into
    min(max_workers, k) contiguous groups, each run by its own forked
    worker process, with bit-identical results.
    """
    check_ordering(ordering)
    check_workers(max_workers)
    seed = check_integer(seed, "seed")
    check_partition(partition, dataset)
    k = partition.k
    # the kernels a randomized run shuffles with, and fold 0's model, built
    # here to resolve the kernels its type runs on: both outside the wall
    # time, and before forked workers would each do it
    order_of = (partial(_shuffled_order, _native.kernels(), partition, seed)
                if ordering == "randomized" else lambda fold: None)
    first = learner_factory().fresh()
    load_kernels(first)
    model_of = lambda fold: first if fold == 0 else learner_factory().fresh()
    start = time.perf_counter()
    joins = []
    if max_workers > 1:
        groups = make_partition(k, min(max_workers, k))
        joins = [fork(_run_folds, model_of, dataset, partition, loss,
                      range(g.start, g.stop), order_of)
                 for g in map(groups.chunk_slice, range(groups.k))]
        results = [r for group in join_all(joins) for r in group]
    else:
        results = _run_folds(model_of, dataset, partition, loss, range(k), order_of)
    return _report(results, time.perf_counter() - start, ordering, seed, len(joins))


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
    return _report(results, time.perf_counter() - start, "explicit", seed)
