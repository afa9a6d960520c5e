"""Standard k-repetition cross-validation.

`standard_cv` trains k independent models from scratch, one per fold; it
is the correctness reference and the speedup baseline for the tree
scheduler.  `brute_force_oracle` is the same computation with a caller
supplied feeding order per fold, which lets tests replay the exact point
order the tree schedule induces and confirm fold-score equality.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from .core import (
    CvReport,
    Dataset,
    IncrementalLearner,
    InvalidChunkError,
    InvalidOrderError,
    Loss,
    Partition,
    WorkCounters,
    evaluate_chunk,
    make_report,
    partition as make_partition,
)
from .forkjoin import check_workers, fork, join_all
from .rng import SplitMix64Stream, derive_seed

TAG_FOLD_SHUFFLE = 4


def _check_partition(partition: Partition, dataset: Dataset) -> None:
    if partition.n != dataset.n:
        raise InvalidChunkError(
            f"partition covers {partition.n} points but dataset has {dataset.n}"
        )


def _train_rows(partition: Partition, fold: int) -> list[int]:
    """Row indices outside the fold's chunk, in dataset order."""
    sl = partition.chunk_slice(fold)
    return list(range(0, sl.start)) + list(range(sl.stop, partition.n))


def _run_fold(learner_factory, dataset, partition, loss, ordering, seed, fold):
    counters = WorkCounters()
    model = learner_factory().fresh()
    x, y = dataset.x, dataset.y
    if ordering == "randomized":
        rows = _train_rows(partition, fold)
        SplitMix64Stream(derive_seed(seed, TAG_FOLD_SHUFFLE, fold)).shuffle(rows)
        x, y = x[rows], y[rows] if y is not None else None
    else:
        # two slices: fancy indexing through a list of n ints costs ~5x more
        sl = partition.chunk_slice(fold)
        x = np.concatenate((x[:sl.start], x[sl.stop:]))
        y = np.concatenate((y[:sl.start], y[sl.stop:])) if y is not None else None
    model.update(x, y)
    counters.point_updates += x.shape[0]
    counters.model_transfers += partition.k - 1
    score = evaluate_chunk(model, dataset, partition.chunk_slice(fold), loss, counters)
    return score, counters


def _run_folds(learner_factory, dataset, partition, loss, ordering, seed, folds):
    return [_run_fold(learner_factory, dataset, partition, loss, ordering, seed, fold)
            for fold in folds]


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
    if ordering not in ("fixed", "randomized"):
        raise ValueError(f"ordering must be 'fixed' or 'randomized', got {ordering!r}")
    check_workers(max_workers)
    _check_partition(partition, dataset)
    k = partition.k
    start = time.perf_counter()
    if max_workers > 1:
        groups = make_partition(k, min(max_workers, k))
        joins = [fork(_run_folds, learner_factory, dataset, partition, loss, ordering, seed,
                      range(g.start, g.stop))
                 for g in map(groups.chunk_slice, range(groups.k))]
        results = [r for group in join_all(joins) for r in group]
    else:
        results = _run_folds(learner_factory, dataset, partition, loss, ordering, seed, range(k))
    wall = time.perf_counter() - start
    counters = WorkCounters()
    for _, fold_counters in results:
        counters.merge(fold_counters)
    return make_report([s for s, _ in results], counters, wall, "standard", ordering, seed)


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
    chunk i; each fold's model is trained in exactly that order.  The
    report's ordering field is set to "explicit"; `seed` draws nothing
    and is only recorded in the report.
    """
    _check_partition(partition, dataset)
    k = partition.k
    if len(fold_orders) != k:
        raise InvalidOrderError(f"expected {k} fold orders, got {len(fold_orders)}")
    for fold, order in enumerate(fold_orders):
        if sorted(int(i) for i in order) != _train_rows(partition, fold):
            raise InvalidOrderError(
                f"fold {fold}: order is not a permutation of the training rows"
            )
    counters = WorkCounters()
    scores = []
    x, y = dataset.x, dataset.y
    start = time.perf_counter()
    for fold, order in enumerate(fold_orders):
        order = list(int(i) for i in order)
        model = learner_factory().fresh()
        model.update(x[order], y[order] if y is not None else None)
        counters.point_updates += len(order)
        counters.model_transfers += k - 1
        scores.append(evaluate_chunk(model, dataset, partition.chunk_slice(fold), loss, counters))
    wall = time.perf_counter() - start
    return make_report(scores, counters, wall, "standard", "explicit", seed)
