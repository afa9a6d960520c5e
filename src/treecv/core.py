"""Shared domain types and checks: datasets, partitions, orderings, losses,
the incremental learner contract, chunk evaluation and run reports.

Conventions used throughout the package:

* Feature matrices are dense float64 arrays of shape (n, d); outcomes are
  a float64 vector of shape (n,), or None for unlabeled data.  Binary
  labels are +1.0 / -1.0.
* A dataset is a multiset with significant order: the stored order is the
  canonical feeding order for fixed-order runs, and duplicate points are
  legal.
* Chunk and fold indices are 0-based.
"""

from __future__ import annotations

import copyreg
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Errors


class CrossValidationError(Exception):
    """Base class for all errors raised by this package.

    Errors pickle with their message and attributes (such as
    `chunk_range` and `line_number`), so a worker process can send them
    back to its parent.
    """

    def __reduce__(self):
        # Exception pickles as type(self)(*self.args), which subclasses
        # whose __init__ takes other arguments cannot replay; rebuild from
        # args and attributes without calling __init__.
        return (copyreg.__newobj__, (type(self), *self.args), self.__dict__)


class InvalidFoldCountError(CrossValidationError, ValueError):
    """Fold count k is outside 2 <= k <= n."""


class InvalidChunkError(CrossValidationError, ValueError):
    """A chunk is empty or does not match its dataset."""


class LabelRequiredError(CrossValidationError, ValueError):
    """A labeled operation was applied to unlabeled data."""


class UntrainedModelError(CrossValidationError, RuntimeError):
    """Prediction was requested from a model with no defined output yet."""


class InvalidOrderError(CrossValidationError, ValueError):
    """A supplied feeding order is not a permutation of the training set."""


class DegenerateRangeError(CrossValidationError, ValueError):
    """A transform's fitted statistics are degenerate (e.g. constant target)."""


class ParseError(CrossValidationError, ValueError):
    """Sparse text input is malformed.  Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UpdateFailedError(CrossValidationError, RuntimeError):
    """A learner update failed inside the scheduler; carries the chunk range."""

    def __init__(self, start: int, end: int, cause: BaseException):
        super().__init__(f"learner update failed in chunk range ({start}, {end}): {cause}")
        self.chunk_range = (start, end)


# ---------------------------------------------------------------------------
# Datasets


class Dataset:
    """Immutable ordered multiset of points with a shared feature dimension.

    `y` is None for unlabeled data; otherwise a float vector aligned with
    the rows of `x`.  Arrays are validated to be finite and are frozen, so
    datasets can be shared freely across threads.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y=None):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("feature matrix contains NaN or Inf")
        if y is not None:
            y = np.ascontiguousarray(y, dtype=np.float64)
            if y.shape != (x.shape[0],):
                raise ValueError(f"outcome shape {y.shape} does not match {x.shape[0]} rows")
            if not np.isfinite(y).all():
                raise ValueError("outcomes contain NaN or Inf")
            y.setflags(write=False)
        x.setflags(write=False)
        self.x = x
        self.y = y

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def labeled(self) -> bool:
        return self.y is not None

    def take(self, indices) -> "Dataset":
        """New dataset holding the given rows in the given order."""
        return Dataset(self.x[indices], self.y[indices] if self.y is not None else None)

    def head(self, n: int) -> "Dataset":
        return Dataset(self.x[:n], self.y[:n] if self.y is not None else None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.x.shape != other.x.shape or self.labeled != other.labeled:
            return False
        if not np.array_equal(self.x, other.x):
            return False
        return self.y is None or np.array_equal(self.y, other.y)

    def __repr__(self) -> str:
        kind = "labeled" if self.labeled else "unlabeled"
        return f"Dataset(n={self.n}, d={self.dim}, {kind})"


@dataclass(frozen=True)
class Partition:
    """Ordered division of n points into k contiguous, nonempty chunks.

    `bounds` holds k+1 strictly increasing row indices from 0; chunk i
    covers rows [bounds[i], bounds[i+1]).  The schedulers check a
    partition with `check_partition`.  A partition made by `partition`
    also carries its bounds as a read-only int64 array, which that check
    hands back at once; a hand-built one, or one made by
    `dataclasses.replace`, carries none and is checked bound by bound on
    every run.
    """

    bounds: tuple[int, ...]
    # set by `partition` alone
    _row_bounds: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __reduce__(self):
        # unpickled and deep-copied arrays come back writeable, so a copy
        # rebuilds its array the way the original was made
        if self._row_bounds is None:
            return Partition, (self.bounds,)
        return partition, (self.n, self.k)

    @property
    def k(self) -> int:
        return len(self.bounds) - 1

    @property
    def n(self) -> int:
        return self.bounds[-1]

    def chunk_slice(self, i: int) -> slice:
        return slice(self.bounds[i], self.bounds[i + 1])

    def chunk_size(self, i: int) -> int:
        return self.bounds[i + 1] - self.bounds[i]

    def range_slice(self, first: int, last: int) -> slice:
        """Rows covered by chunks first..last inclusive."""
        return slice(self.bounds[first], self.bounds[last + 1])

    def sizes(self) -> list[int]:
        return [self.chunk_size(i) for i in range(self.k)]


def check_integer(value, name: str, error: type[ValueError] = ValueError) -> int:
    """`value` as an int if `operator.index` takes it, as it takes NumPy
    integers; else raise `error`, a ValueError, naming it `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def partition(dataset: Dataset | int, k: int) -> Partition:
    """Split a dataset (or a point count) into k nearly equal chunks.

    The first n mod k chunks get ceil(n/k) points, the rest floor(n/k),
    so chunk sizes differ by at most one: bound i is i*floor(n/k) +
    min(i, n mod k).  The partition carries its bounds as a checked
    int64 array (see `check_partition`), so n must be below 2**63.
    """
    k = check_integer(k, "fold count k", InvalidFoldCountError)
    n = (dataset.n if isinstance(dataset, Dataset)
         else check_integer(dataset, "point count n", InvalidFoldCountError))
    if not (2 <= k <= n):
        raise InvalidFoldCountError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    if n >= 2**63:
        raise InvalidFoldCountError(f"point count n must be below 2**63, got {n}")
    base, extra = divmod(n, k)
    index = np.arange(k + 1, dtype=np.int64)
    bounds = index * base + np.minimum(index, extra)
    bounds.setflags(write=False)
    part = Partition(tuple(bounds.tolist()))
    object.__setattr__(part, "_row_bounds", bounds)
    return part


def check_partition(part: Partition, dataset: Dataset | None = None) -> np.ndarray:
    """The bounds of `part` as a read-only int64 array, once they are
    checked.

    A partition made by `partition` carries that array, so only its size
    is checked, against the dataset's.  Any other partition is checked
    bound by bound: it is rejected if a bound is not an integer (as
    `operator.index` takes it) or not below 2**63, or if the bounds do
    not split rows 0..n into k >= 2 nonempty chunks, and, given a
    dataset, if it covers another number of rows.
    """
    bounds = part._row_bounds
    if bounds is None:
        bounds = _check_bounds(part)
    if dataset is not None and part.n != dataset.n:
        raise InvalidChunkError(f"partition covers {part.n} points but dataset has {dataset.n}")
    return bounds


def _check_bounds(part: Partition) -> np.ndarray:
    """`check_partition` of a partition that carries no array."""
    try:
        # one pass in C, not check_integer per bound: LOOCV has n + 1 bounds
        bounds = list(map(operator.index, part.bounds))
    except TypeError as err:
        raise InvalidChunkError(f"partition bounds must be integers: {err}") from None
    if part.k < 2:
        raise InvalidFoldCountError(f"a partition needs at least 2 chunks, got {part.k}")
    if bounds[0] != 0:
        raise InvalidChunkError(f"partition bounds must start at row 0, got {bounds[0]}")
    if not all(map(operator.lt, bounds, bounds[1:])):
        raise InvalidChunkError("partition bounds must strictly increase: every chunk is nonempty")
    try:
        array = np.array(bounds, dtype=np.int64)
    except OverflowError:
        raise InvalidChunkError(f"partition bounds must be below 2**63, got {bounds[-1]}") from None
    array.setflags(write=False)
    return array


# Feeding orders: the dataset's own, or a seeded shuffle per training set.
ORDERINGS = ("fixed", "randomized")


def check_ordering(ordering: str) -> None:
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")


# ---------------------------------------------------------------------------
# Losses


@dataclass(frozen=True)
class Loss:
    """Pointwise performance measure: (prediction, x, y) -> nonnegative real.

    `batch`, when given, computes the same measure over a whole chunk:
    (predictions, X, Y) -> float64 array of per-row losses, with Y None
    for unlabeled data.  Each element must equal `fn` on that row bit for
    bit.  `chunk_scores`, the one scorer of every path, uses it when
    present and calls `fn` per row otherwise, so a loss built as
    Loss(name, fn) is valid everywhere, the compiled schedulers included.
    Each built-in loss is one numpy function that serves as both forms.
    """

    name: str
    fn: Callable[[object, np.ndarray, float | None], float]
    batch: Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray] | None = None

    def __call__(self, prediction, x: np.ndarray, y: float | None) -> float:
        return self.fn(prediction, x, y)


def _zero_one(prediction, x, y):
    if y is None:
        raise LabelRequiredError("misclassification loss requires a labeled point")
    # np.not_equal returns a numpy bool for scalars too, so one cast serves both
    return np.not_equal(prediction, y).astype(np.float64)


def _squared(prediction, x, y):
    if y is None:
        raise LabelRequiredError("squared loss requires a labeled point")
    diff = prediction - y
    return diff * diff


def _quantization(prediction, x, y):
    diff = x - prediction
    return np.einsum("...i,...i->...", diff, diff)


ZERO_ONE = Loss("zeroone", _zero_one, _zero_one)
SQUARED = Loss("squared", _squared, _squared)
QUANTIZATION = Loss("quantization", _quantization, _quantization)

LOSSES = {loss.name: loss for loss in (ZERO_ONE, SQUARED, QUANTIZATION)}


def get_loss(name: str) -> Loss:
    try:
        return LOSSES[name]
    except KeyError:
        raise KeyError(f"unknown loss {name!r}; expected one of {sorted(LOSSES)}") from None


# ---------------------------------------------------------------------------
# Incremental learner contract


class IncrementalLearner(ABC):
    """A model that can absorb new batches without retraining from scratch.

    Subclasses implement the single-point update rule, `predict_many` (or
    `predict` alone), `fresh` and `clone`.  `update` performs one in-order
    pass over the batch, so feeding a dataset in one call or in
    consecutive slices yields the same model.  `clone` copies the whole
    model state, so a clone predicts and trains bit-identically to its
    source; a learner that needs randomness keeps its own stream in that
    state.

    Instances are single-threaded mutable objects; hand them between
    threads, never share them.
    """

    # Only the benchmark's TracingLearner reads this; delete it once that stops copying it.
    rng = None

    # -- training ---------------------------------------------------------

    def update(self, x: np.ndarray, y: np.ndarray | None = None) -> None:
        """Absorb a batch: one pass over the rows of the 2-d x in order."""
        update_point = self._update_point
        if y is None:
            for xi in x:
                update_point(xi, None)
        else:
            # a float64 memoryview yields Python floats without a list of them
            for xi, yi in zip(x, memoryview(np.asarray(y, dtype=np.float64)), strict=True):
                update_point(xi, yi)

    @abstractmethod
    def _update_point(self, x: np.ndarray, y: float | None) -> None: ...

    @abstractmethod
    def predict_many(self, x: np.ndarray) -> np.ndarray:
        """Predictions for the rows of x, stacked in one array.

        Each row must get the same bits whatever the number of rows in
        the batch: `evaluate_chunk` predicts a chunk at a time, while
        `predict` is a one-row batch.
        """

    def predict(self, x: np.ndarray):
        """Prediction for one input vector: row 0 of a one-row `predict_many`."""
        return self.predict_many(x[None])[0]

    def _predict_rows(self, x: np.ndarray) -> np.ndarray:
        return np.asarray([self.predict(row) for row in x])

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass that redefines predict alone is predicted through it, one
        # row at a time, so a batched predict_many it inherits cannot bypass it.
        if "predict" in cls.__dict__ and "predict_many" not in cls.__dict__:
            cls.predict_many = IncrementalLearner._predict_rows

    # -- lifecycle ---------------------------------------------------------

    @abstractmethod
    def fresh(self) -> "IncrementalLearner":
        """A new untrained model with the same configuration."""

    # Per learner: a generic __dict__/deepcopy clone made LOOCV ~11% slower.
    @abstractmethod
    def clone(self) -> "IncrementalLearner":
        """Independent copy with identical state."""


# ---------------------------------------------------------------------------
# Work accounting and reports


@dataclass
class WorkCounters:
    """Instrumentation totals for one cross-validation run.

    point_updates counts single-point applications of a learner's update
    rule; snapshots counts model preservation events (state copies);
    nodes_visited counts recursion-tree nodes; transfers counts
    chunk-to-model incorporation events, the number of times a model
    would be shipped to a chunk's storage node in a distributed run;
    evaluations counts per-point loss evaluations.  forks counts the
    worker processes the run forked; it says how a run was executed, not
    what it computed, so it takes no part in comparing counters nor in
    their repr, which the pinned report digests hash.
    """

    point_updates: int = 0
    snapshots: int = 0
    nodes_visited: int = 0
    model_transfers: int = 0
    evaluations: int = 0
    forks: int = field(default=0, compare=False, repr=False)

    def merge(self, other: "WorkCounters") -> None:
        self.point_updates += other.point_updates
        self.snapshots += other.snapshots
        self.nodes_visited += other.nodes_visited
        self.model_transfers += other.model_transfers
        self.evaluations += other.evaluations
        self.forks += other.forks


@dataclass(frozen=True)
class CvReport:
    """Result of one cross-validation run.

    `estimate` is the equal-weight mean of the per-fold scores, aggregated
    with exact (compensated) summation so that scheduler variants agree to
    the last bit whenever their fold scores do.  Where that summation
    refuses, for scores holding both infinities or summing beyond the
    largest double, it is their plain sum over k: nan or an infinity.
    """

    fold_scores: tuple[float, ...]
    estimate: float
    counters: WorkCounters
    wall_time: float
    scheduler: str
    ordering: str
    seed: int

    def comparable(self) -> tuple:
        """Everything except wall time, for determinism checks."""
        return (
            self.fold_scores,
            self.estimate,
            self.counters,
            self.scheduler,
            self.ordering,
            self.seed,
        )


def make_report(
    fold_scores: Sequence[float] | np.ndarray,
    counters: WorkCounters,
    wall_time: float,
    scheduler: str,
    ordering: str,
    seed: int,
) -> CvReport:
    if isinstance(fold_scores, np.ndarray):
        # the tree's scores: one conversion in C, not a float() call per fold
        scores = tuple(fold_scores.astype(np.float64, copy=False).tolist())
    else:
        scores = tuple(map(float, fold_scores))
    try:
        total = math.fsum(scores)
    except (ValueError, OverflowError):  # inf + -inf, or a finite sum beyond the doubles
        total = sum(scores)  # nan or an infinity, as the scores imply
    estimate = total / len(scores)
    return CvReport(scores, estimate, counters, wall_time, scheduler, ordering, seed)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_chunk(
    model: IncrementalLearner,
    dataset: Dataset,
    chunk: slice,
    loss: Loss,
    counters: WorkCounters | None = None,
) -> float:
    """Mean loss of a model over one chunk.  Never mutates the model.

    A loss with a batch form scores `predict_many` of the chunk; any other
    scores `predict` of each row as it is made."""
    x = dataset.x[chunk]
    m = x.shape[0]
    if m == 0:
        raise InvalidChunkError("cannot evaluate an empty chunk")
    y = dataset.y[chunk] if dataset.y is not None else None
    predictions = model.predict_many(x) if loss.batch is not None else map(model.predict, x)
    score = chunk_scores(loss, predictions, x, y, (0, m), 0, 0)[0]
    if counters is not None:
        counters.evaluations += m
    return float(score)


def chunk_scores(loss: Loss, predictions, x: np.ndarray, y: np.ndarray | None,
                 bounds: Sequence[int], s: int, e: int):
    """The scores under `loss` of chunks s..e, which `bounds` delimits,
    from the `predictions` of their rows x (labeled y) in order: each is
    the `math.fsum` of the chunk's losses over its size.

    A loss with a batch form scores all rows in one call, and one-row
    chunks in one array operation, whatever the dtype of its losses: a
    real dtype's element becomes the double its `tolist()` element does.
    Any other loss scores each prediction with its row by `loss.fn`, in
    order, so the first row whose loss raises is the one that raises."""
    if loss.batch is not None:
        values = loss.batch(predictions, x, y)
        if values.size == e - s + 1:
            # a row per chunk: fsum([v]) / 1 is v + 0.0 bit for bit, -0.0 going
            # to 0.0 and inf and nan passing through
            if values.dtype.kind == "c":  # which fsum, and float(), refuse
                raise TypeError(f"a loss must be real, got {values.dtype} values")
            return values + 0.0
        values = values.tolist()
    else:
        values = list(map(loss.fn, predictions, x, [None] * len(x) if y is None else y.tolist()))
    if s == e:  # one chunk, as every Python-path leaf and fold scores: no per-chunk loop
        return [math.fsum(values) / len(values)]
    base = bounds[s]
    return [math.fsum(values[bounds[c] - base:bounds[c + 1] - base]) / (bounds[c + 1] - bounds[c])
            for c in range(s, e + 1)]
