"""Shared domain types: datasets, partitions, losses, the incremental
learner contract, and cross-validation run reports.

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
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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


class DataPoint(NamedTuple):
    """A single input vector and its outcome (None when unlabeled)."""

    x: np.ndarray
    y: float | None


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

    def __len__(self) -> int:
        return self.n

    def point(self, i: int) -> DataPoint:
        return DataPoint(self.x[i], float(self.y[i]) if self.y is not None else None)

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

    `bounds` holds k+1 monotone row indices; chunk i covers rows
    [bounds[i], bounds[i+1]).
    """

    bounds: tuple[int, ...]

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


def partition(dataset: Dataset | int, k: int) -> Partition:
    """Split a dataset (or a point count) into k nearly equal chunks.

    The first n mod k chunks get ceil(n/k) points, the rest floor(n/k),
    so chunk sizes differ by at most one.
    """
    n = dataset if isinstance(dataset, int) else dataset.n
    if not (2 <= k <= n):
        raise InvalidFoldCountError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    base, extra = divmod(n, k)
    bounds = [0]
    for i in range(k):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return Partition(tuple(bounds))


# ---------------------------------------------------------------------------
# Losses


@dataclass(frozen=True)
class Loss:
    """Pointwise performance measure: (prediction, x, y) -> nonnegative real.

    `batch`, when given, computes the same measure over a whole chunk:
    (predictions, X, Y) -> float64 array of per-row losses, with Y None
    for unlabeled data.  Each element must equal `fn` on that row bit for
    bit; `evaluate_chunk` uses it when present and calls `fn` per row
    otherwise, so a loss built as Loss(name, fn) stays valid.
    """

    name: str
    fn: Callable[[object, np.ndarray, float | None], float]
    batch: Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray] | None = None

    def __call__(self, prediction, x: np.ndarray, y: float | None) -> float:
        return self.fn(prediction, x, y)


def _zero_one(prediction, x, y):
    if y is None:
        raise LabelRequiredError("misclassification loss requires a labeled point")
    return 0.0 if prediction == y else 1.0


def _zero_one_batch(predictions, x, y):
    if y is None:
        raise LabelRequiredError("misclassification loss requires a labeled point")
    return (predictions != y).astype(np.float64)


def _squared(prediction, x, y):
    if y is None:
        raise LabelRequiredError("squared loss requires a labeled point")
    diff = prediction - y
    return diff * diff


def _squared_batch(predictions, x, y):
    if y is None:
        raise LabelRequiredError("squared loss requires a labeled point")
    diff = predictions - y
    return diff * diff


def _quantization(prediction, x, y):
    diff = x - prediction
    return float(np.einsum("i,i->", diff, diff))


def _quantization_batch(predictions, x, y):
    diffs = x - predictions
    return np.einsum("ij,ij->i", diffs, diffs)


ZERO_ONE = Loss("zeroone", _zero_one, _zero_one_batch)
SQUARED = Loss("squared", _squared, _squared_batch)
QUANTIZATION = Loss("quantization", _quantization, _quantization_batch)

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

    Subclasses implement the single-point update rule, prediction, `fresh`
    and `clone`.  `update` performs one in-order pass over the batch, so
    feeding a dataset in one call or in consecutive slices yields the same
    model.  `clone` copies the whole model state, so a clone predicts and
    trains bit-identically to its source; a learner that needs randomness
    keeps its own stream in that state.

    Instances are single-threaded mutable objects; hand them between
    threads, never share them.
    """

    # Only the benchmark's TracingLearner reads this; delete it once that stops copying it.
    rng = None

    # -- training ---------------------------------------------------------

    def update(self, x: np.ndarray, y: np.ndarray | None = None) -> None:
        """Absorb a batch: one pass over the rows of x in order."""
        if x.ndim == 1:
            x = x.reshape(1, -1)
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
    def predict(self, x: np.ndarray):
        """Prediction for one input vector."""

    def predict_many(self, x: np.ndarray) -> np.ndarray:
        """Predictions for the rows of x, stacked in one array.

        The default calls `predict` per row.  An override must give each
        row exactly the prediction `predict` gives it, whatever the
        number of rows in the batch: `evaluate_chunk` uses this method,
        while a loss without a batch form scores one `predict` at a time.
        """
        return np.asarray([self.predict(row) for row in x])

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass that redefines predict alone gets the per-row default,
        # so a batched predict_many inherited from its base cannot bypass it.
        if "predict" in cls.__dict__ and "predict_many" not in cls.__dict__:
            cls.predict_many = IncrementalLearner.predict_many

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
    evaluations counts per-point loss evaluations.
    """

    point_updates: int = 0
    snapshots: int = 0
    nodes_visited: int = 0
    model_transfers: int = 0
    evaluations: int = 0

    def merge(self, other: "WorkCounters") -> None:
        self.point_updates += other.point_updates
        self.snapshots += other.snapshots
        self.nodes_visited += other.nodes_visited
        self.model_transfers += other.model_transfers
        self.evaluations += other.evaluations


@dataclass(frozen=True)
class CvReport:
    """Result of one cross-validation run.

    `estimate` is the equal-weight mean of the per-fold scores, aggregated
    with exact (compensated) summation so that scheduler variants agree to
    the last bit whenever their fold scores do.
    """

    fold_scores: tuple[float, ...]
    estimate: float
    counters: WorkCounters
    wall_time: float
    scheduler: str
    ordering: str
    seed: int

    @property
    def k(self) -> int:
        return len(self.fold_scores)

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
    fold_scores: Sequence[float],
    counters: WorkCounters,
    wall_time: float,
    scheduler: str,
    ordering: str,
    seed: int,
) -> CvReport:
    scores = tuple(float(s) for s in fold_scores)
    estimate = math.fsum(scores) / len(scores)
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
    """Mean loss of a model over one chunk.  Never mutates the model."""
    x = dataset.x[chunk]
    m = x.shape[0]
    if m == 0:
        raise InvalidChunkError("cannot evaluate an empty chunk")
    y = dataset.y[chunk] if dataset.y is not None else None
    if loss.batch is not None:
        values = loss.batch(model.predict_many(x), x, y).tolist()
    else:
        values = []
        for i in range(m):
            xi = x[i]
            yi = float(y[i]) if y is not None else None
            values.append(loss(model.predict(xi), xi, yi))
    if counters is not None:
        counters.evaluations += m
    return math.fsum(values) / m
