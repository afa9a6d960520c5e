"""Built-in incremental learners.

All four learners are single-pass online algorithms: `update` applies the
single-point rule to each row of the batch in order, and training state is
small enough that a clone is a plain value copy.

* `Pegasos`: regularized hinge-loss SGD for binary classification.  The
  model is the last iterate (no averaging, no projection), step size
  1/(lambda*t), and the step counter t persists across incremental calls
  so batch and chunked feeding share one trajectory.  The iterate is
  stored as w = a*v, a positive scalar times a vector: the shrink by
  1 - 1/t that every step applies to w is one multiply of `a`, so a
  point costs one dot product and, on a margin violation, one scaled add
  into `v` (the scaled representation of Shalev-Shwartz et al., ICML
  2007).  At t = 1 the factor is 0; the step restarts from v = 0, a = 1
  there, so `a` never reaches 0.  `w` reads and assigns the product.
* `LsqSgd`: least-squares SGD with iterates projected into the unit
  l2-ball; predictions use the running average of the projected iterates.
* `OnlineKMeans`: sequential k-means.  The first K distinct points become
  the initial centers; each later point moves its nearest center to the
  running mean of the points assigned to it.
* `MeanPredictor`: predicts the mean outcome seen so far.  The running
  sum is kept as exact float partials, so the model is bit-for-bit
  insensitive to feeding order and batching; it is the exactness oracle
  for scheduler-equivalence tests.

Every learner predicts a batch with `predict_many`, reducing rows with
`np.einsum`, whose result for a row does not depend on how many rows
the batch holds (a BLAS `X @ w` does, in the last bits), and inherits
`predict(x)`: row 0 of a one-row batch, so a prediction has one form.

The exact types `Pegasos`, `LsqSgd` and `OnlineKMeans` (not their
subclasses, which may change `_update_point`) also run compiled
(`COMPILED`).  `_kernels.c`, built and loaded by `_native`, feeds their
models point by point in C, so every model gets the bits of
`_update_point`: the linear kernels call the BLAS ddot that
`ndarray.dot` calls, and the k-means kernel sums each squared distance
in the order numpy's `np.einsum` sums a row, which the loader checks
against this numpy's einsum.  Their `update` hands the kernel any
C-contiguous float64 batch of at least `min_rows` rows, labeled for the
linear two (`_Stack`, `KMeansFeed`).  A point then costs ~0.06 us
(Pegasos) or ~0.1 us (LsqSgd) at d=20, and ~0.07 us (k-means) at d=10
and K=5, against ~1.6, ~4-7 and ~8-10 us in Python.
Without a C compiler, or when the kernel raises a floating-point flag,
the Python update runs, with its own warnings and errors; k-means also
runs in Python where numpy's einsum sums in another order.

The tree schedule runs many `Pegasos` or `LsqSgd` models of one level at
once (`LEVEL_LOOP`), on the compiled kernels only: their state stacked
into arrays of one row per model (`_Stack`), one kernel call that feeds
each model its own run of rows (`_Stack.feed_rows`), and one batched
prediction, each row of which, `np.einsum("ij,ij->i", X, V)`, is what
`predict_many` gives that row.
"""

from __future__ import annotations

import math

import numpy as np

from . import _native
from .core import IncrementalLearner, LabelRequiredError, UntrainedModelError


def _exact_add(partials: list[float], value: float) -> None:
    """Shewchuk accumulation: keep the running sum as exact float partials."""
    i = 0
    for p in partials:
        if abs(value) < abs(p):
            value, p = p, value
        hi = value + p
        lo = p - (hi - value)
        if lo:
            partials[i] = lo
            i += 1
        value = hi
    partials[i:] = [value]


class Pegasos(IncrementalLearner):
    """Linear hinge-loss SGD classifier; predicts sign(w . x), ties as +1."""

    def __init__(self, dim: int, lam: float = 1e-4):
        if not (0.0 < lam < math.inf):
            raise ValueError(f"lam must be positive and finite, got {lam}")
        self.dim = dim
        self.lam = lam
        self.a = 1.0
        self.v = np.zeros(dim)
        self.t = 0

    @property
    def w(self) -> np.ndarray:
        return self.a * self.v

    @w.setter
    def w(self, value) -> None:
        self.a = 1.0
        self.v = np.array(value, dtype=np.float64)

    def update(self, x, y=None):
        if not _update_compiled(self, x, y):
            super().update(x, y)

    def _update_point(self, x, y):
        if y is None:
            raise LabelRequiredError("classification update requires a binary label")
        v = self.v
        margin = y * (self.a * float(v.dot(x)))
        t = self.t = self.t + 1
        if t == 1:
            v.fill(0.0)
            a = self.a = 1.0
        else:
            a = self.a = self.a * (1.0 - 1.0 / t)
        if margin < 1.0:
            v += (y / (self.lam * t * a)) * x

    def predict_many(self, x) -> np.ndarray:
        # a > 0, so w . x and v . x share their sign; einsum sums from +0.0,
        # so a zero product is +0.0 and copysign maps the tie to +1
        return np.copysign(1.0, np.einsum("ij,j->i", x, self.v))

    def fresh(self):
        return type(self)(self.dim, self.lam)

    def clone(self):
        twin = self.fresh()
        twin.a, twin.v, twin.t = self.a, self.v.copy(), self.t
        return twin


class LsqSgd(IncrementalLearner):
    """Least-squares SGD constrained to the unit l2-ball, averaged iterates.

    Each step follows the squared-loss gradient 2(w.x - y)x with fixed
    step size alpha, projects back onto the unit ball when the step
    leaves it, and folds the projected iterate into the running average
    used for prediction.
    """

    def __init__(self, dim: int, alpha: float):
        if not (0.0 < alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        self.dim = dim
        self.alpha = alpha
        self.w = np.zeros(dim)
        self.w_avg = np.zeros(dim)
        self.t = 0

    def update(self, x, y=None):
        if not _update_compiled(self, x, y):
            super().update(x, y)

    def _update_point(self, x, y):
        if y is None:
            raise LabelRequiredError("regression update requires a real outcome")
        # ndarray.dot reduces like `@` but skips the matmul ufunc's dispatch
        residual = float(self.w.dot(x)) - y
        self.w -= (2.0 * self.alpha * residual) * x
        norm = math.sqrt(float(self.w.dot(self.w)))
        if norm > 1.0:
            self.w /= norm
        self.t += 1
        self.w_avg += (self.w - self.w_avg) / self.t

    def predict_many(self, x) -> np.ndarray:
        return np.einsum("ij,j->i", x, self.w_avg)

    def fresh(self):
        return type(self)(self.dim, self.alpha)

    def clone(self):
        twin = self.fresh()
        twin.w, twin.w_avg, twin.t = self.w.copy(), self.w_avg.copy(), self.t
        return twin


class OnlineKMeans(IncrementalLearner):
    """Sequential k-means over unlabeled points; predicts the nearest center.

    Until K distinct points have been seen, each new distinct point seeds
    a center (count 1) and duplicates of an existing center are absorbed
    by the normal assignment rule, so counts always sum to the points
    seen.  Distance ties go to the lowest center index.
    """

    def __init__(self, dim: int, n_clusters: int):
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        self.dim = dim
        self.n_clusters = n_clusters
        self.centers = np.zeros((n_clusters, dim))
        self.counts = np.zeros(n_clusters, dtype=np.int64)
        self.n_centers = 0

    def update(self, x, y=None):
        if not _update_compiled(self, x, y):
            super().update(x, y)

    def _nearest(self, x) -> int:
        active = self.centers[: self.n_centers]
        diffs = active - x
        return int(np.einsum("ij,ij->i", diffs, diffs).argmin())

    def _update_point(self, x, y):
        if self.n_centers < self.n_clusters:
            is_existing = self.n_centers > 0 and bool(
                (self.centers[: self.n_centers] == x).all(axis=1).any()
            )
            if not is_existing:
                self.centers[self.n_centers] = x
                self.counts[self.n_centers] = 1
                self.n_centers += 1
                return
        j = self._nearest(x)
        self.counts[j] += 1
        self.centers[j] += (x - self.centers[j]) / self.counts[j]

    def predict_many(self, x) -> np.ndarray:
        """The nearest center to each row, one row of centers per row of x."""
        if self.n_centers == 0:
            raise UntrainedModelError("k-means has no centers before any update")
        active = self.centers[: self.n_centers]
        # one einsum per center sums each row's squares as `_nearest` does
        distances = np.empty((self.n_centers, x.shape[0]))
        for j, center in enumerate(active):
            diffs = x - center
            distances[j] = np.einsum("ij,ij->i", diffs, diffs)
        return active[distances.argmin(axis=0)]

    def fresh(self):
        return type(self)(self.dim, self.n_clusters)

    def clone(self):
        twin = self.fresh()
        twin.centers, twin.counts = self.centers.copy(), self.counts.copy()
        twin.n_centers = self.n_centers
        return twin


class MeanPredictor(IncrementalLearner):
    """Predicts the mean outcome seen so far, bit-exactly order-insensitive.

    The outcome sum is held as exact float partials, so any permutation or
    batching of the same multiset yields an identical model.  Prediction
    on an untrained model is an error.
    """

    def __init__(self, dim: int = 1):
        self.dim = dim
        self._partials: list[float] = []
        self.count = 0

    @property
    def total(self) -> float:
        return math.fsum(self._partials)

    def _update_point(self, x, y):
        if y is None:
            raise LabelRequiredError("mean predictor requires outcomes")
        _exact_add(self._partials, y)
        self.count += 1

    def predict_many(self, x) -> np.ndarray:
        if self.count == 0:
            raise UntrainedModelError("mean predictor has seen no outcomes")
        return np.full(x.shape[0], self.total / self.count)

    def fresh(self):
        return type(self)(self.dim)

    def clone(self):
        twin = self.fresh()
        twin._partials, twin.count = list(self._partials), self.count
        return twin


def _update_compiled(model, x, y) -> bool:
    """Feed the batch to `model` through its compiled kernel, and say
    whether that happened.

    The kernel takes an exact `Pegasos`, `LsqSgd` or `OnlineKMeans` (the
    keys of `COMPILED`) whose state has the types its constructor gives
    (`holds`) and a C-contiguous float64 batch of the model's width and
    of at least `min_rows` rows, labeled for the two linear learners.  It
    feeds a copy of the state, which replaces the model's only if no
    floating-point flag was raised.  In every other case the model is
    untouched and the Python update runs, with its own warnings, errors
    and bits.
    """
    compiled = COMPILED.get(type(model))
    if (compiled is None or type(x) is not np.ndarray or x.ndim != 2
            or x.shape[0] < compiled.min_rows or x.dtype != np.float64
            or not x.flags.c_contiguous or (kernels := _native.kernels()) is None):
        return False
    if y is not None:
        try:
            y = np.asarray(y, dtype=np.float64)  # the outcomes the Python update iterates
        except (TypeError, ValueError):
            return False
        if y.shape != x.shape[:1]:
            return False
    return compiled.feed_model(kernels, model, x, y)


class _Stack:
    """m models of one built-in type, each field of their state stacked
    into an array with one row per model: the compiled kernel's state.

    `proto`, a model of that type, holds the parameters all m share.
    Subclasses name the state fields in the order the compiled kernel
    takes them, the kernel and its parameter, and define `predict`.
    """

    fields: tuple[str, ...] = ()
    kernel = ""  # the `_native.Kernels` function that feeds this type
    param = ""  # the learner's parameter the kernel takes
    floats: tuple[str, ...] = ()  # the learner's float scalars, `param` among them
    vectors: tuple[str, ...] = ()  # and its vectors, one element per feature
    # `update` runs a batch of fewer rows in Python.  On a 2-vCPU Xeon VM,
    # at d in {2, 20, 200}, a one-model kernel call costs ~30 us, most of
    # it checks, copies of the state and ctypes' pointers, against ~1.3 us per
    # Pegasos row and ~4.3 us per LsqSgd row in Python: they break even at
    # ~20 and ~7-8 rows.  Tree CV at d=20 through a learner that delegates
    # to one of them, whose recursion feeds it batches of every size, ran
    # 16-28% faster for Pegasos with a cut at 20 rows than at 8, and up
    # to 3.4x (Pegasos) or 1.9x (LsqSgd) slower with every batch compiled
    # (LOOCV n=5000, k=2000 of n=6000 and k=1000 of n=8000).
    min_rows = 1

    def __init__(self, proto: IncrementalLearner, arrays):
        self.proto = proto
        for name, array in zip(self.fields, arrays):
            setattr(self, name, array)

    @classmethod
    def of(cls, model: IncrementalLearner) -> "_Stack":
        """A stack of one model: a copy of the state of `model`."""
        return cls(model, [np.array([getattr(model, name)]) for name in cls.fields])

    def take(self, index: np.ndarray) -> "_Stack":
        """The models at `index`, in that order.  An index taken twice
        preserves a model: its row is repeated."""
        return type(self)(self.proto, [getattr(self, name)[index] for name in self.fields])

    def model(self, i: int) -> IncrementalLearner:
        """Model i as a learner of its own, holding a copy of its state."""
        twin = self.proto.fresh()
        for name in self.fields:
            value = getattr(self, name)[i]
            setattr(twin, name, value.copy() if value.ndim else value.item())
        return twin

    @classmethod
    def holds(cls, model: IncrementalLearner, x: np.ndarray, y: np.ndarray) -> bool:
        """Whether `model` holds the state the compiled kernel reads, of
        the types its constructor gives, for the rows of x: float
        scalars, an int step count and float64 vectors of x's width,
        none of them sharing memory with another or with x or y, which
        the Python update would then read as they change."""
        vectors = [getattr(model, name) for name in cls.vectors]
        if not (type(model.t) is int and 0 <= model.t < 2 ** 62
                and all(type(getattr(model, name)) is float for name in cls.floats)
                and all(type(v) is np.ndarray and v.dtype == np.float64
                        and v.shape == x.shape[1:] for v in vectors)):
            return False
        arrays = vectors + [x, y]
        return not any(np.may_share_memory(a, b)
                       for i, a in enumerate(vectors) for b in arrays[i + 1:])

    @classmethod
    def feed_model(cls, kernels: "_native.Kernels", model: IncrementalLearner, x: np.ndarray,
                   y: np.ndarray | None) -> bool:
        """Feed one model a labeled batch through the compiled kernel, as
        `_update_compiled` describes, and say whether that happened."""
        if y is None or not cls.holds(model, x, y):
            return False
        stack = cls.of(model)
        if not stack.feed_rows(kernels, x, np.ascontiguousarray(y),
                               np.array([x.shape[0]], dtype=np.int64)):
            return False
        for name in cls.fields:
            value = getattr(stack, name)[0]
            if value.ndim:
                getattr(model, name)[...] = value
            else:
                setattr(model, name, value.item())
        return True

    def feed_rows(self, kernels: "_native.Kernels", x: np.ndarray, y: np.ndarray,
                  counts: np.ndarray) -> bool:
        """Feed model i the next counts[i] rows of x and y through the
        compiled kernel, each model's rows after the previous model's.

        x (float64, a row of the models' width per point), y (float64)
        and counts (int64) must be C-contiguous, and the runs must fit in
        x; ValueError says they do not, before the kernel reads past an
        array.  False when the kernel raised a floating-point flag: the
        state is then spoiled, and the rows must be fed by Python from a
        copy kept beforehand.
        """
        (m,), (n, d) = counts.shape, x.shape
        arrays = [getattr(self, name) for name in self.fields] + [x, y, counts]
        layout = [((m, d) if name in self.vectors else (m,),
                   np.int64 if name == "t" else np.float64) for name in self.fields]
        layout += [((n, d), np.float64), ((n,), np.float64), ((m,), np.int64)]
        if (any(a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous
                for a, (shape, dtype) in zip(arrays, layout))
                or (m and (counts.min() < 0 or counts.sum() > n))):
            raise ValueError(f"a {self.kernel} call needs the stacked state, rows and run "
                             "lengths to agree in shape and dtype")
        return not getattr(kernels, self.kernel)(
            m, d, getattr(self.proto, self.param), *[array.ctypes.data for array in arrays])


class PegasosStack(_Stack):
    """Stacked `Pegasos` models: scales `a` (m,), vectors `v` (m, d) and
    step counters `t` (m,)."""

    fields = ("a", "v", "t")
    kernel, param, floats, vectors = "pegasos_feed", "lam", ("lam", "a"), ("v",)
    min_rows = 20

    def predict(self, x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Model owner[i]'s `predict_many` of row i of x, for every row."""
        return np.copysign(1.0, np.einsum("ij,ij->i", x, self.v[owner]))


class LsqSgdStack(_Stack):
    """Stacked `LsqSgd` models: iterates `w` and averages `w_avg` (m, d)
    and step counters `t` (m,)."""

    fields = ("w", "w_avg", "t")
    kernel, param, floats, vectors = "lsqsgd_feed", "alpha", ("alpha",), ("w", "w_avg")
    min_rows = 8

    def predict(self, x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Model owner[i]'s `predict_many` of row i of x, for every row."""
        return np.einsum("ij,ij->i", x, self.w_avg[owner])


class KMeansFeed:
    """The compiled update of one `OnlineKMeans` model (`kmeans_feed`)."""

    # `update` runs a batch of fewer rows in Python.  On a 2-vCPU Xeon VM,
    # at d in {2, 10, 50, 200} and K in {3, 5, 8}, a call costs ~12-18 us,
    # most of it checks, copies of the state and ctypes' pointers, against
    # ~7-11 us per row in Python: they break even at ~2 rows.  Tree CV of
    # 4000 points at d=10, K=5 (randomized, median of 5) took 0.33 / 0.30
    # / 0.32 / 0.38 s at LOOCV and 0.088 / 0.083 / 0.088 / 0.128 s at
    # k=1000 with a cut at 1 / 2 / 3 / 8 rows, and 0.61 / 0.44 s in Python.
    min_rows = 2

    @staticmethod
    def holds(model: OnlineKMeans, x: np.ndarray) -> bool:
        """Whether `model` holds the state the kernel reads, of the types
        its constructor gives, for the rows of x: writable float64 centers
        of x's width and int64 counts, one of each per cluster and at
        least one, sharing no memory with each other or with x, and an int
        count of centers in use."""
        centers, counts = model.centers, model.counts
        return (type(centers) is np.ndarray and centers.dtype == np.float64
                and centers.shape == (model.n_clusters, x.shape[1]) and len(centers) >= 1
                and centers.flags.writeable
                and type(counts) is np.ndarray and counts.dtype == np.int64
                and counts.shape == centers.shape[:1] and counts.flags.writeable
                and type(model.n_centers) is int and 0 <= model.n_centers <= len(centers)
                and not np.may_share_memory(centers, counts)
                and not np.may_share_memory(centers, x) and not np.may_share_memory(counts, x))

    @classmethod
    def feed_model(cls, kernels: "_native.Kernels", model: OnlineKMeans, x: np.ndarray,
                   y: np.ndarray | None) -> bool:
        """Feed `model` the rows of x through `kmeans_feed`, as
        `_update_compiled` describes, and say whether that happened; the
        outcomes y are not read.  x must be a C-contiguous float64 matrix;
        ValueError says it is not, before the kernel reads it."""
        if (type(x) is not np.ndarray or x.ndim != 2 or x.dtype != np.float64
                or not x.flags.c_contiguous):
            raise ValueError("a kmeans_feed call needs a C-contiguous float64 matrix of rows")
        if kernels.kmeans() is None or not cls.holds(model, x):
            return False
        centers, counts = model.centers.copy(), model.counts.copy()
        seeded = np.array([model.n_centers], dtype=np.int64)
        if kernels.kmeans_feed(*x.shape, len(centers), centers.ctypes.data, counts.ctypes.data,
                               seeded.ctypes.data, x.ctypes.data):
            return False
        model.centers[...], model.counts[...] = centers, counts
        model.n_centers = int(seeded[0])
        return True


# The stack type of each built-in type whose tree runs a compiled level
# loop, by exact type: a subclass may change the update rule, so it runs
# its own.
LEVEL_LOOP = {Pegasos: PegasosStack, LsqSgd: LsqSgdStack}
# The compiled update of each built-in type that has one, by the same rule.
# `OnlineKMeans` has no level loop, so the tree runs it by recursion, whose
# `update` runs compiled.
COMPILED = {**LEVEL_LOOP, OnlineKMeans: KMeansFeed}


def load_kernels(model: IncrementalLearner) -> None:
    """Resolve the compiled kernels now if `model`'s exact type runs on
    them (`COMPILED`), so that worker processes forked later inherit them
    and the self-checks run outside any wall time.  A learner of another
    type, even one that delegates to a built-in, leaves them to be
    resolved at the first compiled update, by each process for itself."""
    if type(model) in COMPILED and (loaded := _native.kernels()) is not None:
        if type(model) is OnlineKMeans:
            loaded.kmeans()  # and its own self-check
