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
models point by point in C by one function, `feed_rows`, so every model
gets the bits of `_update_point`: the linear steps call the BLAS ddot
that `ndarray.dot` calls, and the k-means step sums each squared
distance in the order numpy's `np.einsum` sums a row, which the loader
checks against this numpy's einsum.  Their `update` hands the kernel a
copy of the model's state (`PegasosFeed`, `LsqSgdFeed`, `KMeansFeed`,
checked by one `_Feed.feed_rows`) and any C-contiguous float64 batch of
at least `min_rows` rows, labeled for the linear two.  On a 2-vCPU
Xeon VM a point then costs ~26-27 ns (Pegasos) or ~30-32 ns (LsqSgd) at
d=20 in the AVX2 clone of the linear row loop, which the loader picks on
a CPU with AVX2 (~31 and ~42 ns in the baseline one), and ~47-48 ns
(k-means) at d=10 and K=5 (`feed_rows`, minimum of 20 feeds of 100,000
rows), against ~1.6, ~4-7 and ~8-10 us in Python.  Without a
C compiler, or when the kernel raises a floating-point flag, the Python
update runs, with its own warnings and errors; k-means also runs in
Python where numpy's einsum sums in another order.  From the same copy
of a model's state, the tree runs a whole subtree in one `tree_feed`
call (`tree._subtree`), and standard CV a group of folds in one
`standard_feed` call (`standard._compiled_folds`); `compiled_feed` says
which models both take.  Either takes any loss.  Each scores the
built-in losses its learner predicts for in C (`_Feed.losses`):
`ZERO_ONE` and `SQUARED` for the linear two, `QUANTIZATION` for k-means.
Any other loss, and a chunk whose sum C refuses, is scored from the
predictions by `core.chunk_scores`: at once for a loss with a batch
form, and one row at a time, as `evaluate_chunk` does, for any other.
"""

from __future__ import annotations

import math

import numpy as np

from . import _native
from .core import (
    QUANTIZATION,
    SQUARED,
    ZERO_ONE,
    IncrementalLearner,
    LabelRequiredError,
    UntrainedModelError,
    chunk_scores,
)


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
    keys of `COMPILED`) whose state it reads as the Python update does
    (`takes`) and a C-contiguous float64 batch of the model's width and
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


class _Feed:
    """A copy of one model's state as the compiled kernels read it, for
    an exact built-in type (a value of `COMPILED`): each of `fields` as a
    C-contiguous array of its dtype, a scalar as an array of one element.

    Subclasses name the fields in the order the kernels take them and the
    shape the kernels read each in (`shapes`), and say whether a model
    holds state that the kernels read as the Python update does
    (`takes`).  `feed_rows` feeds the copy rows, and `run_subtree` runs a
    subtree of the tree from it by `tree_feed`; both take the learner's
    number `kind`, its float parameter `param` (the model's `parameter`)
    and its cluster count `k` (the rows of a first field of shape "kd").
    """

    fields: tuple[str, ...] = ()
    dtypes: tuple[type, ...] = ()
    shapes: tuple[str, ...] = ()  # per field: "k" a row per cluster, "d" an element per feature
    kind = -1
    # the built-in losses the kernels score for the learner, each with the
    # number `_kernels.c` gives it
    losses: tuple = ()
    parameter = ""
    labeled = True  # whether the kernels read a label per row
    vector_predictions = False  # whether `predict_many` gives d values per row
    min_rows = 1

    def __init__(self, model: IncrementalLearner):
        self.arrays = [np.array(getattr(model, name), dtype=dtype, order="C", ndmin=1)
                       for name, dtype in zip(self.fields, self.dtypes)]
        self.param = getattr(model, self.parameter) if self.parameter else 0.0
        self.k = len(self.arrays[0]) if self.shapes[0] == "kd" else 0

    def pointers(self) -> list[int]:
        return [array.ctypes.data for array in self.arrays]

    def store(self, model: IncrementalLearner) -> None:
        """Write the copy into `model`: into its arrays, and its scalars as
        Python numbers."""
        for name, array in zip(self.fields, self.arrays):
            value = getattr(model, name)
            if type(value) is np.ndarray:
                value[...] = array
            else:
                setattr(model, name, array.item())

    def feed_rows(self, kernels: "_native.Kernels", x: np.ndarray, y: np.ndarray | None) -> bool:
        """Feed the copy the rows of x, labeled by y if the learner reads
        labels, through the compiled `feed_rows`.

        x (float64, a row of the copy's width per point) and y (float64,
        one per row) must be C-contiguous; ValueError says they are not,
        before the kernel reads past an array.  False when the kernel
        failed (a k-means step it leaves to Python) or raised a
        floating-point flag: the copy is then spoiled, and the rows must
        be fed by Python to the model.
        """
        n, d = x.shape if type(x) is np.ndarray and x.ndim == 2 else (-1, -1)
        sizes = {"1": (1,), "d": (d,), "k": (self.k,), "kd": (self.k, d)}
        layout = [(sizes[shape], dtype) for shape, dtype in zip(self.shapes, self.dtypes)]
        arrays = self.arrays + [x] + ([y] if self.labeled else [])
        layout += [((n, d), np.float64), ((n,), np.float64)]
        if any(type(a) is not np.ndarray or a.shape != shape or a.dtype != dtype
               or not a.flags.c_contiguous for a, (shape, dtype) in zip(arrays, layout)):
            raise ValueError("a feed_rows call needs C-contiguous state, rows and labels that "
                             "agree in shape and dtype")
        return not kernels.feed_rows(self.kind, n, d, self.param, self.k, *self.pointers(),
                                     x.ctypes.data, y.ctypes.data if self.labeled else None)

    def run_subtree(self, kernels: "_native.Kernels", bounds: np.ndarray, s: int, e: int,
                    x: np.ndarray, y: np.ndarray | None, shuffle_seed: int | None,
                    loss=None):
        """Run subtree s..e of the tree's recursion over the chunks that
        `bounds` (int64) delimits by one `tree_feed` call, from this copy,
        which it only reads: fixed order, or randomized with `shuffle_seed`
        (derive_seed(run seed, TAG_NODE_SHUFFLE)).  x (and y, for the
        linear learners) must be C-contiguous float64 rows and labels the
        model takes.  Gives each leaf's `predict_many` of its chunk, rows
        bounds[s] to bounds[e + 1] - 1 in order, or under `loss` the fold
        scores of chunks s..e (see `_run`), and the point updates and
        model transfers as an int64 pair, or None when the kernel failed:
        a raised flag, a failed k-means step or a k-means leaf with no
        center, which the recursion then meets, or the loss failed."""
        return self._run(kernels, kernels.tree_feed, (s, e), bounds, x, y, shuffle_seed, loss)

    def run_folds(self, kernels: "_native.Kernels", bounds: np.ndarray, first: int, last: int,
                  x: np.ndarray, y: np.ndarray | None, fold_seed: int | None, loss=None):
        """Run folds first..last of standard CV by one `standard_feed`
        call, each from this copy, as `run_subtree` runs a subtree: fixed
        order, or randomized with `fold_seed` (derive_seed(run seed,
        TAG_FOLD_SHUFFLE)).  Gives each fold's `predict_many` of its chunk,
        or under `loss` its score, and the counts as `run_subtree` does,
        or None when the kernel or the loss failed, which the Python loop
        then meets."""
        return self._run(kernels, kernels.standard_feed, (first, last, len(bounds) - 1), bounds,
                         x, y, fold_seed, loss)

    def code(self, kernels: "_native.Kernels", loss) -> int:
        """The number `tree_feed` and `standard_feed` score `loss` by for
        this learner (`losses`), or 0 when they leave it to Python."""
        return next((code for scored, code in self.losses if scored is loss), 0)

    def _run(self, kernels: "_native.Kernels", kernel, head: tuple, bounds: np.ndarray,
             x: np.ndarray, y: np.ndarray | None, seed: int | None, loss):
        """The output of `kernel` (see `call`): with no loss, predictions.
        Under a loss the kernel scores (`code`), its scores, unless the
        kernel fails, which a sum that meets an inf, a NaN or an overflow
        makes it do; then, and under any other loss, its predictions
        scored by `core.chunk_scores`, which raises or reports what the
        Python path does.  None where the kernel or the loss failed."""
        code = 0 if loss is None else self.code(kernels, loss)
        if code and (ran := self.call(kernel, code, head, bounds, x, y, seed)) is not None:
            return ran
        ran = self.call(kernel, 0, head, bounds, x, y, seed)
        if ran is None or loss is None:
            return ran
        first, last = head[0], head[1]
        rows = slice(bounds[first], bounds[last + 1])
        try:
            return chunk_scores(loss, ran[0], x[rows], None if y is None else y[rows], bounds,
                                first, last), ran[1]
        except Exception:  # the loss, or a chunk's sum, failed
            return None

    def call(self, kernel, code: int, head: tuple, bounds: np.ndarray, x: np.ndarray,
             y: np.ndarray | None, seed: int | None):
        """Call `kernel` with the learner, the loss `code` (0: none),
        `head` (the chunks it runs from `head[0]` to `head[1]`, and for
        `standard_feed` their count), the data, the seed and this copy.
        Gives the predictions of rows bounds[head[0]] to bounds[head[1] +
        1] - 1, or under a loss the scores of chunks head[0] to head[1],
        and the counts, or None when the kernel failed."""
        first, last = head[0], head[1]
        rows = int(bounds[last + 1] - bounds[first])
        out = np.empty(last - first + 1 if code else
                       (rows, x.shape[1]) if self.vector_predictions else rows)
        counts = np.zeros(2, dtype=np.int64)
        if kernel(self.kind, *head, bounds.ctypes.data, x.shape[1], x.ctypes.data,
                  None if y is None else y.ctypes.data, seed is not None, seed or 0,
                  self.param, self.k, *self.pointers(), code, out.ctypes.data,
                  counts.ctypes.data):
            return None
        return out, counts

    @classmethod
    def feed_model(cls, kernels: "_native.Kernels", model: IncrementalLearner, x: np.ndarray,
                   y: np.ndarray | None) -> bool:
        """Feed one model a batch through its compiled kernel, as
        `_update_compiled` describes, and say whether that happened.  x
        must be a C-contiguous float64 matrix; ValueError says it is not,
        before the kernel reads it."""
        if (type(x) is not np.ndarray or x.ndim != 2 or x.dtype != np.float64
                or not x.flags.c_contiguous):
            raise ValueError("a compiled feed needs a C-contiguous float64 matrix of rows")
        if not cls.takes(kernels, model, x, y):
            return False
        state = cls(model)
        if not state.feed_rows(kernels, x, None if y is None else np.ascontiguousarray(y)):
            return False
        state.store(model)
        return True


class _LinearFeed(_Feed):
    """A `Pegasos` or `LsqSgd` model: float scalars (`floats`, the
    parameter `parameter` among them), float64 vectors of one element per
    feature (`vectors`) and an int step count `t`."""

    floats: tuple[str, ...] = ()
    vectors: tuple[str, ...] = ()
    losses = ((ZERO_ONE, 1), (SQUARED, 2))

    @classmethod
    def takes(cls, kernels: "_native.Kernels", model: IncrementalLearner, x: np.ndarray,
              y: np.ndarray | None) -> bool:
        """Whether the rows of x are labeled and `model` holds the state
        the compiled kernel reads, of the types its constructor gives, for
        them: float scalars, an int step count and float64 vectors of x's
        width, none of them sharing memory with another or with x or y,
        which the Python update would then read as they change."""
        if y is None:
            return False
        vectors = [getattr(model, name) for name in cls.vectors]
        if not (type(model.t) is int and 0 <= model.t < 2 ** 62
                and all(type(getattr(model, name)) is float for name in cls.floats)
                and all(type(v) is np.ndarray and v.dtype == np.float64
                        and v.shape == x.shape[1:] for v in vectors)):
            return False
        arrays = vectors + [x, y]
        return not any(np.may_share_memory(a, b)
                       for i, a in enumerate(vectors) for b in arrays[i + 1:])


class PegasosFeed(_LinearFeed):
    """`Pegasos`: the scale `a`, the vector `v` and the step count `t`."""

    fields, dtypes, kind = ("a", "v", "t"), (np.float64, np.float64, np.int64), 0
    shapes, parameter, floats, vectors = ("1", "d", "1"), "lam", ("lam", "a"), ("v",)
    # `update` runs a batch of fewer rows in Python.  On a 2-vCPU Xeon VM,
    # at d in {2, 20, 200}, a one-model kernel call costs ~30 us, most of
    # it checks, copies of the state and ctypes' pointers, against ~1.3 us per
    # Pegasos row and ~4.3 us per LsqSgd row in Python: they break even at
    # ~20 and ~7-8 rows.  Tree CV at d=20 through a learner that delegates
    # to one of them, whose recursion feeds it batches of every size, ran
    # 16-28% faster for Pegasos with a cut at 20 rows than at 8, and up
    # to 3.4x (Pegasos) or 1.9x (LsqSgd) slower with every batch compiled
    # (LOOCV n=5000, k=2000 of n=6000 and k=1000 of n=8000).
    min_rows = 20


class LsqSgdFeed(_LinearFeed):
    """`LsqSgd`: the iterate `w`, its average `w_avg` and the step count
    `t`."""

    fields, dtypes, kind = ("w", "w_avg", "t"), (np.float64, np.float64, np.int64), 1
    shapes, parameter, floats, vectors = ("d", "d", "1"), "alpha", ("alpha",), ("w", "w_avg")
    min_rows = 8  # the break-even of `PegasosFeed.min_rows`'s comment


class KMeansFeed(_Feed):
    """`OnlineKMeans`: the centers, their counts and the number in use,
    fed once `Kernels.kmeans` has checked the feed."""

    fields, dtypes, kind = ("centers", "counts", "n_centers"), (np.float64, np.int64, np.int64), 2
    shapes, labeled, vector_predictions = ("kd", "k", "1"), False, True
    losses = ((QUANTIZATION, 3),)
    # `update` runs a batch of fewer rows in Python.  On a 2-vCPU Xeon VM,
    # at d in {2, 10, 50, 200} and K in {3, 5, 8}, a call costs ~12-18 us,
    # most of it checks, copies of the state and ctypes' pointers, against
    # ~7-11 us per row in Python: they break even at ~2 rows.  Tree CV of
    # 4000 points at d=10, K=5 (randomized, median of 5) took 0.33 / 0.30
    # / 0.32 / 0.38 s at LOOCV and 0.088 / 0.083 / 0.088 / 0.128 s at
    # k=1000 with a cut at 1 / 2 / 3 / 8 rows, and 0.61 / 0.44 s in Python.
    min_rows = 2

    def code(self, kernels: "_native.Kernels", loss) -> int:
        """`_Feed.code`, where `Kernels.kmeans` found that the distances
        the kernel computes are the QUANTIZATION loss's, else 0."""
        return super().code(kernels, loss) if kernels.quantization else 0

    @classmethod
    def takes(cls, kernels: "_native.Kernels", model: OnlineKMeans, x: np.ndarray,
              y: np.ndarray | None = None) -> bool:
        """Whether the k-means feed passed its self-check and `model`
        holds the state it reads, of the types its constructor gives, for
        the rows of x: writable float64 centers of x's width and int64
        counts, one of each per cluster and at least one, sharing no
        memory with each other or with x, and an int count of centers in
        use.  The outcomes y are not read."""
        centers, counts = model.centers, model.counts
        return (kernels.kmeans() is not None
                and type(centers) is np.ndarray and centers.dtype == np.float64
                and centers.shape == (model.n_clusters, x.shape[1]) and len(centers) >= 1
                and centers.flags.writeable
                and type(counts) is np.ndarray and counts.dtype == np.int64
                and counts.shape == centers.shape[:1] and counts.flags.writeable
                and type(model.n_centers) is int and 0 <= model.n_centers <= len(centers)
                and not np.may_share_memory(centers, counts)
                and not np.may_share_memory(centers, x) and not np.may_share_memory(counts, x))


# The compiled kernels of each built-in type that has them, by exact type:
# a subclass may change the update rule, so it runs its own.
COMPILED = {Pegasos: PegasosFeed, LsqSgd: LsqSgdFeed, OnlineKMeans: KMeansFeed}


def compiled_feed(model: IncrementalLearner, x: np.ndarray, y: np.ndarray | None):
    """The `COMPILED` feed of `model` if `tree_feed` and `standard_feed`
    run it on the rows x labeled y, else None.

    They run it with the compiled kernels loaded and their self-check
    (`Kernels.tree`) passed, for a model of an exact compiled type that
    holds state the kernels read as its Python update does, for the rows
    of the data and with the labels it needs (`takes`).  Any loss: the
    kernels score a built-in one the learner predicts for (`_Feed.code`),
    and `core.chunk_scores` any other from the predictions, a loss
    without a batch form one row at a time, as `evaluate_chunk` scores
    `predict` of each row.
    """
    feed = COMPILED.get(type(model))
    if (feed is None or (kernels := _native.kernels()) is None
            or kernels.tree() is None or not feed.takes(kernels, model, x, y)):
        return None
    return feed


def load_kernels(model: IncrementalLearner) -> None:
    """Resolve the compiled kernels now if `model`'s exact type runs on
    them (`COMPILED`), with the self-checks of the k-means feed for
    k-means and of `tree_feed` and `standard_feed` (`Kernels.tree`), so
    that worker processes forked later inherit them and the checks run
    outside any wall time.  A learner of another type, even one that
    delegates to a built-in, leaves them to be resolved at the first
    compiled update, by each process for itself."""
    if type(model) in COMPILED and (loaded := _native.kernels()) is not None:
        if type(model) is OnlineKMeans:
            loaded.kmeans()
        loaded.tree()
