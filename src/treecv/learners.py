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
the batch holds (a BLAS `X @ w` does, in the last bits); `predict(x)` is
`predict_many` of a one-row batch, so a prediction has one definition.

`RecordingLearner` wraps any learner and logs every point it is fed; the
scheduler tests use it to check the sequence each fold model is trained
on.  (The CLI's --verify path instead replays `tree_feed_orders` through
`brute_force_oracle`.)
"""

from __future__ import annotations

import math

import numpy as np

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
        if lam <= 0:
            raise ValueError("lam must be positive")
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

    def predict(self, x) -> float:
        return float(self.predict_many(x[None])[0])

    def fresh(self):
        return Pegasos(self.dim, self.lam)

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
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.dim = dim
        self.alpha = alpha
        self.w = np.zeros(dim)
        self.w_avg = np.zeros(dim)
        self.t = 0

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

    def predict(self, x) -> float:
        return float(self.predict_many(x[None])[0])

    def fresh(self):
        return LsqSgd(self.dim, self.alpha)

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

    def predict(self, x) -> np.ndarray:
        return self.predict_many(x[None])[0]

    def fresh(self):
        return OnlineKMeans(self.dim, self.n_clusters)

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

    def predict(self, x) -> float:
        return float(self.predict_many(x[None])[0])

    def fresh(self):
        return MeanPredictor(self.dim)

    def clone(self):
        twin = self.fresh()
        twin._partials, twin.count = list(self._partials), self.count
        return twin


class RecordingLearner(IncrementalLearner):
    """Wrapper that records every fed point before forwarding to the inner
    learner.  `seen` is the list of (x, y) pairs in feeding order; a clone
    copies it with the model, so each branch of a scheduler run carries
    exactly its own history.
    """

    def __init__(self, inner: IncrementalLearner):
        self.inner = inner
        self.seen: list[tuple[np.ndarray, float | None]] = []

    def _update_point(self, x, y):
        self.seen.append((x.copy(), y))
        self.inner._update_point(x, y)

    def predict_many(self, x):
        return self.inner.predict_many(x)

    def predict(self, x):
        return self.inner.predict(x)

    def fresh(self):
        return RecordingLearner(self.inner.fresh())

    def clone(self):
        twin = RecordingLearner(self.inner.clone())
        twin.seen = list(self.seen)
        return twin
