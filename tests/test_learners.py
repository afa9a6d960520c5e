"""Learner unit tests: hand-applied update rules, state preservation,
order-insensitivity, and the incremental-vs-batch gap trend."""

import contextlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treecv import (
    Dataset,
    IncrementalLearner,
    LabelRequiredError,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    Pegasos,
    QUANTIZATION,
    SQUARED,
    UntrainedModelError,
    partition,
    standard_cv,
    tree_cv,
)
from treecv import _native
from treecv.harness import ExperimentPlan, stability_rows
from treecv.learners import (COMPILED, KMeansFeed, LsqSgdFeed, PegasosFeed, _Feed,
                              _update_compiled)
from treecv.rng import SplitMix64Stream


def feed(model, xs, ys=None):
    x = np.asarray(xs, dtype=float)
    model.update(x, None if ys is None else np.asarray(ys, dtype=float))
    return model


# ---------------------------------------------------------------------------
# Pegasos


def test_pegasos_two_step_hand_trace():
    model = Pegasos(dim=1, lam=1.0)
    # step 1: margin 0 < 1, eta = 1 -> w = [1]
    feed(model, [[1.0]], [1.0])
    assert model.t == 1
    assert model.w.tolist() == [1.0]
    # step 2: margin 1, no violation, eta = 1/2 -> w = [0.5]
    feed(model, [[1.0]], [1.0])
    assert model.t == 2
    assert model.w.tolist() == [0.5]


def test_pegasos_zero_feature_point_only_shrinks():
    model = Pegasos(dim=2, lam=0.5)
    feed(model, [[1.0, 0.0]], [1.0])
    w_before = model.w.copy()
    feed(model, [[0.0, 0.0]], [1.0])  # margin 0 < 1 but x = 0
    eta = 1.0 / (0.5 * 2)
    assert np.array_equal(model.w, w_before * (1.0 - eta * 0.5))


def test_pegasos_predicts_sign_with_positive_tie():
    model = Pegasos(dim=1, lam=1.0)
    model.w = np.array([0.5])
    assert model.predict(np.array([2.0])) == 1.0
    model.w = np.array([0.0])
    assert model.predict(np.array([2.0])) == 1.0  # tie goes to +1
    model.w = np.array([-0.5])
    assert model.predict(np.array([2.0])) == -1.0


def test_pegasos_step_count_and_determinism():
    data = SplitMix64Stream(1).normal_array(60).reshape(20, 3)
    labels = np.where(data[:, 0] > 0, 1.0, -1.0)
    runs = []
    for _ in range(2):
        model = feed(Pegasos(dim=3, lam=0.1), data, labels)
        assert model.t == 20
        runs.append(model.w.copy())
    assert np.array_equal(runs[0], runs[1])


def test_pegasos_requires_labels():
    with pytest.raises(LabelRequiredError):
        Pegasos(dim=1).update(np.zeros((1, 1)), None)


def test_pegasos_weights_stay_finite():
    stream = SplitMix64Stream(2)
    x = stream.normal_array(1500).reshape(500, 3) * 50.0
    y = np.where(stream.uniform_array(500) < 0.5, 1.0, -1.0)
    for lam in (1e-6, 1e-2, 10.0):
        model = feed(Pegasos(dim=3, lam=lam), x, y)
        assert np.isfinite(model.w).all()


def test_batch_update_equals_pointwise_updates():
    stream = SplitMix64Stream(14)
    x = stream.normal_array(36).reshape(12, 3)
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    batched = feed(Pegasos(dim=3, lam=0.2), x, y)
    pointwise = Pegasos(dim=3, lam=0.2)
    for i in range(12):
        pointwise.update(x[i : i + 1], y[i : i + 1])
    assert np.array_equal(batched.w, pointwise.w)
    assert batched.t == pointwise.t


def test_pegasos_untrained_predicts_from_zero_weights():
    assert Pegasos(dim=2).predict(np.array([1.0, -1.0])) == 1.0


def reference_pegasos(x, y, lam):
    """The unscaled update loop: w shrinks by 1 - eta*lam every step."""
    w, t = np.zeros(x.shape[1]), 0
    for xi, yi in zip(x, y):
        t += 1
        eta = 1.0 / (lam * t)
        margin = yi * float(w @ xi)
        w *= 1.0 - eta * lam
        if margin < 1.0:
            w += (eta * yi) * xi
    return w, t


@pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-2, 10.0])
def test_scaled_pegasos_tracks_the_unscaled_update_loop(lam):
    stream = SplitMix64Stream(808)
    x = stream.normal_array(5000 * 4).reshape(5000, 4)
    y = np.where(x @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.3 * stream.normal_array(5000) > 0,
                 1.0, -1.0)
    w, t = reference_pegasos(x, y, lam)
    model = feed(Pegasos(dim=4, lam=lam), x, y)
    assert model.t == t
    assert np.abs(model.w - w).max() <= 1e-9 * np.abs(w).max()
    assert model.predict_many(x).tolist() == np.where(x @ w >= 0.0, 1.0, -1.0).tolist()


def test_pegasos_clone_carries_the_scale():
    stream = SplitMix64Stream(12)
    x = stream.normal_array(30).reshape(10, 3)
    y = np.where(x[:, 1] > 0, 1.0, -1.0)
    model = feed(Pegasos(dim=3, lam=0.05), x, y)
    assert model.a != 1.0
    twin = model.clone()
    assert (twin.a, twin.t) == (model.a, model.t)
    assert np.array_equal(twin.w, model.w)
    feed(twin, x, y)
    feed(model, x, y)
    assert np.array_equal(twin.w, model.w)


def test_pegasos_assigned_weights_are_copied():
    weights = np.array([1.0, -2.0])
    model = Pegasos(dim=2, lam=0.5)
    model.w = weights
    feed(model, [[0.0, 0.0]], [1.0])  # t = 1 restarts from w = 0
    assert weights.tolist() == [1.0, -2.0]
    assert model.w.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# LsqSgd


def test_lsqsgd_hand_trace_no_projection_at_unit_norm():
    model = LsqSgd(dim=1, alpha=0.5)
    feed(model, [[1.0]], [1.0])
    # gradient -2, step lands exactly on the ball boundary
    assert model.w.tolist() == [1.0]
    assert model.w_avg.tolist() == [1.0]


def test_lsqsgd_projection_normalizes():
    model = LsqSgd(dim=2, alpha=1.0)
    model.w = np.array([0.0, 0.0])
    # choose x, y so the pre-projection iterate is [3, 4]
    feed(model, [[1.5, 2.0]], [1.0])
    assert np.allclose(model.w, [0.6, 0.8], rtol=0, atol=1e-15)
    assert math.sqrt(float(model.w @ model.w)) <= 1.0 + 1e-12


def test_lsqsgd_zero_residual_keeps_weights_updates_average():
    model = LsqSgd(dim=1, alpha=0.1)
    feed(model, [[1.0]], [0.0])  # residual 0, w stays 0
    assert model.w.tolist() == [0.0]
    assert model.t == 1
    model.w = np.array([0.5])
    feed(model, [[2.0]], [1.0])  # w.x = 1 = y, residual 0
    assert model.w.tolist() == [0.5]
    assert model.w_avg.tolist() == [0.25]  # mean of iterates [0, 0.5]


def test_lsqsgd_ball_constraint_and_average_oracle():
    stream = SplitMix64Stream(9)
    x = stream.normal_array(300).reshape(100, 3)
    y = stream.uniform_array(100)
    model = LsqSgd(dim=3, alpha=0.2)
    iterates = []
    for i in range(100):
        model.update(x[i : i + 1], y[i : i + 1])
        assert math.sqrt(float(model.w @ model.w)) <= 1.0 + 1e-12
        iterates.append(model.w.copy())
    oracle_avg = np.mean(iterates, axis=0)
    assert np.allclose(model.w_avg, oracle_avg, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# OnlineKMeans


def test_kmeans_single_center_running_mean_hand_trace():
    model = OnlineKMeans(dim=1, n_clusters=1)
    feed(model, [[2.0]])
    assert model.centers[0].tolist() == [2.0]
    feed(model, [[4.0]])
    assert model.centers[0].tolist() == [3.0]


def test_kmeans_updates_nearest_center():
    model = OnlineKMeans(dim=1, n_clusters=2)
    feed(model, [[0.0], [10.0]])
    feed(model, [[1.0]])
    assert model.centers[0].tolist() == [0.5]
    assert model.centers[1].tolist() == [10.0]
    assert model.counts.tolist() == [2, 1]


def test_kmeans_duplicate_of_center_only_increments_count():
    model = OnlineKMeans(dim=1, n_clusters=2)
    feed(model, [[3.0]])
    feed(model, [[3.0]])  # equals the first center during the fill phase
    assert model.n_centers == 1
    assert model.centers[0].tolist() == [3.0]
    assert model.counts[0] == 2


def test_kmeans_predicts_nearest_center_with_quantization_loss():
    model = OnlineKMeans(dim=1, n_clusters=2)
    feed(model, [[0.0], [10.0]])
    predicted = model.predict(np.array([4.0]))
    assert predicted.tolist() == [0.0]
    assert float((np.array([4.0]) - predicted) @ (np.array([4.0]) - predicted)) == 16.0


def test_kmeans_counts_sum_and_k1_matches_exact_mean():
    stream = SplitMix64Stream(21)
    x = stream.normal_array(400).reshape(200, 2)
    model = OnlineKMeans(dim=2, n_clusters=1)
    model.update(x)
    assert int(model.counts.sum()) == 200
    assert np.allclose(model.centers[0], x.mean(axis=0), rtol=1e-12, atol=1e-12)


def test_kmeans_untrained_prediction_errors():
    with pytest.raises(UntrainedModelError):
        OnlineKMeans(dim=1, n_clusters=1).predict(np.zeros(1))


# ---------------------------------------------------------------------------
# MeanPredictor


def test_mean_predictor_is_bit_exact_under_permutation_and_batching():
    stream = SplitMix64Stream(33)
    ys = stream.uniform_array(64) * 1000.0
    x = np.zeros((64, 1))
    base = feed(MeanPredictor(1), x, ys)
    for trial in range(10):
        order = SplitMix64Stream(trial).permutation(64)
        other = MeanPredictor(1)
        cut = 1 + SplitMix64Stream(trial + 100).randbelow(63)
        other.update(x[order[:cut]], ys[order[:cut]])
        other.update(x[order[cut:]], ys[order[cut:]])
        assert other.predict(np.zeros(1)) == base.predict(np.zeros(1))
        assert other.total == base.total


def test_mean_predictor_untrained_errors():
    with pytest.raises(UntrainedModelError):
        MeanPredictor(1).predict(np.zeros(1))


# ---------------------------------------------------------------------------
# Clone


LEARNER_BUILDERS = [
    lambda: Pegasos(dim=2, lam=0.3),
    lambda: LsqSgd(dim=2, alpha=0.2),
    lambda: OnlineKMeans(dim=2, n_clusters=2),
    lambda: MeanPredictor(dim=2),
]


def _probe(model, points):
    out = []
    for p in points:
        try:
            out.append(np.asarray(model.predict(p)).tolist())
        except UntrainedModelError:
            out.append(None)
    return out


@pytest.mark.parametrize("build", LEARNER_BUILDERS)
def test_clone_is_bit_exact_and_independent(build):
    stream = SplitMix64Stream(77)
    x = stream.normal_array(40).reshape(20, 2)
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    probes = [x[i] for i in range(5)]

    assert _probe(build().clone(), probes) == _probe(build(), probes)
    model = build()
    model.update(x[:7], y[:7])
    twin = model.clone()
    before = _probe(model, probes)
    assert type(twin) is type(model)
    assert _probe(twin, probes) == before

    # training the original leaves the clone as it was
    model.update(x[7:12], y[7:12])
    assert _probe(twin, probes) == before

    # the same rows train both to bit-identical models
    twin.update(x[7:12], y[7:12])
    assert _probe(twin, probes) == _probe(model, probes)


BUILT_INS = [
    (Pegasos, (2, 0.3), SQUARED),
    (LsqSgd, (2, 0.2), SQUARED),
    (OnlineKMeans, (2, 2), QUANTIZATION),
    (MeanPredictor, (2,), SQUARED),
]
BUILT_IN_IDS = ["pegasos", "lsqsgd", "kmeans", "mean"]
MARK = 99.0


def _refusing_subclass(base):
    """A subclass of a built-in that changes only the update rule: it
    refuses a row whose first feature is MARK."""
    class Refusing(base):
        def _update_point(self, x, y):
            if x[0] == MARK:
                raise RuntimeError("refused the marked row")
            super()._update_point(x, y)
    return Refusing


@pytest.mark.parametrize("base, args, loss", BUILT_INS, ids=BUILT_IN_IDS)
def test_subclass_of_a_built_in_fresh_and_clone_keep_the_subclass(base, args, loss):
    model = _refusing_subclass(base)(*args)
    assert type(model.fresh()) is type(model)
    assert type(model.clone()) is type(model)


@pytest.mark.parametrize("base, args, loss", BUILT_INS, ids=BUILT_IN_IDS)
def test_schedulers_run_a_subclass_update_rule(base, args, loss):
    x = SplitMix64Stream(5).normal_array(24).reshape(12, 2)
    x[5, 0] = MARK
    data = Dataset(x, np.where(np.arange(12) % 2 == 0, 1.0, -1.0))
    factory = partial(_refusing_subclass(base), *args)
    part = partition(data, 4)
    with pytest.raises(Exception, match="refused the marked row"):
        tree_cv(factory, data, part, loss)
    with pytest.raises(Exception, match="refused the marked row"):
        standard_cv(factory, data, part, loss)


@pytest.mark.parametrize("build", [
    lambda v: Pegasos(dim=2, lam=v),
    lambda v: LsqSgd(dim=2, alpha=v),
], ids=["pegasos-lam", "lsqsgd-alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_step_parameters_must_be_positive_and_finite(build, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        build(value)


# ---------------------------------------------------------------------------
# Batched prediction


def _trained(name, d, x, trained, seed):
    """A built-in learner of the given kind trained on the first rows of x."""
    stream = SplitMix64Stream(seed)
    if name == "pegasos":
        model = Pegasos(dim=d, lam=10.0 ** -stream.randbelow(7))
        y = np.where(stream.uniform_array(len(x)) < 0.5, 1.0, -1.0)
    elif name == "lsqsgd":
        model = LsqSgd(dim=d, alpha=0.5 ** stream.randbelow(10))
        y = stream.normal_array(len(x))
    elif name == "kmeans":
        model = OnlineKMeans(dim=d, n_clusters=1 + stream.randbelow(4))
        y = None
    else:
        model = MeanPredictor(dim=d)
        y = stream.normal_array(len(x))
    model.update(x[:trained], None if y is None else y[:trained])
    return model


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["pegasos", "lsqsgd", "kmeans", "mean"]),
       st.integers(1, 80), st.integers(1, 40), st.integers(0, 2**64 - 1),
       st.integers(-6, 6), st.booleans())
def test_predict_is_the_one_row_batch_bit_for_bit(name, n, d, seed, scale, sparse):
    stream = SplitMix64Stream(seed)
    x = stream.normal_array(n * d).reshape(n, d) * 10.0 ** scale
    if sparse:  # exact zeros and repeated rows, as sparse text yields
        x[stream.uniform_array(n * d).reshape(n, d) < 0.5] = 0.0
        x[n // 2:] = x[: n - n // 2]
    trained = 1 + stream.randbelow(n)
    model = _trained(name, d, x, trained, seed)
    batch = model.predict_many(x)
    assert batch.shape[0] == n
    for i in range(n):
        row = np.asarray(model.predict(x[i]), dtype=np.float64)
        assert row.tobytes() == batch[i].tobytes()
        # any slice of the batch predicts the same bits
        assert model.predict_many(x[i:])[0].tobytes() == batch[i].tobytes()


def test_subclass_overriding_predict_alone_is_batched_through_it():
    class AlwaysNegative(Pegasos):
        def predict(self, x):
            return -1.0

    model = AlwaysNegative(dim=2)
    assert model.predict_many(np.ones((3, 2))).tolist() == [-1.0, -1.0, -1.0]
    assert Pegasos(dim=2).predict_many(np.ones((3, 2))).tolist() == [1.0, 1.0, 1.0]


class _BatchOnlySum(IncrementalLearner):
    """A direct subclass that defines predict_many and no predict."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def _update_point(self, x, y):
        pass

    def predict_many(self, x):
        return np.einsum("ij,j->i", x, self.w)

    def fresh(self):
        return _BatchOnlySum(self.w)

    def clone(self):
        return _BatchOnlySum(self.w.copy())


def test_subclass_defining_predict_many_alone_predicts_its_one_row_batch():
    stream = SplitMix64Stream(21)
    model = _BatchOnlySum(stream.normal_array(5))
    x = stream.normal_array(35).reshape(7, 5)
    batch = model.predict_many(x)
    for i in range(7):
        assert np.float64(model.predict(x[i])).tobytes() == batch[i].tobytes()


def test_subclass_defining_no_prediction_cannot_be_built():
    class NoPrediction(IncrementalLearner):
        def _update_point(self, x, y):
            pass

        def fresh(self):
            return NoPrediction()

        def clone(self):
            return NoPrediction()

    with pytest.raises(TypeError):
        NoPrediction()


# ---------------------------------------------------------------------------
# One model's compiled state: its feed kernel and `tree_feed`'s leaf
# predictions


def _distinct_models(name, m, d, stream, scale, sparse):
    """m models of one built-in type and parameters, each trained on its
    own 0-5 random rows (0 leaves it at t = 0), and a maker of rows and
    outcomes.  Sparse data has exact zeros, zero outcomes and, for
    LsqSgd, iterates whose zeros are -0.0, whose sign a dot product of
    one element keeps."""
    def rows(count):
        x = stream.normal_array(count * d).reshape(count, d) * 10.0 ** scale
        if name == "pegasos":
            y = np.where(stream.uniform_array(count) < 0.5, 1.0, -1.0)
        else:
            y = stream.normal_array(count) * 10.0 ** stream.randbelow(3)
        if sparse:
            x[stream.uniform_array(count * d).reshape(count, d) < 0.5] = 0.0
            if name == "lsqsgd":
                y[stream.uniform_array(count) < 0.3] = 0.0
        return x, y

    if name == "pegasos":
        proto = Pegasos(dim=d, lam=10.0 ** -stream.randbelow(7))
    else:
        proto = LsqSgd(dim=d, alpha=0.5 ** stream.randbelow(10))
    models = []
    for _ in range(m):
        model = proto.fresh()
        model.update(*rows(stream.randbelow(6)))
        if sparse and name == "lsqsgd":
            model.w[model.w == 0.0] = -0.0
        models.append(model)
    return models, rows


def _state_bytes(model):
    return [np.asarray(getattr(model, name), dtype=np.float64).tobytes()
            for name in COMPILED[type(model)].fields]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["pegasos", "lsqsgd"]), st.integers(1, 16), st.integers(1, 60),
       st.integers(1, 40), st.integers(0, 2**64 - 1), st.integers(-6, 6), st.booleans())
def test_lockstep_predict_is_each_models_predict_many(name, m, n, d, seed, scale, sparse):
    """`tree_feed`'s prediction of each row of a leaf's chunk is the leaf
    model's `predict_many` of it, byte for byte.  Each of m trained models
    runs a two-chunk tree whose first chunk holds n rows and whose second
    holds 1-3 training rows: leaf 0 predicts the n rows from the model fed
    chunk 1, and leaf 1 predicts chunk 1 from the model fed the n rows.
    For Pegasos, half of the n rows are nearly orthogonal to leaf 0's v,
    so their sign is the rounding of the sum.  (The name is that of the
    test of the level loop's stacked prediction, which `tree_feed`
    replaced.)  At scale 10**6 an iterate can shrink below the normal
    range: the kernel then raises the underflow flag and gives None.  Each
    leaf is then run alone by the kernels, fed by `feed_rows` and
    predicting as a one-chunk tree; at least one declines, and each that
    declines raises FloatingPointError in Python under np.errstate."""
    kernels = _native.kernels()
    if kernels is None or kernels.tree() is None:
        pytest.skip(f"no tree_feed: {_native.reason()}")
    stream = SplitMix64Stream(seed)
    models, rows = _distinct_models(name, m, d, stream, scale, sparse)
    for model in models:
        x, y = rows(n)
        x1, y1 = rows(1 + stream.randbelow(3))
        leaf0, leaf1 = model.clone(), model.clone()
        IncrementalLearner.update(leaf0, x1, y1)
        if name == "pegasos":
            v = leaf0.v
            for i in range(0, n, 2):
                if v.dot(v):
                    x[i] -= (x[i].dot(v) / v.dot(v)) * v
        IncrementalLearner.update(leaf1, x, y)
        x_all = np.concatenate([x, x1])
        y_all = np.concatenate([y, y1])
        bounds = np.array([0, n, len(y_all)], dtype=np.int64)
        ran = COMPILED[type(model)](model).run_subtree(kernels, bounds, 0, 1, x_all, y_all, None)
        if ran is None:
            declined = 0
            for fed, labels, predicted, truth in ((x1, y1, x, y), (x, y, x1, y1)):
                alone = COMPILED[type(model)](model)
                chunk = np.array([0, len(truth)], dtype=np.int64)
                if (alone.feed_rows(kernels, fed, labels)
                        and alone.run_subtree(kernels, chunk, 0, 0, predicted, truth, None)):
                    continue
                declined += 1
                leaf = model.clone()
                with np.errstate(all="raise"), pytest.raises(FloatingPointError):
                    IncrementalLearner.update(leaf, fed, labels)
                    leaf.predict_many(predicted)
            assert declined
            continue
        expected = np.concatenate([leaf0.predict_many(x), leaf1.predict_many(x1)])
        assert ran[0].tobytes() == expected.tobytes()


# `kernels` is the same object in every example
@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["pegasos", "lsqsgd"]), st.integers(1, 24), st.integers(0, 40),
       st.integers(0, 2**64 - 1), st.integers(-3, 3), st.booleans())
def test_compiled_feed_is_the_scalar_update_byte_for_byte(kernels, name, m, d, seed, scale,
                                                          sparse):
    """m models, each fed its own run of 0-8 rows by one compiled kernel
    call, end with the bytes of m learners fed the same rows one at a
    time by `_update_point`.  Some start at t = 0 from a nonzero iterate,
    which restarts a Pegasos model, and sparse data has -0.0 iterates."""
    stream = SplitMix64Stream(seed)
    models, rows = _distinct_models(name, m, d, stream, scale, sparse)
    for model in models:
        if stream.randbelow(4) == 0:
            model.t = 0
        if sparse and name == "pegasos":
            model.v[model.v == 0.0] = -0.0
    states = [COMPILED[type(model)](model) for model in models]
    fed = [rows(stream.randbelow(9)) for _ in range(m)]
    for model, state, (x, y) in zip(models, states, fed):
        for j in range(len(x)):
            if name == "pegasos" and stream.randbelow(2):
                # scale the row to put its margin within rounding of 1, where
                # the last bit of the dot product decides whether it violates
                dot = float(model.v.dot(x[j]))
                if dot and model.t:
                    x[j] *= 1.0 / (y[j] * model.a * dot)
            IncrementalLearner.update(model, x[j:j + 1], y[j:j + 1])
        assert state.feed_rows(kernels, x, y)
        twin = model.fresh()
        state.store(twin)
        assert _state_bytes(twin) == _state_bytes(model)


@pytest.mark.parametrize("learner", [Pegasos, LsqSgd])
def test_update_runs_compiled_only_for_what_the_python_update_would_give(learner, kernels,
                                                                         monkeypatch):
    """`update` takes the kernel for a plain labeled batch of enough rows,
    and leaves every other batch, model or subclass to Python."""
    def state(model):
        return [np.asarray(getattr(model, name)).tobytes() for name in COMPILED[learner].fields]

    calls = []
    feed_rows = COMPILED[learner].feed_rows
    monkeypatch.setattr(COMPILED[learner], "feed_rows",
                        lambda *args: calls.append(1) or feed_rows(*args))
    stream = SplitMix64Stream(3)
    n = COMPILED[learner].min_rows
    x = stream.normal_array(n * 4).reshape(n, 4)
    y = np.where(stream.uniform_array(n) < 0.5, 1.0, -1.0)

    class Sub(learner):
        pass

    odd_state = learner(4, 0.5)
    odd_state.t = np.int64(0)
    for model, xs, ys in [
        (learner(4, 0.5), x[:-1], y[:-1]),  # too few rows
        (learner(4, 0.5), np.asfortranarray(x), y),
        (learner(4, 0.5), x.astype(np.float32), y),
        (learner(4, 0.5), x, None),
        (Sub(4, 0.5), x, y),
        (odd_state, x, y),
    ]:
        twin = model.clone()
        unlabeled = pytest.raises(LabelRequiredError) if ys is None else contextlib.nullcontext()
        with unlabeled:
            model.update(xs, ys)
        with unlabeled:
            IncrementalLearner.update(twin, xs, ys)
        assert state(model) == state(twin)
    assert calls == []
    model, twin = learner(4, 0.5), learner(4, 0.5)
    model.update(x, y)
    IncrementalLearner.update(twin, x, y)
    assert calls == [1] and state(model) == state(twin)
    assert type(model.t) is int and type(model.t) is type(twin.t)


@pytest.mark.parametrize("name", ["pegasos", "lsqsgd", "kmeans"])
def test_compiled_feed_refuses_arrays_of_the_wrong_shape_or_type(kernels, name):
    """The kernel takes its width and row count from x; rows, labels or
    state that do not match them are a ValueError, not a read past an
    array's end.  k-means reads no labels."""
    stream = SplitMix64Stream(5)
    if name == "kmeans":
        models = [OnlineKMeans(3, 2)]
        x, y = stream.normal_array(18).reshape(6, 3), None
    else:
        models, rows = _distinct_models(name, 1, 3, stream, 0, False)
        x, y = rows(6)
    wide = np.ascontiguousarray(np.hstack([x, x]))
    cases = [(wide, y), (x.astype(np.float32), y), (np.asfortranarray(x), y)]
    if y is None:
        cases.append((x[0], y))
    else:
        cases += [(x, y[:-1]), (x, np.append(y, 1.0)), (x[0], y[:1]), (x, y.astype(np.float32)),
                  (x, y.tolist())]
    for args in cases:
        state = COMPILED[type(models[0])](models[0])
        before = [array.tobytes() for array in state.arrays]
        with pytest.raises(ValueError, match="agree in shape and dtype"):
            state.feed_rows(kernels, *args)
        assert [array.tobytes() for array in state.arrays] == before
    state = COMPILED[type(models[0])](models[0])
    state.arrays[-1] = state.arrays[-1].astype(np.float64)  # the step count
    with pytest.raises(ValueError):
        state.feed_rows(kernels, x, y)


def _kmeans_state(model):
    return [np.asarray(getattr(model, name)).tobytes()
            for name in ("centers", "counts", "n_centers")]


# `kernels` is the same object in every example
@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 2**64 - 1),
       st.sampled_from(["grid", "normal", "mixed"]), st.integers(0, 12), st.sampled_from([0, 1, 2]))
def test_compiled_kmeans_is_the_scalar_update_byte_for_byte(kernels, k, d, seed, values, trained,
                                                            nans):
    """A k-means model fed ragged batches, each of at least `min_rows`
    rows through the compiled `feed_rows` and each shorter one through Python, ends
    every batch with the bytes of a model fed the same rows one at a time
    by `_update_point`.  The model starts fresh, partly seeded or trained;
    batches may be shorter than K; points on a grid of halves repeat,
    while seeding too, and tie distances exactly; mixed points span 16
    orders of magnitude, where any other summation order changes bits;
    and NaN coordinates make NaN distances, of which the first wins.  Of
    two NaNs of other bits meeting in an update, numpy keeps the one its
    loop puts first, so the kernel leaves such a batch to Python."""
    stream = SplitMix64Stream(seed)
    n = 40
    if values == "grid":
        x = np.array([stream.randbelow(5) for _ in range(n * d)], dtype=np.float64) * 0.5 - 1.0
    else:
        x = stream.normal_array(n * d)
        if values == "mixed":
            x *= 10.0 ** np.array([stream.randbelow(17) for _ in range(n * d)], dtype=np.float64)
            x *= 1e-8
    x = x.reshape(n, d)
    for sign in (1.0, -1.0)[:nans] if d else ():
        x[stream.randbelow(n), stream.randbelow(d)] = np.copysign(np.nan, sign)
    model = OnlineKMeans(dim=d, n_clusters=k)
    for row in x[:trained]:
        model._update_point(row, None)
    twin = model.clone()
    first = trained
    while first < n:
        batch = x[first:first + stream.randbelow(k + 4)]
        first += len(batch)
        took = _update_compiled(model, batch, None)
        assert took == (len(batch) >= KMeansFeed.min_rows) or (nans == 2 and not took)
        if not took:
            IncrementalLearner.update(model, batch)
        for row in batch:
            twin._update_point(row, None)
        assert _kmeans_state(model) == _kmeans_state(twin)
    assert type(model.n_centers) is int


def test_kmeans_update_runs_compiled_only_for_what_the_python_update_would_give(kernels,
                                                                                monkeypatch):
    """`update` takes the kernel for a plain batch of enough rows, labeled
    or not, and leaves every other batch, model or subclass to Python."""
    calls = []
    feed = kernels.feed_rows
    monkeypatch.setattr(kernels, "feed_rows", lambda *args: calls.append(1) or feed(*args))
    stream = SplitMix64Stream(4)
    n = KMeansFeed.min_rows + 3
    x = stream.normal_array(n * 3).reshape(n, 3)

    class Sub(OnlineKMeans):
        pass

    def model_with(**state):
        model = OnlineKMeans(3, 2)
        for name, value in state.items():
            setattr(model, name, value)
        return model

    def overlapping():  # the centers are the batch's last two rows
        shared = x.copy()
        return model_with(centers=shared[n - 2:]), shared, None

    for case in [
        lambda: (OnlineKMeans(3, 2), x[:KMeansFeed.min_rows - 1], None),  # too few rows
        lambda: (OnlineKMeans(3, 2), np.asfortranarray(x), None),
        lambda: (OnlineKMeans(3, 2), x.astype(np.float32), None),
        lambda: (OnlineKMeans(3, 2), x, np.zeros(n + 1)),  # the Python update raises
        lambda: (Sub(3, 2), x, None),
        lambda: (model_with(n_centers=np.int64(0)), x, None),
        lambda: (model_with(counts=np.zeros(2, dtype=np.int32)), x, None),
        overlapping,
        lambda: (OnlineKMeans(4, 2), x, None),  # a model wider than the data
    ]:
        outcomes = []
        for update in (OnlineKMeans.update, IncrementalLearner.update):
            model, xs, ys = case()
            try:
                update(model, xs, ys)
                outcomes.append((_kmeans_state(model), type(model.n_centers)))
            except Exception as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1]
    assert calls == []
    for rows in (np.asfortranarray(x), x.astype(np.float32), x[0]):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            KMeansFeed.feed_model(kernels, OnlineKMeans(3, 2), rows, None)
    for ys in (None, np.zeros(n)):
        model, twin = OnlineKMeans(3, 2), OnlineKMeans(3, 2)
        model.update(x, ys)
        IncrementalLearner.update(twin, x, ys)
        assert _kmeans_state(model) == _kmeans_state(twin)
        assert type(model.n_centers) is int
    assert calls == [1, 1]


def test_fortran_ordered_centers_run_compiled_to_the_python_bits(kernels):
    """The copy the kernels read is C-ordered whatever the order of the
    model's arrays: k-means centers in Fortran order train, compiled, to
    the bits of the Python update."""
    x = SplitMix64Stream(6).normal_array(150).reshape(50, 3)
    model, twin = OnlineKMeans(3, 2), OnlineKMeans(3, 2)
    model.centers, twin.centers = np.asfortranarray(model.centers), np.asfortranarray(twin.centers)
    assert _update_compiled(model, x, None) == (kernels.kmeans() is not None)
    IncrementalLearner.update(twin, x)
    assert _kmeans_state(model) == _kmeans_state(twin)


def test_compiled_updates_serve_only_the_exact_built_in_types():
    assert COMPILED == {Pegasos: PegasosFeed, LsqSgd: LsqSgdFeed, OnlineKMeans: KMeansFeed}


def test_lockstep_kernels_serve_only_the_exact_built_in_types():
    """Every compiled kernel, `tree_feed` among them, reads a copy of one
    model's state, by exact type: the copy holds the model's bits in
    arrays of its own, and stores back Python scalars of the model's
    types.  (The name is that of the test of the level loop's stacks,
    which `tree_feed` replaced.)"""
    assert set(COMPILED) == {Pegasos, LsqSgd, OnlineKMeans}
    assert all(issubclass(feed, _Feed) for feed in COMPILED.values())
    model = Pegasos(dim=3)
    model.update(np.ones((2, 3)), np.array([1.0, -1.0]))
    state = COMPILED[Pegasos](model)
    assert not any(np.may_share_memory(array, model.v) for array in state.arrays)
    twin = model.fresh()
    state.store(twin)
    assert type(twin) is Pegasos and (twin.a, twin.t) == (model.a, model.t)
    assert type(twin.t) is int and type(twin.a) is float
    assert twin.v.tobytes() == model.v.tobytes() and twin.v is not state.arrays[1]


# ---------------------------------------------------------------------------
# Incremental-vs-batch stability trend (regression learner; the classifier
# counterpart is exercised by the acceptance suite)


def test_lsqsgd_stability_gap_shrinks_with_n():
    plan = ExperimentPlan(learner="lsqsgd", loss="squared", k_values=(2,), base_seed=0)
    rows = list(stability_rows(plan, "regression:d=20,noise=0.1", [500, 8000], 50, 10))
    gap_small = float(rows[0]["mean_gap"])
    gap_large = float(rows[1]["mean_gap"])
    assert gap_large < gap_small
