"""Learner unit tests: hand-applied update rules, state preservation,
order-insensitivity, and the incremental-vs-batch gap trend."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecv import (
    LabelRequiredError,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    Pegasos,
    RecordingLearner,
    UntrainedModelError,
)
from treecv.harness import ExperimentPlan, stability_rows
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
    elif name == "mean":
        model = MeanPredictor(dim=d)
        y = stream.normal_array(len(x))
    else:
        model = RecordingLearner(LsqSgd(dim=d, alpha=0.1))
        y = stream.normal_array(len(x))
    model.update(x[:trained], None if y is None else y[:trained])
    return model


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["pegasos", "lsqsgd", "kmeans", "mean", "recording"]),
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


def test_recording_learner_clone_carries_its_own_history():
    model = RecordingLearner(MeanPredictor(1))
    x = np.arange(4.0).reshape(4, 1)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model.update(x[:2], y[:2])
    twin = model.clone()
    model.update(x[2:], y[2:])
    assert len(model.seen) == 4
    assert len(twin.seen) == 2
    assert twin.predict(np.zeros(1)) == 1.5
    assert model.predict(np.zeros(1)) == 2.5


# ---------------------------------------------------------------------------
# Incremental-vs-batch stability trend (regression learner; the classifier
# counterpart is exercised by the acceptance suite)


def test_lsqsgd_stability_gap_shrinks_with_n():
    plan = ExperimentPlan(learner="lsqsgd", loss="squared", k_values=(2,), base_seed=0)
    rows = list(stability_rows(plan, "regression:d=20,noise=0.1", [500, 8000], 50, 10))
    gap_small = float(rows[0]["mean_gap"])
    gap_large = float(rows[1]["mean_gap"])
    assert gap_large < gap_small
