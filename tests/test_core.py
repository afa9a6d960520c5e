"""Core types: partitions, losses, chunk evaluation, reports."""

import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecv import (
    Dataset,
    InvalidChunkError,
    InvalidFoldCountError,
    LabelRequiredError,
    Loss,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    Pegasos,
    QUANTIZATION,
    SQUARED,
    WorkCounters,
    Partition,
    TreeCvConfig,
    ZERO_ONE,
    evaluate_chunk,
    get_loss,
    partition,
    standard_cv,
    synth_classification,
    tree_cv,
)
from treecv.core import check_partition, make_report
from treecv.rng import SplitMix64Stream


def labeled(xs, ys):
    return Dataset(np.asarray(xs, dtype=float).reshape(len(xs), -1), np.asarray(ys, dtype=float))


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_rejects_nan_and_shape_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([1.0, np.inf]))


def test_dataset_is_immutable_and_duplicates_are_legal():
    ds = labeled([[1.0], [1.0]], [2.0, 2.0])
    assert ds.n == 2 and ds.dim == 1
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0
    assert ds.y[0] == 2.0


def test_unlabeled_dataset():
    ds = Dataset(np.zeros((3, 2)))
    assert not ds.labeled
    assert ds.y is None


# ---------------------------------------------------------------------------
# Partition


def test_partition_sizes_examples():
    assert partition(4, 4).sizes() == [1, 1, 1, 1]
    assert partition(10, 3).sizes() == [4, 3, 3]
    assert partition(6, 3).sizes() == [2, 2, 2]


def test_partition_invalid_fold_counts():
    with pytest.raises(InvalidFoldCountError):
        partition(10, 1)
    with pytest.raises(InvalidFoldCountError):
        partition(10, 11)
    with pytest.raises(InvalidFoldCountError, match="fold count k must be an integer"):
        partition(10, 2.5)
    with pytest.raises(InvalidFoldCountError, match="point count n must be an integer"):
        partition(10.0, 2)


def test_partition_property_disjoint_cover_balanced():
    stream = SplitMix64Stream(101)
    for _ in range(300):
        n = 2 + stream.randbelow(400)
        k = 2 + stream.randbelow(n - 1)
        part = partition(n, k)
        sizes = part.sizes()
        assert part.k == k
        assert sum(sizes) == n
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        assert list(part.bounds) == sorted(part.bounds)
        covered = [i for c in range(k) for i in range(*part.chunk_slice(c).indices(n))]
        assert covered == list(range(n))


def accumulated_bounds(n, k):
    """The bounds `partition` gave before it carried an array: chunk sizes
    ceil(n/k) then floor(n/k), summed by itertools.accumulate."""
    base, extra = divmod(n, k)
    sizes = itertools.chain(itertools.repeat(base + 1, extra), itertools.repeat(base, k - extra))
    return tuple(itertools.accumulate(sizes, initial=0))


@st.composite
def point_and_fold_counts(draw):
    """(n, k) with 2 <= k <= n: any k, k = n, or k dividing n, and n up
    to 2**63 - 1 where k is small."""
    shape = draw(st.sampled_from(["any", "loo", "divides", "huge"]))
    if shape == "divides":
        k = draw(st.integers(2, 300))
        return k * draw(st.integers(1, 300)), k
    if shape == "huge":
        n = draw(st.integers(2**40, 2**63 - 1))
        return n, draw(st.integers(2, 300))
    n = draw(st.integers(2, 3000))
    return n, n if shape == "loo" else draw(st.integers(2, n))


@given(point_and_fold_counts())
def test_partition_gives_the_accumulated_bounds_and_carries_them(counts):
    n, k = counts
    part = partition(n, k)
    assert part.bounds == accumulated_bounds(n, k)
    assert all(type(b) is int for b in part.bounds)
    carried = check_partition(part)
    assert carried is part._row_bounds and carried.dtype == np.int64
    assert not carried.flags.writeable and carried.tolist() == list(part.bounds)
    with pytest.raises(ValueError, match="read-only"):
        carried[0] = 1


def test_partition_rejects_a_point_count_beyond_int64():
    assert partition(2**63 - 1, 3).n == 2**63 - 1
    with pytest.raises(InvalidFoldCountError, match="below 2\\*\\*63"):
        partition(2**63, 3)


@pytest.mark.parametrize("duplicate", [
    lambda part: pickle.loads(pickle.dumps(part)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_a_pickled_or_copied_partition_still_checks_and_runs(duplicate):
    data = synth_classification(40, 3, margin=0.2, noise=0.1, seed=2)
    factory = lambda: Pegasos(3, 1e-2)  # noqa: E731
    config = TreeCvConfig("randomized", seed=3)
    for part in (partition(data, 40), partition(data, 7), Partition(partition(data, 7).bounds)):
        copied = duplicate(part)
        assert copied == part and copied.bounds == part.bounds
        bounds = check_partition(copied, data)
        assert not bounds.flags.writeable and bounds.tolist() == list(part.bounds)
        assert (copied._row_bounds is None) == (part._row_bounds is None)
        assert (tree_cv(factory, data, copied, ZERO_ONE, config).comparable()
                == tree_cv(factory, data, part, ZERO_ONE, config).comparable())


def test_a_replaced_partition_carries_no_array_and_is_checked_in_full():
    part = partition(10, 5)
    same = dataclasses.replace(part, bounds=part.bounds)
    assert same == part and same._row_bounds is None
    assert check_partition(same).tolist() == list(part.bounds)
    with pytest.raises(InvalidChunkError, match="strictly increase"):
        check_partition(dataclasses.replace(part, bounds=(0, 4, 4, 10)))
    with pytest.raises(ValueError):
        dataclasses.replace(part, _row_bounds=None)  # set by `partition` alone


@pytest.mark.parametrize("bounds", [(0, 5, 2**63), (0, 2**63, 2**64), (0, 2**63 - 1, 2**70)],
                         ids=["last", "middle", "far"])
def test_a_hand_built_bound_beyond_int64_is_an_invalid_chunk(bounds):
    with pytest.raises(InvalidChunkError, match="below 2\\*\\*63"):
        check_partition(Partition(bounds))
    with pytest.raises(InvalidChunkError):
        check_partition(Partition(bounds), Dataset(np.zeros((5, 1))))


# ---------------------------------------------------------------------------
# Losses


def test_zero_one_loss_is_binary():
    assert ZERO_ONE(1.0, None, 1.0) == 0.0
    assert ZERO_ONE(1.0, None, -1.0) == 1.0
    with pytest.raises(LabelRequiredError):
        ZERO_ONE(1.0, None, None)


def test_squared_loss():
    assert SQUARED(3.0, None, 1.0) == 4.0
    with pytest.raises(LabelRequiredError):
        SQUARED(0.0, None, None)


def test_quantization_loss_ignores_label():
    x = np.array([4.0])
    center = np.array([0.0])
    assert QUANTIZATION(center, x, None) == 16.0


@settings(deadline=None)
@given(st.integers(1, 60), st.integers(1, 30), st.integers(0, 2**64 - 1), st.integers(-6, 6))
def test_batch_losses_equal_their_pointwise_forms(n, d, seed, scale):
    stream = SplitMix64Stream(seed)
    x = stream.normal_array(n * d).reshape(n, d) * 10.0 ** scale
    centers = stream.normal_array(n * d).reshape(n, d)
    signs = np.where(stream.uniform_array(n) < 0.5, 1.0, -1.0)
    y = np.where(stream.uniform_array(n) < 0.5, signs, -signs)
    outcomes = stream.normal_array(n) * 10.0 ** scale
    for loss, predictions, labels in ((ZERO_ONE, signs, y), (SQUARED, outcomes, y),
                                      (QUANTIZATION, centers, None)):
        batch = loss.batch(predictions, x, labels)
        assert batch.dtype == np.float64 and batch.shape == (n,)
        for i in range(n):
            yi = None if labels is None else float(labels[i])
            value = np.float64(loss(predictions[i], x[i], yi))
            assert value.tobytes() == batch[i].tobytes()


def test_labeled_batch_losses_need_labels():
    for loss in (ZERO_ONE, SQUARED):
        with pytest.raises(LabelRequiredError):
            loss.batch(np.zeros(1), np.zeros((1, 1)), None)


@pytest.mark.parametrize("name", ["pegasos", "lsqsgd", "kmeans", "mean"])
@pytest.mark.parametrize("k", [2, 7, 60])
def test_evaluate_chunk_pointwise_loss_equals_the_batched_path(name, k):
    stream = SplitMix64Stream(4242)
    x = stream.normal_array(60 * 12).reshape(60, 12)
    labels = np.where(x[:, 0] + 0.5 * stream.normal_array(60) > 0, 1.0, -1.0)
    model, loss = {
        "pegasos": (Pegasos(12, 1e-2), ZERO_ONE),
        "lsqsgd": (LsqSgd(12, 0.05), SQUARED),
        "kmeans": (OnlineKMeans(12, 3), QUANTIZATION),
        "mean": (MeanPredictor(12), SQUARED),
    }[name]
    ds = Dataset(x, None if loss is QUANTIZATION else labels)
    model.update(ds.x[:40], None if ds.y is None else ds.y[:40])
    pointwise = Loss(loss.name, loss.fn)
    part = partition(ds, k)
    for i in range(k):
        chunk = part.chunk_slice(i)
        batched = evaluate_chunk(model, ds, chunk, loss)
        assert evaluate_chunk(model, ds, chunk, pointwise) == batched


def test_get_loss_names():
    assert get_loss("zeroone") is ZERO_ONE
    with pytest.raises(KeyError):
        get_loss("absolute")


# ---------------------------------------------------------------------------
# evaluate_chunk


class ConstantClassifier(Pegasos):
    def predict(self, x):
        return 1.0


def test_evaluate_chunk_constant_classifier():
    # hand count: predictions +1 against labels [+1, -1, +1] miss 1 of 3
    ds = labeled([[0.0], [0.0], [0.0]], [1.0, -1.0, 1.0])
    model = ConstantClassifier(1)
    counters = WorkCounters()
    score = evaluate_chunk(model, ds, slice(0, 3), ZERO_ONE, counters)
    assert score == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert counters.evaluations == 3


def test_evaluate_chunk_zero_loss_case():
    ds = labeled([[1.0], [2.0]], [1.0, 1.0])
    model = ConstantClassifier(1)
    assert evaluate_chunk(model, ds, slice(0, 2), ZERO_ONE) == 0.0


def test_evaluate_chunk_mean_predictor_squared():
    # (3 - 1)^2 = 4 by direct computation
    model = MeanPredictor(1)
    model.update(np.zeros((1, 1)), np.array([3.0]))
    ds = labeled([[0.0]], [1.0])
    assert evaluate_chunk(model, ds, slice(0, 1), SQUARED) == 4.0


def test_evaluate_chunk_rejects_empty_chunk():
    ds = labeled([[0.0]], [1.0])
    with pytest.raises(InvalidChunkError):
        evaluate_chunk(MeanPredictor(1), ds, slice(0, 0), SQUARED)


def test_evaluate_chunk_does_not_mutate_model():
    model = MeanPredictor(1)
    model.update(np.zeros((2, 1)), np.array([1.0, 5.0]))
    before = (list(model._partials), model.count)
    ds = labeled([[0.0], [0.0]], [2.0, 4.0])
    evaluate_chunk(model, ds, slice(0, 2), SQUARED)
    assert (list(model._partials), model.count) == before


# ---------------------------------------------------------------------------
# Reports


def test_report_estimate_is_mean_of_fold_scores():
    stream = SplitMix64Stream(55)
    for _ in range(50):
        k = 2 + stream.randbelow(40)
        scores = [stream.uniform() for _ in range(k)]
        report = make_report(scores, WorkCounters(), 0.0, "tree", "fixed", 0)
        assert report.estimate == pytest.approx(sum(scores) / k, rel=1e-12)
        assert report.estimate == math.fsum(scores) / k


@pytest.mark.parametrize("signs, value, estimate", [
    ([1.0, 1.0, -1.0, -1.0], math.inf, math.nan),
    ([1.0] * 4, 8.99e307, math.inf),
], ids=["both-infinities", "overflowing-sum"])
@pytest.mark.parametrize("learner", [LsqSgd, MeanPredictor])
def test_scores_that_fsum_refuses_still_make_a_report(signs, value, estimate, learner):
    """Fold scores holding inf and -inf, or summing beyond the largest
    double, make `math.fsum` raise; the report keeps them and takes the
    plain sum over k as its estimate: nan or inf.  Each fold's loss is
    `value` times the sign of its row's first feature (leave-one-out: a
    chunk of two such rows would overflow its own sum)."""
    x = np.array(signs)[:, None] * np.ones((1, 2))
    data = Dataset(x, np.linspace(-1.0, 1.0, x.shape[0]))
    part = partition(data, 4)
    loss = Loss("signed", lambda p, xi, y: value * xi[0],
                lambda p, x, y: value * x[:, 0])
    factory = lambda: learner(2, 0.1) if learner is LsqSgd else learner(2)  # noqa: E731
    expected = tuple(value * sign for sign in signs)
    reports = [tree_cv(factory, data, part, loss, TreeCvConfig(max_workers=workers))
               for workers in (0, 2)]
    reports += [standard_cv(factory, data, part, loss, max_workers=workers)
                for workers in (0, 2)]
    for report in reports:
        assert report.fold_scores == expected
        assert report.estimate == estimate or math.isnan(estimate) and math.isnan(report.estimate)


def test_work_counters_compare_without_their_forks_and_merge_them():
    counters = WorkCounters(point_updates=3, forks=1)
    counters.merge(WorkCounters(point_updates=2, forks=2))
    assert counters.forks == 3 and counters.point_updates == 5
    assert counters == WorkCounters(point_updates=5)
