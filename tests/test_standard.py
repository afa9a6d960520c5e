"""Standard k-repetition CV and the explicit-order replay oracle."""

import multiprocessing
import statistics
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treecv import (
    Dataset,
    InvalidChunkError,
    InvalidOrderError,
    Loss,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    Pegasos,
    QUANTIZATION,
    SQUARED,
    TreeCvConfig,
    ZERO_ONE,
    brute_force_oracle,
    partition,
    standard_cv,
    synth_blobs,
    synth_classification,
    synth_regression,
    tree_cv,
    tree_feed_orders,
)
from treecv import _native, forkjoin, standard
from treecv.rng import SplitMix64Stream, derive_seed

from test_tree import LevelCounts, refuse_forks, tree_feed_runs


def regression_data(n, seed=0):
    stream = SplitMix64Stream(seed)
    return Dataset(stream.normal_array(n).reshape(n, 1), stream.uniform_array(n))


def test_two_chunk_mean_predictor_matches_tree():
    ds = Dataset(np.zeros((2, 1)), np.array([1.0, 3.0]))
    part = partition(ds, 2)
    report = standard_cv(lambda: MeanPredictor(1), ds, part, SQUARED)
    assert report.estimate == 4.0
    tree = tree_cv(lambda: MeanPredictor(1), ds, part, SQUARED)
    assert report.fold_scores == tree.fold_scores


def test_point_update_count_is_n_times_k_minus_one():
    ds = regression_data(4)
    report = standard_cv(lambda: MeanPredictor(1), ds, partition(ds, 4), SQUARED)
    assert report.counters.point_updates == 12
    assert report.counters.snapshots == 0
    assert report.counters.nodes_visited == 0
    ds = regression_data(30, seed=1)
    report = standard_cv(lambda: MeanPredictor(1), ds, partition(ds, 5), SQUARED)
    assert report.counters.point_updates == 30 * 4
    assert report.counters.evaluations == 30


def test_loocv_constant_outcomes_score_zero():
    ds = Dataset(np.zeros((5, 1)), np.full(5, 3.0))
    report = standard_cv(lambda: MeanPredictor(1), ds, partition(ds, 5), SQUARED)
    assert report.estimate == 0.0


def test_randomized_ordering_is_seeded_and_deterministic():
    ds = synth_classification(50, 4, margin=0.2, noise=0.1, seed=9)
    part = partition(ds, 5)
    factory = lambda: Pegasos(4, 1e-2)
    a = standard_cv(factory, ds, part, ZERO_ONE, "randomized", seed=3)
    b = standard_cv(factory, ds, part, ZERO_ONE, "randomized", seed=3)
    c = standard_cv(factory, ds, part, ZERO_ONE, "randomized", seed=4)
    assert a.comparable() == b.comparable()
    assert a.fold_scores != c.fold_scores


@st.composite
def folds_of(draw):
    n = draw(st.integers(2, 400))
    k = draw(st.integers(2, n))
    return n, k, draw(st.integers(0, k - 1))


@settings(max_examples=150, deadline=None)
@given(folds_of(), st.integers(0, 2**64 - 1))
def test_fold_orders_are_the_training_rows_shuffled_as_a_list(n_k_fold, seed):
    """A randomized fold's order, drawn in the kernel where it loads, is
    its training rows in dataset order shuffled as a list by
    `SplitMix64Stream.shuffle`."""
    n, k, fold = n_k_fold
    part = partition(n, k)
    sl = part.chunk_slice(fold)
    rows = [r for r in range(n) if not sl.start <= r < sl.stop]
    assert standard._train_rows(part, fold).tolist() == rows
    SplitMix64Stream(derive_seed(seed, standard.TAG_FOLD_SHUFFLE, fold)).shuffle(rows)
    for kernels in {_native.kernels(), None}:
        order = standard._shuffled_order(kernels, part, seed, fold)
        assert order.dtype == np.int64 and order.tolist() == rows


def test_randomized_folds_are_the_oracles_replay_of_their_orders():
    ds = synth_classification(90, 4, margin=0.2, noise=0.1, seed=14)
    part = partition(ds, 7)
    factory = lambda: Pegasos(4, 1e-2)
    report = standard_cv(factory, ds, part, ZERO_ONE, "randomized", seed=6)
    orders = [standard._shuffled_order(None, part, 6, fold).tolist() for fold in range(7)]
    replay = brute_force_oracle(factory, ds, part, ZERO_ONE, orders, seed=6)
    assert replay.fold_scores == report.fold_scores


def test_parallel_folds_are_bit_identical_to_sequential(fork_always):
    ds = synth_classification(60, 4, margin=0.2, noise=0.1, seed=10)
    part = partition(ds, 6)
    factory = lambda: Pegasos(4, 1e-2)
    for ordering in ("fixed", "randomized"):
        seq = standard_cv(factory, ds, part, ZERO_ONE, ordering, seed=8)
        par = standard_cv(factory, ds, part, ZERO_ONE, ordering, seed=8, max_workers=4)
        assert seq.comparable() == par.comparable()
        assert (seq.counters.forks, par.counters.forks) == (0, 3)


# ---------------------------------------------------------------------------
# The fork rule of `forkjoin`: this process runs the first fold group; a
# later group forks where the Python loop runs it, or where its point
# updates exceed `forkjoin.FORK_FLOOR`, and else runs here too.


def recording_forks(monkeypatch):
    """The (first, last) folds of each group `standard_cv` forks, in order."""
    forked, fork = [], forkjoin.fork

    def recording(fn, *args):
        forked.append((args[-1].start, args[-1].stop - 1))
        return fork(fn, *args)

    monkeypatch.setattr(forkjoin, "fork", recording)
    return forked


def group_updates(part, first, last):
    """The point updates of folds first..last: n less each fold's chunk."""
    return sum(part.n - part.chunk_size(fold) for fold in range(first, last + 1))


@pytest.mark.parametrize("workers", [2, 4])
def test_a_compiled_run_below_the_floor_forks_no_group(monkeypatch, workers):
    """Below the floor a 2- or 4-worker run of a learner that
    `standard_feed` takes forks no worker and gives the sequential
    report."""
    if not tree_feed_runs():
        pytest.skip("no compiled standard_feed here: the Python loop forks")
    data = synth_regression(4000, 5, seed=3)
    part = partition(data, 10)
    assert group_updates(part, 0, 9) <= forkjoin.FORK_FLOOR
    sequential = standard_cv(lambda: LsqSgd(5, 0.05), data, part, SQUARED, "randomized", 3)
    refuse_forks(monkeypatch)
    report = standard_cv(lambda: LsqSgd(5, 0.05), data, part, SQUARED, "randomized", 3, workers)
    assert report.comparable() == sequential.comparable()
    assert report.counters.forks == sequential.counters.forks == 0


@pytest.mark.parametrize("group", [(2, 3), (4, 5)])
def test_a_later_group_forks_from_the_first_update_past_the_floor(monkeypatch, group):
    """With the floor one below a later group's point updates that group
    forks, and at its updates it runs in this process; each other group
    forks exactly where its own updates exceed the floor."""
    data = synth_regression(63, 2, seed=5)  # chunks of 11, 11, 11, 10, 10, 10 rows
    part = partition(data, 6)
    groups = [(0, 1), (2, 3), (4, 5)]
    updates = group_updates(part, *group)
    sequential = standard_cv(lambda: LsqSgd(2, 0.01), data, part, SQUARED)
    for floor in (updates - 1, updates):
        with monkeypatch.context() as patch:
            patch.setattr(forkjoin, "FORK_FLOOR", floor)
            forked = recording_forks(patch)
            report = standard_cv(lambda: LsqSgd(2, 0.01), data, part, SQUARED, max_workers=3)
        due = [g for g in groups[1:]
               if group_updates(part, *g) > floor or not tree_feed_runs()]
        assert (group in forked) == (floor < updates or not tree_feed_runs())
        assert forked == due and report.counters.forks == len(due)
        assert report.comparable() == sequential.comparable()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("floor, calls", [(104, [(0, 1), (2, 3), (4, 5)]),
                                          (105, [(0, 3), (4, 5)]), (106, [(0, 5)])])
def test_the_groups_run_here_make_one_standard_feed_call(floor, calls, kernels, monkeypatch,
                                                         tmp_path):
    """Groups of 104, 105 and 106 point updates: each stretch of groups
    that this process runs is one `standard_feed` call, and each forked
    group one call in its worker."""
    if kernels.tree() is None:
        pytest.skip(f"no compiled standard_feed here: {_native.reason()}")
    data = synth_regression(63, 2, seed=5)  # chunks of 11, 11, 11, 10, 10, 10 rows
    part = partition(data, 6)
    sequential = standard_cv(lambda: LsqSgd(2, 0.01), data, part, SQUARED)
    monkeypatch.setattr(forkjoin, "FORK_FLOOR", floor)
    feeds = FeedCalls(kernels, monkeypatch, tmp_path / "calls")
    report = standard_cv(lambda: LsqSgd(2, 0.01), data, part, SQUARED, max_workers=3)
    assert feeds.folds() == calls and report.counters.forks == len(calls) - 1
    assert report.comparable() == sequential.comparable()


def test_the_python_loop_forks_every_group_but_the_first_whatever_the_floor(monkeypatch):
    """A subclass of a compiled type runs the Python loop, whose groups
    after the first fork however few point updates they make."""
    data = synth_regression(60, 3, seed=8)
    part = partition(data, 6)
    sequential = standard_cv(lambda: PlainLsqSgd(3, 0.1), data, part, SQUARED, "randomized", 4)
    monkeypatch.setattr(forkjoin, "FORK_FLOOR", 10**12)
    forked = recording_forks(monkeypatch)
    report = standard_cv(lambda: PlainLsqSgd(3, 0.1), data, part, SQUARED, "randomized", 4, 3)
    assert forked == [(2, 3), (4, 5)] and report.counters.forks == 2
    assert report.comparable() == sequential.comparable()


class FailingLsqSgd(LsqSgd):
    """Raises at its first update, naming the first row it was fed."""

    def update(self, x, y=None):
        raise ValueError(f"fed row {int(x[0, 0])} first")


def test_an_error_in_the_first_group_is_raised_first_and_every_worker_reaped(monkeypatch):
    """Every fold fails; the first group's error, from this process, is
    the one raised, as in sequential order, after the forked groups'
    workers, which failed too, have been reaped."""
    data = Dataset(np.arange(9.0).reshape(9, 1), np.zeros(9))  # x holds the row number
    part = partition(data, 3)
    forked = recording_forks(monkeypatch)
    with pytest.raises(ValueError, match="^fed row 3 first$"):  # fold 0 is fed rows 3..8
        standard_cv(lambda: FailingLsqSgd(1, 0.1), data, part, SQUARED, max_workers=3)
    assert forked == [(1, 1), (2, 2)]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Replay oracle


def test_oracle_replays_tree_feeding_order_bit_exactly():
    ds = synth_classification(48, 4, margin=0.2, noise=0.1, seed=12)
    part = partition(ds, 8)
    factory = lambda: Pegasos(4, 1e-2)
    tree = tree_cv(factory, ds, part, ZERO_ONE, TreeCvConfig(seed=5))
    orders = tree_feed_orders(part, "fixed", seed=5)
    replay = brute_force_oracle(factory, ds, part, ZERO_ONE, orders, seed=5)
    assert replay.fold_scores == tree.fold_scores


def test_oracle_with_dataset_order_equals_standard_fixed():
    ds = synth_classification(30, 3, margin=0.2, noise=0.1, seed=13)
    part = partition(ds, 5)
    factory = lambda: Pegasos(3, 1e-2)
    orders = [
        [i for i in range(ds.n) if not (part.chunk_slice(f).start <= i < part.chunk_slice(f).stop)]
        for f in range(5)
    ]
    oracle = brute_force_oracle(factory, ds, part, ZERO_ONE, orders, seed=2)
    std = standard_cv(factory, ds, part, ZERO_ONE, "fixed", seed=2)
    assert oracle.fold_scores == std.fold_scores


def test_oracle_orders_do_not_matter_for_order_insensitive_learner():
    ds = regression_data(20, seed=3)
    part = partition(ds, 4)
    base = [
        [i for i in range(ds.n) if not (part.chunk_slice(f).start <= i < part.chunk_slice(f).stop)]
        for f in range(4)
    ]
    reversed_orders = [list(reversed(order)) for order in base]
    a = brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, base)
    b = brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, reversed_orders)
    assert a.fold_scores == b.fold_scores


def test_oracle_rejects_bad_orders():
    ds = regression_data(10, seed=4)
    part = partition(ds, 2)
    good = tree_feed_orders(part)
    with pytest.raises(InvalidOrderError):
        brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, good[:1])
    bad = [list(order) for order in good]
    bad[0][0] = bad[0][1]  # duplicate index: not a permutation
    with pytest.raises(InvalidOrderError):
        brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, bad)
    held_out = [list(order) for order in good]
    held_out[1][0] = part.chunk_slice(1).start  # includes a held-out row
    with pytest.raises(InvalidOrderError):
        brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, held_out)
    # rows far out of range, in and past int64: rejected before any counting
    for far in ([2**40], np.array([2**40], dtype=np.int64), [2**70],
                np.array([2**63], dtype=np.uint64), [-1]):
        out_of_range = [list(order) for order in good]
        out_of_range[0][:1] = far
        with pytest.raises(InvalidOrderError, match="not a permutation"):
            brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, out_of_range)


def test_oracle_takes_integer_indices_only():
    ds = Dataset(np.arange(4.0).reshape(4, 1), np.arange(4.0))
    part = partition(ds, 2)
    with pytest.raises(InvalidOrderError):
        brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED,
                           [[2.9, 3.4], [0.5, 1.99]])
    numpy_ints = [np.array([3, 2]), np.array([1, 0], dtype=np.int32)]
    replay = brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED, numpy_ints)
    assert replay.fold_scores == standard_cv(lambda: MeanPredictor(1), ds, part,
                                             SQUARED).fold_scores


@pytest.mark.parametrize("learner", [MeanPredictor, Pegasos])
def test_the_factory_builds_one_model_per_fold(learner):
    ds = Dataset(regression_data(10).x, np.where(np.arange(10) % 2, 1.0, -1.0))
    part = partition(ds, 5)
    built = []

    def factory():
        built.append(learner(1))
        return built[-1]

    for ordering in ("fixed", "randomized"):
        built.clear()
        standard_cv(factory, ds, part, ZERO_ONE, ordering, seed=3)
        assert len(built) == part.k
    built.clear()
    brute_force_oracle(factory, ds, part, ZERO_ONE, tree_feed_orders(part))
    assert len(built) == part.k


def test_partition_dataset_mismatch():
    ds = regression_data(10)
    part = partition(12, 3)
    with pytest.raises(InvalidChunkError):
        standard_cv(lambda: MeanPredictor(1), ds, part, SQUARED)
    with pytest.raises(InvalidChunkError):
        brute_force_oracle(lambda: MeanPredictor(1), ds, part, SQUARED,
                           tree_feed_orders(part))


# ---------------------------------------------------------------------------
# The compiled folds: one `standard_feed` call per forked fold group, and
# one per stretch of groups this process runs


class PlainPegasos(Pegasos):
    """A subclass with the base rule; it runs the Python loop."""


class PlainLsqSgd(LsqSgd):
    """A subclass with the base rule; it runs the Python loop."""


class PlainOnlineKMeans(OnlineKMeans):
    """A subclass with the base rule; it runs the Python loop."""


# each learner: the exact type, its subclass, its data and its loss
LEARNERS = {
    "pegasos": (Pegasos, PlainPegasos, 0.05, lambda n, d, seed: synth_classification(
        n, d, margin=0.1, noise=0.2, seed=seed), ZERO_ONE),
    "lsqsgd": (LsqSgd, PlainLsqSgd, 0.3, lambda n, d, seed: synth_regression(n, d, seed=seed),
               SQUARED),
    "kmeans": (OnlineKMeans, PlainOnlineKMeans, 3, lambda n, d, seed: Dataset(
        synth_blobs(n, d, 3, seed=seed).x), QUANTIZATION),
}


def report_bytes(report):
    """The report's scores and estimate as bytes, and the rest of it."""
    scores = struct.pack(f"<{len(report.fold_scores) + 1}d", *report.fold_scores,
                         report.estimate)
    return scores, report.counters, report.scheduler, report.ordering, report.seed


class FeedCalls:
    """Records the folds of each `standard_feed` call, in this process and
    in forked workers, in a file."""

    def __init__(self, kernels, monkeypatch, path):
        self.path, feed = path, kernels.standard_feed
        path.write_text("")

        def logged(*args):
            with open(path, "a") as log:
                log.write(f"{args[1]} {args[2]}\n")
            return feed(*args)

        monkeypatch.setattr(kernels, "standard_feed", logged)

    def folds(self):
        """The (first, last) fold of each call so far, sorted."""
        return sorted(tuple(map(int, line.split())) for line in self.path.read_text().split("\n")
                      if line)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.data(), st.sampled_from(sorted(LEARNERS)),
       st.sampled_from(["fixed", "randomized"]), st.sampled_from([0, 2]),
       st.integers(1, 11), st.integers(0, 2**64 - 1))
def test_compiled_folds_report_what_the_python_loop_reports(n, data, name, ordering, workers,
                                                            d, seed):
    """On ragged chunks and in LOOCV, at 0 and 2 workers, the exact
    learners' report is, byte for byte, that of a subclass with the same
    rule, which runs the Python loop; with the fork floor at 0 both fork
    alike."""
    k = data.draw(st.one_of(st.just(n), st.integers(2, n)), label="k")
    learner, plain, param, make, loss = LEARNERS[name]
    dataset = make(n, d, seed % 1000)
    part = partition(dataset, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forkjoin, "FORK_FLOOR", 0)
        reports = [standard_cv(lambda: cls(d, param), dataset, part, loss, ordering, seed,
                               workers)
                   for cls in (learner, plain)]
    assert report_bytes(reports[0]) == report_bytes(reports[1])
    assert reports[0].counters.forks == reports[1].counters.forks


def test_a_factory_whose_models_differ_runs_the_python_loop(kernels, monkeypatch, tmp_path):
    """A factory whose `lam` changes from call to call gives folds of other
    states than the first's, so no `standard_feed` call runs them, and
    the report is the Python loop's."""
    calls = FeedCalls(kernels, monkeypatch, tmp_path / "calls")
    dataset = synth_classification(80, 4, margin=0.1, noise=0.2, seed=3)
    part = partition(dataset, 8)

    def varying(cls):
        lams = iter(np.linspace(0.01, 0.5, 8))
        return lambda: cls(4, float(next(lams)))

    for ordering in ("fixed", "randomized"):
        report = standard_cv(varying(Pegasos), dataset, part, ZERO_ONE, ordering, 5)
        python = standard_cv(varying(PlainPegasos), dataset, part, ZERO_ONE, ordering, 5)
        assert report_bytes(report) == report_bytes(python)
    assert calls.folds() == []
    standard_cv(lambda: Pegasos(4, 0.01), dataset, part, ZERO_ONE)
    assert calls.folds() == ([(0, 7)] if kernels.tree() is not None else [])


@pytest.mark.parametrize("errstate", [{}, {"over": "raise"}])
def test_an_overflow_in_standard_feed_raises_or_warns_as_the_python_loop(errstate, kernels):
    """An update that overflows raises a flag in `standard_feed`, and the
    Python loop reruns the folds: under np.errstate(over="raise") the
    error is the Python loop's, else its warnings and report."""
    dataset = synth_regression(60, 3, seed=4)
    x = dataset.x.copy()
    x[[10, 40]] = 1e160
    dataset = Dataset(x, dataset.y)

    def outcome(cls):
        with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
            warnings.simplefilter("always")
            try:
                report = report_bytes(standard_cv(lambda: cls(3, 0.1), dataset,
                                                  partition(dataset, 6), SQUARED, "randomized", 2))
            except FloatingPointError as err:
                report = str(err)
        return report, [str(w.message) for w in caught]

    compiled = outcome(LsqSgd)
    assert compiled == outcome(PlainLsqSgd)
    assert (compiled[0] == "overflow encountered in multiply") == bool(errstate)
    assert bool(compiled[1]) != bool(errstate)


@pytest.mark.parametrize("workers, groups", [(0, [(0, 9)]), (2, [(0, 9)])])
def test_the_standard10_shape_runs_one_standard_feed_call_per_fold_group(workers, groups, kernels,
                                                                        monkeypatch, tmp_path):
    """The standard10 benchmark shape (randomized OnlineKMeans, k=10, d=10)
    makes one `standard_feed` call per fold group, in this process or in
    each forked worker; below the fork floor no group forks, and the two
    groups of 2 workers, both run here, are one call.  The oracle's
    explicit orders make none."""
    if kernels.kmeans() is None or kernels.tree() is None:
        pytest.skip(f"OnlineKMeans or standard_feed runs in Python here: {_native.reason()}")
    calls = FeedCalls(kernels, monkeypatch, tmp_path / "calls")
    dataset = Dataset(synth_blobs(200, 10, 5, seed=8).x)
    part = partition(dataset, 10)
    factory = lambda: OnlineKMeans(10, 5)
    report = standard_cv(factory, dataset, part, QUANTIZATION, "randomized", 8, workers)
    assert calls.folds() == groups
    orders = [standard._shuffled_order(None, part, 8, fold).tolist() for fold in range(10)]
    replay = brute_force_oracle(factory, dataset, part, QUANTIZATION, orders, seed=8)
    assert calls.folds() == groups and replay.fold_scores == report.fold_scores


def refusing(loss, row):
    """`loss` without its batch form, raising on each point equal to `row`
    an error that names the prediction, the point and its label."""
    refused = row.tobytes()

    def fn(prediction, x, y):
        if x.tobytes() == refused:
            raise ValueError(f"refused {prediction!r} at {x.tolist()} labeled {y!r}")
        return loss.fn(prediction, x, y)

    return Loss(f"{loss.name}-refusing", fn)


def outcome(run):
    """The report of `run()`, or the type and message of what it raised."""
    try:
        return run().comparable()
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 40), st.data(), st.sampled_from(sorted(LEARNERS)),
       st.sampled_from(["fixed", "randomized"]), st.sampled_from([0, 2]),
       st.integers(1, 11), st.integers(0, 2**64 - 1))
def test_a_per_row_loss_runs_compiled_to_the_python_paths_report(monkeypatch, tmp_path, n, data,
                                                                  name, ordering, workers, d,
                                                                  seed):
    """An exact learner under `Loss(name, fn)` of its built-in loss, which
    has no batch form, runs each sequential tree by one `tree_feed` call
    and its folds by one `standard_feed` call, to the report of its
    subclass, which runs the Python paths, and of the built-in loss: on
    ragged chunks and in LOOCV, both orderings, at 0 and 2 workers.  A
    per-row loss that raises on a row raises as it does under the
    subclass, in both schedulers."""
    k = data.draw(st.one_of(st.just(n), st.integers(2, n)), label="k")
    learner, plain, param, make, loss = LEARNERS[name]
    dataset = make(n, d, seed % 1000)
    part = partition(dataset, k)
    per_row = Loss(loss.name, loss.fn)
    if data.draw(st.booleans(), label="raises"):
        per_row = refusing(loss, dataset.x[data.draw(st.integers(0, n - 1), label="row")])
    loaded = _native.kernels()
    compiled = tree_feed_runs() and (name != "kmeans" or loaded.kmeans() is not None)
    groups = [(0, k - 1)]  # n <= 40 is below the fork floor: 2 workers' groups run here as one
    config = TreeCvConfig(ordering, workers, seed)
    with monkeypatch.context() as patch:  # one example's counts
        counts = LevelCounts(patch)
        calls = FeedCalls(loaded, patch, tmp_path / "calls") if loaded is not None else None
        trees = [outcome(lambda: tree_cv(lambda: cls(d, param), dataset, part, each, config))
                 for cls, each in ((learner, per_row), (plain, per_row), (learner, loss))]
        tree_subtrees = counts.subtrees
        folds = [outcome(lambda: standard_cv(lambda: cls(d, param), dataset, part, each, ordering,
                                             seed, workers))
                 for cls, each in ((learner, per_row), (plain, per_row), (learner, loss))]
        fold_calls = calls.folds() if calls is not None else []
    assert trees[0] == trees[1] and folds[0] == folds[1]
    if per_row.fn is loss.fn:
        assert trees[0] == trees[2] and folds[0] == folds[2]
        # the per-row run's calls, then the built-in loss run's
        assert (tree_subtrees, counts.failures) == (2 * compiled, 0)
        assert counts.visits == 0 or not compiled
        assert fold_calls == sorted(2 * compiled * groups)
    else:
        assert trees[0][0] is ValueError and folds[0][0] is ValueError
        assert (tree_subtrees > 0) == compiled and bool(fold_calls) == compiled


# ---------------------------------------------------------------------------
# Variance of the randomized estimate decays with k


def test_randomized_estimate_variance_decays_with_k():
    data = synth_classification(300, 5, margin=0.2, noise=0.15, seed=1)
    medians = []
    for k in (5, 10, 100):
        part = partition(data, k)
        stds = []
        for group in range(5):
            estimates = []
            for rep in range(12):
                seed = derive_seed(1, group, rep)
                report = standard_cv(lambda: Pegasos(5, 1e-2), data, part, ZERO_ONE,
                                     "randomized", seed)
                estimates.append(report.estimate)
            mean = sum(estimates) / len(estimates)
            stds.append((sum((e - mean) ** 2 for e in estimates) / len(estimates)) ** 0.5)
        medians.append(statistics.median(stds))
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] < medians[0]
