"""Scheduler semantics: recursion structure, feeding orders, counters,
hold-out correctness, determinism, and fork-join execution."""

import math
import multiprocessing

import numpy as np
import pytest

from treecv import (
    Dataset,
    InvalidChunkError,
    MeanPredictor,
    Pegasos,
    RecordingLearner,
    SQUARED,
    TreeCvConfig,
    UpdateFailedError,
    ZERO_ONE,
    brute_force_oracle,
    loocv,
    partition,
    standard_cv,
    synth_classification,
    synth_regression,
    tree_cv,
    tree_feed_orders,
)
from treecv.rng import SplitMix64Stream


def mean_factory(dim=1):
    return lambda: MeanPredictor(dim)


def regression_data(n, seed=0):
    stream = SplitMix64Stream(seed)
    x = stream.normal_array(n).reshape(n, 1)
    y = stream.uniform_array(n)
    return Dataset(x, y)


# ---------------------------------------------------------------------------
# Recursion structure (size-four leave-one-out tree)


def test_loocv_size_four_visits_expected_ranges_in_order():
    ds = regression_data(4)
    traces = []
    report = loocv(mean_factory(), ds, SQUARED, trace_sink=traces)
    ranges = [(t.start, t.end) for t in traces]
    assert ranges == [(0, 3), (0, 1), (0, 0), (1, 1), (2, 3), (2, 2), (3, 3)]
    assert report.counters.nodes_visited == 7
    assert report.counters.point_updates == 8  # each point fed at depth 2


def test_loocv_size_four_first_fold_feeding_order():
    # fold 0's model is trained on the second half first, then point 1
    part = partition(4, 4)
    orders = tree_feed_orders(part)
    assert orders[0] == [2, 3, 1]
    assert orders[1] == [2, 3, 0]
    assert orders[2] == [0, 1, 3]
    assert orders[3] == [0, 1, 2]


def test_midpoint_split_for_three_chunks():
    ds = regression_data(6)
    traces = []
    tree_cv(mean_factory(), ds, partition(ds, 3), SQUARED, trace_sink=traces)
    ranges = [(t.start, t.end, t.mid) for t in traces]
    # root splits 3 chunks into first two and last one
    assert ranges[0] == (0, 2, 1)
    assert (0, 1, 0) in ranges and (2, 2, 2) in ranges


def test_node_trace_invariants_random_shapes():
    stream = SplitMix64Stream(3)
    for _ in range(20):
        n = 4 + stream.randbelow(60)
        k = 2 + stream.randbelow(n - 2)
        ds = regression_data(n, seed=n)
        part = partition(ds, k)
        traces = []
        tree_cv(mean_factory(), ds, part, SQUARED, trace_sink=traces)
        assert len(traces) == 2 * k - 1
        for t in traces:
            assert t.mid == (t.start + t.end) // 2
            if t.start != t.end:
                assert t.start <= t.mid < t.end
                left = part.bounds[t.end + 1] - part.bounds[t.mid + 1]
                right = part.bounds[t.mid + 1] - part.bounds[t.start]
                assert (t.points_fed_left, t.points_fed_right) == (left, right)
            else:
                assert (t.points_fed_left, t.points_fed_right) == (0, 0)


# ---------------------------------------------------------------------------
# Counter invariants


@pytest.mark.parametrize("k", list(range(2, 65)))
def test_node_and_snapshot_counts(k):
    n = 2 * k
    ds = regression_data(n, seed=k)
    report = tree_cv(mean_factory(), ds, partition(ds, k), SQUARED)
    assert report.counters.nodes_visited == 2 * k - 1
    assert report.counters.snapshots == k - 1


def test_work_bound_and_power_of_two_equality():
    for k in (2, 4, 8, 16):
        for b in (1, 3):
            n = b * k
            ds = regression_data(n, seed=n + k)
            report = tree_cv(mean_factory(), ds, partition(ds, k), SQUARED)
            assert report.counters.point_updates == n * int(math.log2(k))
            assert report.counters.model_transfers == k * int(math.log2(k))
    stream = SplitMix64Stream(8)
    for _ in range(25):
        n = 4 + stream.randbelow(120)
        k = 2 + stream.randbelow(n - 2)
        ds = regression_data(n, seed=n * 31 + k)
        report = tree_cv(mean_factory(), ds, partition(ds, k), SQUARED)
        assert report.counters.point_updates <= n * math.ceil(math.log2(k))
        assert report.counters.model_transfers <= k * math.ceil(math.log2(k))
        assert report.counters.evaluations == n


def test_counters_do_not_depend_on_ordering():
    ds = regression_data(37)
    part = partition(ds, 7)
    fixed = tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(ordering="fixed"))
    shuffled = tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(ordering="randomized"))
    assert fixed.counters == shuffled.counters


# ---------------------------------------------------------------------------
# Correctness against the standard baseline


def test_two_chunk_mean_predictor_hand_example():
    ds = Dataset(np.zeros((2, 1)), np.array([1.0, 3.0]))
    part = partition(ds, 2)
    report = tree_cv(mean_factory(), ds, part, SQUARED)
    assert report.fold_scores == (4.0, 4.0)
    assert report.estimate == 4.0


def test_loocv_mean_predictor_hand_example():
    # outcomes [0, 0, 0, 4]: three folds score (4/3)^2, one scores 16
    ds = Dataset(np.zeros((4, 1)), np.array([0.0, 0.0, 0.0, 4.0]))
    report = loocv(mean_factory(), ds, SQUARED)
    assert report.estimate == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_loocv_two_points_equals_two_fold():
    ds = regression_data(2)
    by_loocv = loocv(mean_factory(), ds, SQUARED)
    by_tree = tree_cv(mean_factory(), ds, partition(ds, 2), SQUARED)
    assert by_loocv.fold_scores == by_tree.fold_scores


def test_order_insensitive_learner_matches_standard_cv_exactly():
    stream = SplitMix64Stream(17)
    for _ in range(25):
        n = 4 + stream.randbelow(100)
        k = 2 + stream.randbelow(n - 2)
        ds = regression_data(n, seed=n * 7 + k)
        part = partition(ds, k)
        for ordering in ("fixed", "randomized"):
            tree = tree_cv(mean_factory(), ds, part, SQUARED,
                           TreeCvConfig(ordering=ordering, seed=k))
            std = standard_cv(mean_factory(), ds, part, SQUARED, ordering, seed=k)
            for a, b in zip(tree.fold_scores, std.fold_scores):
                assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# Hold-out correctness and feeding orders (spy learner)


def spy_runs(ds, part, ordering, seed):
    histories = {}
    factory = lambda: RecordingLearner(MeanPredictor(ds.dim))
    tree_cv(factory, ds, part, SQUARED, TreeCvConfig(ordering=ordering, seed=seed),
            on_leaf=lambda fold, model: histories.__setitem__(fold, list(model.seen)))
    return histories


@pytest.mark.parametrize("ordering", ["fixed", "randomized"])
def test_each_fold_model_sees_exactly_the_other_chunks(ordering):
    stream = SplitMix64Stream(23)
    for _ in range(12):
        n = 4 + stream.randbelow(40)
        k = 2 + stream.randbelow(n - 2)
        ds = regression_data(n, seed=n * 13 + k)
        part = partition(ds, k)
        histories = spy_runs(ds, part, ordering, seed=n)
        orders = tree_feed_orders(part, ordering, seed=n)
        for fold in range(k):
            seen = histories[fold]
            held_out = part.chunk_slice(fold)
            expected_rows = [i for i in range(n) if not (held_out.start <= i < held_out.stop)]
            # the multiset of points seen is exactly the other chunks
            seen_sorted = sorted((x[0], y) for x, y in seen)
            expected_sorted = sorted(
                (ds.x[i][0], float(ds.y[i])) for i in expected_rows
            )
            assert seen_sorted == expected_sorted
            # and the order matches the published feeding order
            assert [y for _, y in seen] == [float(ds.y[i]) for i in orders[fold]]
            assert sorted(orders[fold]) == expected_rows


def test_randomized_feed_is_deterministic_per_seed_and_range():
    part = partition(12, 6)
    a = tree_feed_orders(part, "randomized", seed=5)
    b = tree_feed_orders(part, "randomized", seed=5)
    c = tree_feed_orders(part, "randomized", seed=6)
    assert a == b
    assert a != c
    fixed = tree_feed_orders(part, "fixed")
    for fold in range(6):
        assert sorted(a[fold]) == sorted(fixed[fold])


def test_single_point_chunks_identical_under_both_orderings():
    ds = regression_data(2)
    part = partition(ds, 2)
    fixed = tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(ordering="fixed"))
    rand = tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(ordering="randomized"))
    assert fixed.fold_scores == rand.fold_scores


# ---------------------------------------------------------------------------
# Determinism and parallelism


def test_equal_seeds_give_bit_identical_reports():
    ds = synth_classification(96, 6, margin=0.2, noise=0.1, seed=2)
    part = partition(ds, 12)
    factory = lambda: Pegasos(6, 1e-2)
    runs = [
        tree_cv(factory, ds, part, ZERO_ONE, TreeCvConfig(ordering="randomized", seed=9)).comparable()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_fork_join_matches_sequential_bit_exactly(workers):
    ds = synth_classification(130, 6, margin=0.2, noise=0.1, seed=4)
    part = partition(ds, 13)
    factory = lambda: Pegasos(6, 1e-2)
    sequential = tree_cv(factory, ds, part, ZERO_ONE,
                         TreeCvConfig(ordering="randomized", seed=31))
    forked = tree_cv(factory, ds, part, ZERO_ONE,
                     TreeCvConfig(ordering="randomized", seed=31, max_workers=workers))
    assert forked.comparable() == sequential.comparable()

    stream = SplitMix64Stream(workers)
    for _ in range(2):
        n = 4 + stream.randbelow(36)
        k = 2 + stream.randbelow(n - 2)
        ds = synth_classification(n, 6, margin=0.2, noise=0.1, seed=n * 5 + k)
        part = partition(ds, k)
        for ordering in ("fixed", "randomized"):
            seq_traces, par_traces = [], []
            sequential = tree_cv(factory, ds, part, ZERO_ONE,
                                 TreeCvConfig(ordering=ordering, seed=k), trace_sink=seq_traces)
            forked = tree_cv(factory, ds, part, ZERO_ONE,
                             TreeCvConfig(ordering=ordering, seed=k, max_workers=workers),
                             trace_sink=par_traces)
            assert forked.comparable() == sequential.comparable()
            assert par_traces == seq_traces
            c = forked.counters
            assert (c.nodes_visited, c.snapshots, c.evaluations) == (2 * k - 1, k - 1, n)
            assert c.point_updates == sum(t.points_fed_left + t.points_fed_right
                                          for t in par_traces)
            orders = tree_feed_orders(part, ordering, seed=k)
            replay = brute_force_oracle(factory, ds, part, ZERO_ONE, orders, seed=k)
            assert forked.fold_scores == replay.fold_scores


class DropsHalf(MeanPredictor):
    """Mean predictor that keeps each point with probability 1/2 (the
    first always), drawn from a stream it keeps in its state."""

    def __init__(self, dim=1, seed=0):
        super().__init__(dim)
        self.seed = seed
        self.rng = SplitMix64Stream(seed)
        self.draws = 0

    def _update_point(self, x, y):
        self.draws += 1
        if self.rng.next_u64() >> 63 or self.count == 0:
            super()._update_point(x, y)

    def fresh(self):
        return DropsHalf(self.dim, self.seed)

    def clone(self):
        twin = super().clone()
        twin.rng, twin.draws = SplitMix64Stream(self.rng.state), self.draws
        return twin


@pytest.mark.parametrize("ordering", ["fixed", "randomized"])
def test_learner_with_its_own_stream_matches_oracle_and_fork_join(ordering):
    factory = lambda: DropsHalf(1, seed=77)
    stream = SplitMix64Stream(13)
    for _ in range(4):
        n = 4 + stream.randbelow(40)
        k = 2 + stream.randbelow(n - 1)
        ds = regression_data(n, seed=n * 7 + k)
        part = partition(ds, k)
        leaves = {}
        report = tree_cv(factory, ds, part, SQUARED, TreeCvConfig(ordering=ordering, seed=k),
                         on_leaf=lambda fold, model: leaves.update({fold: model}))
        orders = tree_feed_orders(part, ordering, seed=k)
        replay = brute_force_oracle(factory, ds, part, SQUARED, orders, seed=k)
        assert report.fold_scores == replay.fold_scores
        forked = tree_cv(factory, ds, part, SQUARED,
                         TreeCvConfig(ordering=ordering, seed=k, max_workers=2))
        assert forked.comparable() == report.comparable()
        # every fold model drew once per training point, and dropped some
        assert [leaves[i].draws for i in range(k)] == [n - size for size in part.sizes()]
        assert any(m.count < m.draws for m in leaves.values())


def test_fork_join_preserves_trace_order():
    ds = regression_data(32)
    part = partition(ds, 8)
    seq_traces, par_traces = [], []
    tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(seed=1), trace_sink=seq_traces)
    tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(seed=1, max_workers=4),
            trace_sink=par_traces)
    assert seq_traces == par_traces


# ---------------------------------------------------------------------------
# Validation and failure paths


def test_config_validation():
    with pytest.raises(ValueError):
        TreeCvConfig(ordering="sorted").validate()


def test_forked_execution_rejects_what_it_cannot_honour():
    ds = regression_data(8)
    part = partition(ds, 4)
    with pytest.raises(ValueError, match="at most 64"):
        TreeCvConfig(max_workers=65).validate()
    with pytest.raises(ValueError, match="at most 64"):
        standard_cv(mean_factory(), ds, part, SQUARED, max_workers=1000)
    with pytest.raises(ValueError, match="on_leaf"):
        tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(max_workers=2),
                on_leaf=lambda fold, model: None)
    assert multiprocessing.active_children() == []


def test_partition_dataset_mismatch():
    ds = regression_data(10)
    with pytest.raises(InvalidChunkError):
        tree_cv(mean_factory(), ds, partition(12, 3), SQUARED)


def test_update_failure_is_annotated_with_chunk_range():
    ds = Dataset(np.zeros((4, 1)))  # unlabeled: the mean predictor must fail
    part = partition(ds, 4)
    with pytest.raises(UpdateFailedError) as info:
        tree_cv(mean_factory(), ds, part, SQUARED)
    assert info.value.chunk_range == (2, 3)  # the root's first feed


class FailsOnMarkedRow(MeanPredictor):
    """Mean predictor whose update raises on an outcome of exactly -1."""

    def _update_point(self, x, y):
        if y == -1.0:
            raise RuntimeError("marked row")
        super()._update_point(x, y)

    def fresh(self):
        return FailsOnMarkedRow(self.dim)


def test_clone_keeps_a_subclass_update_rule():
    # With n=k=4, row 0 is first fed to the clone that node (0,1) makes
    # for its right branch; a clone that lost the subclass would train on
    # it without failing.
    ds = Dataset(np.zeros((4, 1)), np.array([-1.0, 0.5, 0.25, 0.75]))
    with pytest.raises(UpdateFailedError) as info:
        tree_cv(lambda: FailsOnMarkedRow(1), ds, partition(ds, 4), SQUARED, TreeCvConfig())
    assert info.value.chunk_range == (0, 0)


def test_worker_only_failure_reaches_the_caller_with_its_chunk_range():
    # With k=2 the root's worker feeds chunk 0 and the parent chunk 1, so
    # only the worker meets the marked row.
    ds = Dataset(np.zeros((4, 1)), np.array([0.5, -1.0, 0.25, 0.75]))
    part = partition(ds, 2)
    with pytest.raises(UpdateFailedError) as info:
        tree_cv(lambda: FailsOnMarkedRow(1), ds, part, SQUARED, TreeCvConfig(max_workers=2))
    assert info.value.chunk_range == (0, 0)
    assert "marked row" in str(info.value)
    assert multiprocessing.active_children() == []


def test_left_branch_failure_wins_over_the_workers():
    # With k=2 both branches meet a marked row; the parent's left branch
    # feeds chunk 1, and its failure is the one a sequential run raises.
    ds = Dataset(np.zeros((4, 1)), np.array([-1.0, 0.5, -1.0, 0.75]))
    part = partition(ds, 2)
    with pytest.raises(UpdateFailedError) as info:
        tree_cv(lambda: FailsOnMarkedRow(1), ds, part, SQUARED, TreeCvConfig(max_workers=2))
    assert info.value.chunk_range == (1, 1)
    assert multiprocessing.active_children() == []
