"""Scheduler semantics: recursion structure, feeding orders, counters,
hold-out correctness, determinism, and fork-join execution."""

import dataclasses
import math
import multiprocessing
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treecv import (
    Dataset,
    InvalidChunkError,
    InvalidFoldCountError,
    Loss,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    Partition,
    Pegasos,
    QUANTIZATION,
    SQUARED,
    TreeCvConfig,
    UntrainedModelError,
    UpdateFailedError,
    WorkCounters,
    ZERO_ONE,
    brute_force_oracle,
    loocv,
    partition,
    standard_cv,
    synth_blobs,
    synth_classification,
    synth_regression,
    tree_cv,
    tree_feed_orders,
)
from treecv import _native, forkjoin, rng, tree
from treecv.core import chunk_scores, make_report
from treecv.learners import COMPILED, _Feed
from treecv.rng import SplitMix64Stream, derive_seed

from test_rng import scalar_shuffle, state_before


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


class Recorder(MeanPredictor):
    """Mean predictor that logs every point it is fed and, each time it
    scores a chunk, files itself in `scored` under the chunk's rows.  A
    clone carries its own copy of the log."""

    def __init__(self, dim=1, scored=None):
        super().__init__(dim)
        self.scored = {} if scored is None else scored
        self.seen = []

    def _update_point(self, x, y):
        self.seen.append((x.copy(), y))
        super()._update_point(x, y)

    def predict_many(self, x):
        self.scored[x.tobytes()] = self
        return super().predict_many(x)

    def fresh(self):
        return Recorder(self.dim, self.scored)

    def clone(self):
        twin = super().clone()
        twin.seen = list(self.seen)
        return twin


def leaf_models(scored, ds, part):
    """The model filed for each fold's chunk, in fold order."""
    return [scored[ds.x[part.chunk_slice(i)].tobytes()] for i in range(part.k)]


def spy_runs(ds, part, ordering, seed):
    scored = {}
    tree_cv(lambda: Recorder(ds.dim, scored), ds, part, SQUARED,
            TreeCvConfig(ordering=ordering, seed=seed))
    return [model.seen for model in leaf_models(scored, ds, part)]


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


def test_kmeans_fork_join_and_oracle_replay_equal_sequential(fork_always):
    """k-means runs the recursion, whose `update` runs compiled: forked
    runs of either scheduler equal sequential ones, and the oracle replay
    of the tree's feeding orders gives its fold scores."""
    data = synth_blobs(150, 5, 4, seed=6)
    factory = lambda: OnlineKMeans(5, 4)
    for k in (150, 13):
        part = partition(data, k)
        for ordering in ("fixed", "randomized"):
            config = TreeCvConfig(ordering=ordering, seed=k)
            sequential = tree_cv(factory, data, part, QUANTIZATION, config)
            forked = tree_cv(factory, data, part, QUANTIZATION,
                             TreeCvConfig(ordering=ordering, seed=k, max_workers=3))
            assert forked.comparable() == sequential.comparable()
            assert forked.counters.forks > 0 == sequential.counters.forks
            replay = brute_force_oracle(factory, data, part, QUANTIZATION,
                                        tree_feed_orders(part, ordering, seed=k))
            assert replay.fold_scores == sequential.fold_scores
            standard = standard_cv(factory, data, part, QUANTIZATION, ordering, seed=k)
            assert standard.comparable() == standard_cv(factory, data, part, QUANTIZATION,
                                                        ordering, seed=k,
                                                        max_workers=2).comparable()


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_fork_join_matches_sequential_bit_exactly(workers, fork_always):
    ds = synth_classification(130, 6, margin=0.2, noise=0.1, seed=4)
    part = partition(ds, 13)
    factory = lambda: Pegasos(6, 1e-2)
    sequential = tree_cv(factory, ds, part, ZERO_ONE,
                         TreeCvConfig(ordering="randomized", seed=31))
    forked = tree_cv(factory, ds, part, ZERO_ONE,
                     TreeCvConfig(ordering="randomized", seed=31, max_workers=workers))
    assert forked.comparable() == sequential.comparable()
    assert forked.counters.forks > 0

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
            assert forked.counters.forks > 0
            assert par_traces == seq_traces
            c = forked.counters
            assert (c.nodes_visited, c.snapshots, c.evaluations) == (2 * k - 1, k - 1, n)
            assert c.point_updates == sum(t.points_fed_left + t.points_fed_right
                                          for t in par_traces)
            orders = tree_feed_orders(part, ordering, seed=k)
            replay = brute_force_oracle(factory, ds, part, ZERO_ONE, orders, seed=k)
            assert forked.fold_scores == replay.fold_scores


class DropsHalf(Recorder):
    """Mean predictor that keeps each point with probability 1/2 (the
    first always), drawn from a stream it keeps in its state."""

    def __init__(self, dim=1, seed=0, scored=None):
        super().__init__(dim, scored)
        self.seed = seed
        self.rng = SplitMix64Stream(seed)
        self.draws = 0

    def _update_point(self, x, y):
        self.draws += 1
        if self.rng.next_u64() >> 63 or self.count == 0:
            super()._update_point(x, y)

    def fresh(self):
        return DropsHalf(self.dim, self.seed, self.scored)

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
        scored = {}
        report = tree_cv(lambda: DropsHalf(1, seed=77, scored=scored), ds, part, SQUARED,
                         TreeCvConfig(ordering=ordering, seed=k))
        leaves = leaf_models(scored, ds, part)
        orders = tree_feed_orders(part, ordering, seed=k)
        replay = brute_force_oracle(factory, ds, part, SQUARED, orders, seed=k)
        assert report.fold_scores == replay.fold_scores
        forked = tree_cv(factory, ds, part, SQUARED,
                         TreeCvConfig(ordering=ordering, seed=k, max_workers=2))
        assert forked.comparable() == report.comparable()
        assert forked.counters.forks > 0
        # every fold model drew once per training point, and dropped some
        assert [m.draws for m in leaves] == [n - size for size in part.sizes()]
        assert any(m.count < m.draws for m in leaves)


def test_fork_join_preserves_trace_order():
    ds = regression_data(32)
    part = partition(ds, 8)
    seq_traces, par_traces = [], []
    tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(seed=1), trace_sink=seq_traces)
    forked = tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(seed=1, max_workers=4),
                     trace_sink=par_traces)
    assert seq_traces == par_traces
    assert forked.counters.forks == 3


# ---------------------------------------------------------------------------
# The fork floor: above the fork depth, a node whose model `tree_feed` takes
# forks only when its right branch makes more than `forkjoin.FORK_FLOOR` point
# updates; the Python recursion always forks there.


def refuse_forks(monkeypatch):
    def refused(*args):
        raise AssertionError("forked below the floor")
    monkeypatch.setattr(forkjoin, "fork", refused)


def right_updates_of_traces(b, s: int, e: int) -> int:
    """The point updates of node s..e's right branch, as the node traces
    of a run count them: the rows fed to it, and those its subtree's nodes
    feed their branches."""
    m = (s + e) // 2
    traces = tree._node_traces(b, m + 1, e, 1)
    return b[m + 1] - b[s] + sum(t.points_fed_left + t.points_fed_right for t in traces)


@given(st.lists(st.integers(1, 6), min_size=2, max_size=300), st.integers(-3, 3))
def test_the_right_branch_count_is_the_traced_one_and_decides_the_fork(sizes, offset):
    """`_right_updates` counts what the node traces of the right branch
    add up to, and `_right_pays` says whether that count is above the
    floor, at every floor near it."""
    bounds = tuple(int(b) for b in np.cumsum([0] + sizes))
    b = np.array(bounds, dtype=np.int64)
    k = len(sizes)
    for s, e in ((0, k - 1), (0, (k - 1) // 2), ((k - 1) // 2 + 1, k - 1)):
        if s == e:
            continue
        count = tree._right_updates(b, s, e)
        assert count == right_updates_of_traces(bounds, s, e)
        for floor in (count + offset, 0, count // 2, 2 * count):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(forkjoin, "FORK_FLOOR", floor)
                assert tree._right_pays(b, s, e) == (count > floor)


@pytest.mark.parametrize("workers", [2, 4])
def test_a_compiled_subtree_below_the_floor_runs_without_forking(monkeypatch, workers):
    """Below the floor a 2- or 4-worker run of a learner that `tree_feed`
    takes forks no worker: it gives the sequential report, and its
    counters say it made no fork."""
    if not tree_feed_runs():
        pytest.skip("no compiled tree_feed here: the Python recursion forks")
    data = synth_regression(4000, 5, seed=3)
    part = partition(data, 16)
    assert tree._right_updates(tree.check_partition(part), 0, 15) <= forkjoin.FORK_FLOOR
    config = TreeCvConfig(ordering="randomized", seed=3)
    sequential = tree_cv(lambda: LsqSgd(5, 0.05), data, part, SQUARED, config)
    refuse_forks(monkeypatch)
    counts = LevelCounts(monkeypatch)
    report = tree_cv(lambda: LsqSgd(5, 0.05), data, part, SQUARED,
                     dataclasses.replace(config, max_workers=workers))
    assert counts.ran(1)  # the whole tree, by one call in this process
    assert report.comparable() == sequential.comparable()
    assert report.counters.forks == sequential.counters.forks == 0


def test_a_compiled_subtree_forks_above_the_floor(monkeypatch):
    """Above the floor the root of a 2-worker run forks once, from the
    first point update past it: with the floor at the right branch's count
    it runs in this process, one update below it and at the package's
    floor (the right branch of k=16 feeds about 2n rows) it forks."""
    n = forkjoin.FORK_FLOOR // 2 + 16
    data = synth_regression(n, 2, seed=5)
    part = partition(data, 16)
    count = tree._right_updates(tree.check_partition(part), 0, 15)
    assert count > forkjoin.FORK_FLOOR
    sequential = tree_cv(lambda: LsqSgd(2, 0.01), data, part, SQUARED)
    for floor in (None, count - 1, count):
        with monkeypatch.context() as patch:
            if floor is not None:
                patch.setattr(forkjoin, "FORK_FLOOR", floor)
            forked = tree_cv(lambda: LsqSgd(2, 0.01), data, part, SQUARED,
                             TreeCvConfig(max_workers=2))
        assert forked.comparable() == sequential.comparable()
        assert forked.counters.forks == (floor != count or not tree_feed_runs())
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kernels_off", [False, True], ids=["subclass", "no-kernels"])
def test_the_python_recursion_forks_whatever_the_floor(monkeypatch, kernels_off):
    """A learner the recursion runs, a subclass of a compiled type or any
    learner without the kernels, forks at 2 workers however little work
    its branches hold."""
    if kernels_off:
        monkeypatch.setattr(_native, "kernels", lambda: None)
    data = synth_regression(64, 3, seed=8)
    part = partition(data, 8)
    learner = LsqSgd if kernels_off else PlainLsqSgd
    sequential = tree_cv(lambda: learner(3, 0.1), data, part, SQUARED)
    assert tree._right_updates(tree.check_partition(part), 0, 7) < forkjoin.FORK_FLOOR
    forked = tree_cv(lambda: learner(3, 0.1), data, part, SQUARED, TreeCvConfig(max_workers=2))
    assert forked.comparable() == sequential.comparable()
    assert (forked.counters.forks, sequential.counters.forks) == (1, 0)


# ---------------------------------------------------------------------------
# Shuffles: `tree_feed` shuffles every range of its subtree in C, and the
# Python recursion one range per node.  Tests whose names speak of a level
# table or loop keep the names they had when a compiled level loop ran
# these subtrees; each checks `tree_feed` now.


def tree_feed_runs() -> bool:
    """Whether subtrees of exact Pegasos, LsqSgd and OnlineKMeans models run
    by one `tree_feed` call here: only with the compiled kernels loaded
    and `tree_feed` checked, so not under `python_path` nor without a C
    compiler, where they run the recursion."""
    loaded = _native.kernels()
    return loaded is not None and loaded.tree() is not None


class ShuffleCounts:
    """Counts, in this process, the ranges `tree._fed_rows` shuffles one at
    a time for the Python recursion (`per_node`) and the subtrees that
    `tree_feed` runs, shuffling each range it feeds in C (`subtrees`)."""

    def __init__(self, monkeypatch):
        tree_feed_runs()  # the self-check runs `tree_feed` too: run it before counting
        self.per_node = 0
        self.subtrees = 0
        fed_rows, run_subtree = tree._fed_rows, _Feed.run_subtree

        def counted_fed_rows(*args):
            rows = fed_rows(*args)
            self.per_node += isinstance(rows, np.ndarray)
            return rows

        def counted_run_subtree(*args):
            self.subtrees += 1
            return run_subtree(*args)

        monkeypatch.setattr(tree, "_fed_rows", counted_fed_rows)
        monkeypatch.setattr(_Feed, "run_subtree", counted_run_subtree)


def multi_row_feeds(traces) -> int:
    return sum((t.points_fed_left > 1) + (t.points_fed_right > 1) for t in traces)


@pytest.mark.parametrize("seed", [7, 801])
def test_level_table_feeds_most_ranges_of_the_n120_loocv_gates(seed, monkeypatch):
    """The randomized n=120 LOOCV of tests/test_reference_digests.py
    (loocv_pegasos_randomized) and of the benchmark's tiny oracle gate
    (perfbench/workloads.py oracle_problems, run by the loocv-pegasos-rand
    smoke tests in perfbench/test_perfbench.py) has every range shuffled
    by one `tree_feed` call where the kernels load, so those digests and
    that oracle replay check its shuffle; without them, each range by
    `_fed_rows`."""
    counts = ShuffleCounts(monkeypatch)
    data = synth_classification(120, 20, margin=0.3, noise=0.1, seed=seed)
    part = partition(data, data.n)
    traces = []
    report = tree_cv(lambda: Pegasos(20, 1e-4), data, part, ZERO_ONE,
                     TreeCvConfig(ordering="randomized", seed=seed), trace_sink=traces)
    fed = multi_row_feeds(traces)
    assert (counts.subtrees, counts.per_node) == ((1, 0) if tree_feed_runs() else (0, fed))
    orders = tree_feed_orders(part, "randomized", seed)
    replay = brute_force_oracle(lambda: Pegasos(20, 1e-4), data, part, ZERO_ONE, orders, seed)
    assert report.fold_scores == replay.fold_scores


def test_level_table_under_fork_join_matches_sequential(monkeypatch, fork_always):
    # with 4 workers each of the four nodes at depth 2 runs one tree_feed
    # call, in its own process; the parent's own (rows 0-74) counts here,
    # after the parent's two Python feeds above it
    counts = ShuffleCounts(monkeypatch)
    data = synth_classification(300, 5, margin=0.2, noise=0.1, seed=6)
    part = partition(data, data.n)
    factory = lambda: Pegasos(5, 1e-3)
    forked = tree_cv(factory, data, part, ZERO_ONE,
                     TreeCvConfig(ordering="randomized", seed=12, max_workers=4))
    assert counts.subtrees == tree_feed_runs()
    assert (counts.per_node == 2) == tree_feed_runs()
    sequential = tree_cv(factory, data, part, ZERO_ONE,
                         TreeCvConfig(ordering="randomized", seed=12))
    assert forked.comparable() == sequential.comparable()
    assert forked.counters.forks == 3
    assert multiprocessing.active_children() == []


def test_level_table_on_a_ragged_partition_matches_the_oracle(monkeypatch):
    counts = ShuffleCounts(monkeypatch)
    stream = SplitMix64Stream(41)
    sizes = [1 + stream.randbelow(6) if stream.randbelow(3) else 1 for _ in range(48)]
    bounds = tuple(int(b) for b in np.cumsum([0] + sizes))
    data = synth_classification(bounds[-1], 4, margin=0.2, noise=0.1, seed=5)
    part = Partition(bounds)
    factory = lambda: Pegasos(4, 1e-3)
    report = tree_cv(factory, data, part, ZERO_ONE, TreeCvConfig(ordering="randomized", seed=3))
    assert counts.subtrees == tree_feed_runs()
    assert (counts.per_node == 0) == tree_feed_runs()
    assert len(set(sizes)) > 3
    orders = tree_feed_orders(part, "randomized", seed=3)
    replay = brute_force_oracle(factory, data, part, ZERO_ONE, orders, seed=3)
    assert report.fold_scores == replay.fold_scores


def test_the_level_loop_shuffles_every_range_the_recursion_shuffles(monkeypatch):
    """`tree_feed` shuffles every range of two or more rows of its subtree,
    however few a depth has, and the recursion shuffles the same ranges one
    at a time with `_fed_rows`; on a ragged partition both give the
    oracle's fold scores."""
    # 32 chunks of one row but three of two: depth 5 has 32 nodes and
    # feeds three ranges of two rows
    sizes = [2 if chunk in (3, 10, 20) else 1 for chunk in range(32)]
    part = Partition(tuple(int(b) for b in np.cumsum([0] + sizes)))
    data = synth_classification(part.n, 4, margin=0.2, noise=0.1, seed=8)
    config = TreeCvConfig(ordering="randomized", seed=8)
    orders = tree_feed_orders(part, "randomized", 8)
    for factory, compiled in ((lambda: Pegasos(4, 1e-3), tree_feed_runs()),
                              (lambda: PlainPegasos(4, 1e-3), False)):
        counts = ShuffleCounts(monkeypatch)
        traces = []
        report = tree_cv(factory, data, part, ZERO_ONE, config, trace_sink=traces)
        deepest = [t for t in traces if t.depth == 4 and t.start < t.end]
        assert 0 < multi_row_feeds(deepest) < len(deepest)
        fed = multi_row_feeds(traces)
        assert (counts.subtrees, counts.per_node) == ((1, 0) if compiled else (0, fed))
        assert report.fold_scores == brute_force_oracle(factory, data, part, ZERO_ONE,
                                                        orders).fold_scores


def test_the_recursion_shuffles_in_the_kernel_and_the_oracle_orders_do_not(monkeypatch):
    """Where the kernels load, every range of at least `rng._BULK_MIN`
    rows the recursion feeds is shuffled by one kernel call; the feed
    orders the oracle replays are drawn by the Python loop alone, and
    give the same fold scores."""
    calls = []
    loaded = _native.kernels()
    if loaded is not None:
        shuffle = loaded.shuffle
        monkeypatch.setattr(loaded, "shuffle",
                            lambda *args: calls.append(args[1]) or shuffle(*args))
    data = synth_classification(300, 4, margin=0.2, noise=0.1, seed=9)
    part = partition(data, data.n)
    factory = lambda: PlainPegasos(4, 1e-3)  # noqa: E731, runs the recursion
    traces = []
    report = tree_cv(factory, data, part, ZERO_ONE, TreeCvConfig(ordering="randomized", seed=9),
                     trace_sink=traces)
    fed = [size for t in traces for size in (t.points_fed_left, t.points_fed_right)]
    assert sorted(calls) == (sorted(size for size in fed if size >= rng._BULK_MIN)
                             if _native.kernels() is not None else [])
    calls.clear()
    orders = tree_feed_orders(part, "randomized", 9)
    assert calls == []
    assert report.fold_scores == brute_force_oracle(factory, data, part, ZERO_ONE,
                                                    orders).fold_scores


# ---------------------------------------------------------------------------
# tree_feed: a subtree of an exact Pegasos, LsqSgd or OnlineKMeans model in
# one compiled call.  Tests whose names speak of a level loop keep the names
# they had when a compiled level loop ran these subtrees; each checks
# `tree_feed` now, with the same oracle, digest and count assertions.


class LevelCounts:
    """Counts, in this process, the subtrees `tree_feed` runs
    (`_Feed.run_subtree` calls), those whose kernel failed, and the nodes
    of models of an exact compiled type that the Python recursion visits
    (`tree._visit`)."""

    def __init__(self, monkeypatch):
        tree_feed_runs()  # the self-check runs `tree_feed` too: run it before counting
        self.subtrees = self.failures = self.visits = 0
        run_subtree, visit = _Feed.run_subtree, tree._visit

        def counted_run_subtree(*args):
            self.subtrees += 1
            ran = run_subtree(*args)
            self.failures += ran is None
            return ran

        def counted_visit(run, s, e, model, *rest):
            self.visits += type(model) in COMPILED
            visit(run, s, e, model, *rest)

        monkeypatch.setattr(_Feed, "run_subtree", counted_run_subtree)
        monkeypatch.setattr(tree, "_visit", counted_visit)

    def ran(self, subtrees: int, visits: int = 0) -> bool:
        """Whether `tree_feed` ran `subtrees` subtrees without a failure and
        the recursion visited `visits` nodes of an exact compiled type,
        where `tree_feed` runs, and whether it never ran where it does
        not."""
        if not tree_feed_runs():
            return self.subtrees == 0
        return (self.subtrees, self.failures, self.visits) == (subtrees, 0, visits)


def values_loss(batch: bool) -> Loss:
    """A loss whose value is the prediction, with a batch form or
    without."""
    fn = lambda p, x, y: p  # noqa: E731
    return Loss("values", fn, fn if batch else None)


@given(st.sampled_from([np.float64, np.float32, np.int64, object]), st.data(), st.booleans())
def test_one_row_leaves_score_their_loss_as_fsum_does(dtype, data, batch):
    """`chunk_scores` gives the scores of one-row chunks from a batch loss
    plus 0.0, which is math.fsum([loss]) / 1 byte for byte: -0.0 becomes
    0.0, subnormals, infinities and NaNs keep their bits.  Losses given as
    float32, int64 or object arrays score as their `tolist()` did, and the
    report of the float64 array of scores is the report of their list.
    A per-row loss scores each of them as fsum does too."""
    if dtype is np.int64:
        losses = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
    else:
        width = 32 if dtype is np.float32 else 64
        losses = data.draw(st.lists(st.one_of(
            st.floats(width=width),
            st.sampled_from([-0.0, 5e-324 if width == 64 else 1e-45, -2.2e-308 if width == 64
                             else -1.2e-38, math.inf, -math.inf, math.nan])),
            min_size=1, max_size=40))
    n = len(losses)
    values = np.array(losses, dtype=dtype)
    fold_scores = np.zeros(n)  # the tree's, which it sets from them
    fold_scores[:] = chunk_scores(values_loss(batch), values, np.zeros((n, 0)), None,
                                  tuple(range(n + 1)), 0, n - 1)
    expected = [math.fsum([v]) / 1 for v in values.tolist()]
    pack = lambda scores: struct.pack(f"<{n}d", *scores)  # noqa: E731
    assert pack(fold_scores.tolist()) == pack(expected)

    def report(scores):
        """The report's scores and estimate as bytes: a plain sum's where
        fsum refuses inf + -inf or an overflowing sum."""
        made = make_report(scores, WorkCounters(), 0.0, "tree", "fixed", 0)
        assert all(type(score) is float for score in made.fold_scores)
        return pack(made.fold_scores), struct.pack("<d", made.estimate)

    assert report(fold_scores) == report(expected)


@given(st.lists(st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-0.0, 5e-324])),
                         min_size=1, max_size=5), min_size=1, max_size=12),
       st.integers(0, 3), st.booleans())
def test_ragged_chunks_score_their_loss_as_evaluate_chunk_does(chunks, s, batch):
    """`chunk_scores` scores each chunk of chunks s..e as `evaluate_chunk`
    does, the `math.fsum` of its losses over its size, byte for byte,
    under a batch loss and a per-row one."""
    sizes = [1] * s + [len(chunk) for chunk in chunks]
    bounds = tuple(int(b) for b in np.cumsum([0] + sizes))
    values = [v for chunk in chunks for v in chunk]
    scores = chunk_scores(values_loss(batch), np.array(values), np.zeros((len(values), 0)), None,
                          bounds, s, len(sizes) - 1)
    expected = [math.fsum(chunk) / len(chunk) for chunk in chunks]
    pack = lambda scores: struct.pack(f"<{len(scores)}d", *scores)  # noqa: E731
    assert pack(scores) == pack(expected)


class PlainPegasos(Pegasos):
    """A subclass with the base rule; it runs the recursion."""


class PlainLsqSgd(LsqSgd):
    """A subclass with the base rule; it runs the recursion."""


def batch_loss(name, batch):
    """A loss whose batch form is `batch` and whose pointwise form is row
    0 of a one-row batch."""
    return Loss(name, lambda p, x, y: batch(np.atleast_1d(p), x[None], y)[0], batch)


def cast_loss(loss, dtype):
    return batch_loss(f"{loss.name}-{np.dtype(dtype).name}",
                      lambda p, x, y: loss.batch(p, x, y).astype(dtype))


def constant_loss(value):
    return batch_loss(f"constant-{value}", lambda p, x, y: np.full(len(p), value))


@pytest.mark.parametrize("workers", [0, 2, 4])
@pytest.mark.parametrize("learner, plain, loss", [
    (LsqSgd, PlainLsqSgd, cast_loss(SQUARED, np.float32)),
    (Pegasos, PlainPegasos, cast_loss(ZERO_ONE, np.int64)),
    (LsqSgd, PlainLsqSgd, cast_loss(SQUARED, object)),
    (LsqSgd, PlainLsqSgd, constant_loss(-0.0)),
    (LsqSgd, PlainLsqSgd, constant_loss(math.inf)),
    (LsqSgd, PlainLsqSgd, constant_loss(math.nan)),
], ids=["float32", "int64", "object", "minus-zero", "inf", "nan"])
def test_array_fold_scores_report_what_the_recursions_list_reported(learner, plain, loss,
                                                                    workers, fork_always):
    """The tree's fold scores, a float64 array, give the report the
    list of `evaluate_chunk` scores gives, byte for byte, at 2 and 4
    workers as sequentially: for batch losses of float32, int64 and
    object arrays, and one-row leaves of -0.0, inf and nan, in LOOCV and
    on ragged chunks."""
    data = synth_regression(45, 3, noise=0.2, seed=4)
    if learner is Pegasos:
        data = synth_classification(45, 3, margin=0.1, noise=0.2, seed=4)
    pack = lambda r: struct.pack(f"<{len(r.fold_scores) + 1}d", *r.fold_scores,  # noqa: E731
                                 r.estimate)
    for part in (partition(data, data.n), partition(data, 7)):
        config = TreeCvConfig("randomized", max_workers=workers, seed=9)
        report = tree_cv(lambda: learner(3, 0.05), data, part, loss, config)
        sequential = tree_cv(lambda: learner(3, 0.05), data, part, loss,
                             dataclasses.replace(config, max_workers=0))
        recursion = tree_cv(lambda: plain(3, 0.05), data, part, loss,
                            dataclasses.replace(config, max_workers=0))
        assert all(type(score) is float for score in report.fold_scores)
        assert pack(report) == pack(sequential) == pack(recursion)
        assert report.counters == sequential.counters == recursion.counters
        assert (report.counters.forks > 0) == (workers > 1)
        if not math.isnan(report.estimate):
            assert report.comparable() == sequential.comparable()
    assert multiprocessing.active_children() == []


def test_a_complex_batch_loss_raises_as_the_recursion_does():
    """`float()` and `math.fsum` refuse complex losses, so the one-row
    leaves of `tree_feed` refuse them too, rather than casting them."""
    data = synth_regression(20, 2, seed=1)
    loss = batch_loss("complex", lambda p, x, y: SQUARED.batch(p, x, y) + 0j)
    for learner in (LsqSgd, PlainLsqSgd):
        with pytest.raises(TypeError):
            loocv(lambda: learner(2, 0.1), data, loss)


def loocv_pegasos_n120(seed):
    """The shape of loocv_pegasos_randomized in tests/test_reference_digests.py."""
    data = synth_classification(120, 20, margin=0.3, noise=0.1, seed=seed)
    return data, partition(data, data.n), lambda: Pegasos(20, 1e-4), ZERO_ONE


def kfold16_lsqsgd_n320(seed):
    """The shape of kfold16_lsqsgd_fixed in tests/test_reference_digests.py."""
    data = synth_regression(320, 20, seed=seed)
    return data, partition(data, 16), lambda: LsqSgd(20, 320 ** -0.5), SQUARED


class PlainOnlineKMeans(OnlineKMeans):
    """A subclass with the base rule; it runs the recursion."""


@pytest.mark.parametrize("shape, ordering", [(loocv_pegasos_n120, "randomized"),
                                             (kfold16_lsqsgd_n320, "fixed")])
def test_the_n120_loocv_and_n320_k16_digest_shapes_run_the_level_loop(shape, ordering,
                                                                      monkeypatch):
    """The tree digests of tests/test_reference_digests.py, and the tiny
    oracle gate of the loocv benchmark workload (perfbench/workloads.py,
    sequential at n=120), run the whole tree as one `tree_feed` call where
    the kernels load, so those digests and that oracle replay check it."""
    counts = LevelCounts(monkeypatch)
    data, part, factory, loss = shape(7)
    report = tree_cv(factory, data, part, loss, TreeCvConfig(ordering=ordering, seed=7))
    assert counts.ran(1)
    orders = tree_feed_orders(part, ordering, 7)
    assert report.fold_scores == brute_force_oracle(factory, data, part, loss, orders).fold_scores


def runs_alike(factory, plain, data, part, loss, config):
    """The exact type's report and node traces are those of a subclass
    with the same rule, which runs the recursion."""
    traces, plain_traces = [], []
    report = tree_cv(factory, data, part, loss, config, trace_sink=traces)
    recursion = tree_cv(plain, data, part, loss, config, trace_sink=plain_traces)
    assert report.comparable() == recursion.comparable()
    assert traces == plain_traces
    return report


@pytest.mark.parametrize("ordering", ["fixed", "randomized"])
def test_level_loop_reports_and_traces_are_the_recursions(ordering, monkeypatch):
    counts = LevelCounts(monkeypatch)
    stream = SplitMix64Stream(29)
    sizes = [1 + stream.randbelow(5) if stream.randbelow(3) else 1 for _ in range(70)]
    ragged = Partition(tuple(int(b) for b in np.cumsum([0] + sizes)))
    for n, part in ((120, None), (257, None), (ragged.n, ragged), (600, "k37")):
        config = TreeCvConfig(ordering=ordering, seed=n)
        data = synth_classification(n, 5, margin=0.2, noise=0.1, seed=n)
        part = (partition(data, 37) if part == "k37" else part) or partition(data, n)
        runs_alike(lambda: Pegasos(5, 1e-3), lambda: PlainPegasos(5, 1e-3), data, part,
                   ZERO_ONE, config)
        runs_alike(lambda: OnlineKMeans(5, 3), lambda: PlainOnlineKMeans(5, 3), Dataset(data.x),
                   part, QUANTIZATION, config)
        data = synth_regression(n, 5, seed=n)
        runs_alike(lambda: LsqSgd(5, 0.3), lambda: PlainLsqSgd(5, 0.3), data, part, SQUARED,
                   config)
    assert counts.ran(12)


def test_small_subtree_bound_runs_the_recursion_above_and_level_loops_below(monkeypatch,
                                                                          fork_always):
    """The recursion runs the nodes above the fork depth and `tree_feed`
    each subtree at it: with 4 workers, n=120 LOOCV recurses through
    depths 0-1 and runs the four 30-row subtrees at depth 2 by one call
    each, one of them in this process, below its two recursion nodes."""
    data, part, factory, loss = loocv_pegasos_n120(801)
    config = TreeCvConfig(ordering="randomized", seed=801)
    counts = LevelCounts(monkeypatch)
    traces = []
    report = tree_cv(factory, data, part, loss, config, trace_sink=traces)
    assert counts.ran(1)
    assert len(traces) == 2 * 120 - 1
    assert report.counters.point_updates == sum(t.points_fed_left + t.points_fed_right
                                                for t in traces)
    orders = tree_feed_orders(part, "randomized", 801)
    assert report.fold_scores == brute_force_oracle(factory, data, part, loss, orders).fold_scores
    counts = LevelCounts(monkeypatch)
    forked_traces = []
    forked = tree_cv(factory, data, part, loss,
                     TreeCvConfig(ordering="randomized", seed=801, max_workers=4),
                     trace_sink=forked_traces)
    assert counts.ran(1, visits=2)
    assert forked.comparable() == report.comparable()
    assert forked.counters.forks == 3
    assert forked_traces == traces
    assert multiprocessing.active_children() == []


class FailsOnMarkedPegasos(Pegasos):
    """Pegasos whose update raises on a row whose first feature is 99."""

    def _update_point(self, x, y):
        if x[0] == 99.0:
            raise RuntimeError("marked row")
        super()._update_point(x, y)


def test_a_pegasos_subclass_runs_its_own_update_rule_in_a_wide_tree(monkeypatch):
    counts = LevelCounts(monkeypatch)
    data = synth_classification(40, 3, margin=0.2, noise=0.1, seed=2)
    x = data.x.copy()
    x[5, 0] = 99.0
    data = Dataset(x, data.y)
    with pytest.raises(UpdateFailedError, match="marked row"):
        tree_cv(lambda: FailsOnMarkedPegasos(3), data, partition(data, 40), ZERO_ONE)
    assert counts.subtrees == 0
    tree_cv(lambda: Pegasos(3), data, partition(data, 40), ZERO_ONE)
    assert counts.ran(1)


@pytest.mark.parametrize("learner", [Pegasos, LsqSgd])
def test_unlabeled_data_raises_the_recursions_update_error(learner):
    # n=120 LOOCV is one subtree; its first feed is chunks 60..119
    data = Dataset(synth_classification(120, 4, margin=0.2, noise=0.1, seed=3).x)
    with pytest.raises(UpdateFailedError, match="requires") as info:
        loocv(lambda: learner(4, 0.1), data, SQUARED)
    assert info.value.chunk_range == (60, 119)


@pytest.mark.parametrize("learner, loss", [(Pegasos, ZERO_ONE), (LsqSgd, SQUARED)])
def test_a_learner_narrower_than_the_data_raises_the_recursions_update_error(learner, loss):
    # a model of 3 features on rows of 5 runs the recursion, not the level
    # loop, whose compiled kernels take their widths from the rows
    data = synth_classification(120, 5, margin=0.2, noise=0.1, seed=3)
    with pytest.raises(UpdateFailedError, match="not aligned") as info:
        loocv(lambda: learner(3, 0.1), data, loss)
    assert info.value.chunk_range == (60, 119)


@pytest.mark.parametrize("learner, loss", [(Pegasos, ZERO_ONE), (LsqSgd, SQUARED)])
def test_float32_parameters_give_the_oracles_fold_scores(learner, loss):
    # the Python update computes a float32 step parameter in float32, and
    # the compiled kernels do not, so such a model runs the recursion
    data = synth_classification(120, 4, margin=0.2, noise=0.1, seed=3)
    part = partition(data, 120)
    factory = lambda: learner(4, np.float32(0.1))  # noqa: E731
    for ordering in ("fixed", "randomized"):
        report = tree_cv(factory, data, part, loss, TreeCvConfig(ordering=ordering, seed=4))
        orders = tree_feed_orders(part, ordering, 4)
        assert report.fold_scores == brute_force_oracle(factory, data, part, loss,
                                                        orders).fold_scores


@pytest.mark.parametrize("learner, loss", [(Pegasos, ZERO_ONE), (LsqSgd, SQUARED)])
def test_zero_feature_data_runs_the_level_loop_once(learner, loss, monkeypatch):
    counts = LevelCounts(monkeypatch)
    data = Dataset(np.zeros((64, 0)), np.where(np.arange(64) % 3, -1.0, 1.0))
    part = partition(data, 64)
    report = tree_cv(lambda: learner(0, 0.1), data, part, loss,
                     TreeCvConfig(ordering="randomized", seed=2))
    assert counts.ran(1)
    orders = tree_feed_orders(part, "randomized", 2)
    replay = brute_force_oracle(lambda: learner(0, 0.1), data, part, loss, orders)
    assert report.fold_scores == replay.fold_scores


def test_a_failure_inside_the_level_loop_is_raised_as_the_recursion_raises_it(monkeypatch):
    # The squared norm of an iterate fed a row of 1e160 overflows, which
    # np.errstate turns into an error.  `tree_feed` meets it in C, raises
    # the overflow flag and fails, so the subtree reruns by the recursion,
    # which raises the failure sequential order meets first, annotated with
    # its range.
    counts = LevelCounts(monkeypatch)
    data = synth_regression(120, 4, seed=4)
    x = data.x.copy()
    x[[20, 100]] *= 1e160
    data = Dataset(x, data.y)
    errors = []
    with np.errstate(over="raise"):
        for factory in (lambda: LsqSgd(4, 0.1), lambda: PlainLsqSgd(4, 0.1)):
            with pytest.raises(UpdateFailedError, match="overflow") as info:
                loocv(factory, data, SQUARED, TreeCvConfig(ordering="randomized", seed=5))
            errors.append(info.value.chunk_range)
    assert errors[0] == errors[1]
    assert counts.subtrees == counts.failures == tree_feed_runs()


def planting_seed(first: int, last: int) -> int:
    """A run seed whose stream for the range of chunks first..last is
    `_native._REJECTED_SEED`, whose first draw randbelow rejects:
    derive_seed inverted tag by tag, `state_before(z) + GAMMA` being the
    state that the SplitMix64 finalizer maps to z."""
    state = _native._REJECTED_SEED
    for tag in (last, first, tree.TAG_NODE_SHUFFLE):
        state = ((state_before(state) + 0x9E3779B97F4A7C15) ^ tag) - 0x9E3779B97F4A7C15
        state &= 2**64 - 1
    assert derive_seed(derive_seed(derive_seed(state, tree.TAG_NODE_SHUFFLE), first), last) \
        == _native._REJECTED_SEED
    return state


@st.composite
def tree_problems(draw):
    """A learner, a dataset and a ragged partition of k = 2..n chunks, an
    ordering, a worker count and a run seed, which may be planted so that
    a range fed inside the subtree `tree_feed` runs draws from
    `_REJECTED_SEED`."""
    name = draw(st.sampled_from(["pegasos", "lsqsgd", "kmeans"]))
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=40))
    if draw(st.booleans()):
        sizes = [1] * len(sizes)  # leave-one-out
    part = Partition(tuple(int(b) for b in np.cumsum([0] + sizes)))
    d = draw(st.integers(0, 40))
    stream = SplitMix64Stream(draw(st.integers(0, 2**64 - 1)))
    x = stream.normal_array(part.n * d).reshape(part.n, d) * 10.0 ** draw(st.integers(-3, 3))
    if name == "kmeans" and draw(st.booleans()):
        x = np.round(x * 2.0) / 2.0  # repeated points and tied distances
    workers = draw(st.sampled_from([0, 2]))
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        # the first range that the subtree at the fork depth feeds
        e = part.k - 1
        for _ in range(workers // 2):
            e //= 2
        seed = planting_seed(e // 2 + 1, e) if e else planting_seed((part.k + 1) // 2, part.k - 1)
    config = TreeCvConfig(ordering=draw(st.sampled_from(["fixed", "randomized"])),
                          max_workers=workers, seed=seed)
    if name == "pegasos":
        y = np.where(stream.uniform_array(part.n) < 0.5, 1.0, -1.0)
        return (lambda: Pegasos(d, 1e-2), lambda: PlainPegasos(d, 1e-2), Dataset(x, y), part,
                ZERO_ONE, config)
    if name == "lsqsgd":
        y = stream.normal_array(part.n)
        return (lambda: LsqSgd(d, 0.2), lambda: PlainLsqSgd(d, 0.2), Dataset(x, y), part,
                SQUARED, config)
    clusters = draw(st.integers(1, 4))
    return (lambda: OnlineKMeans(d, clusters), lambda: PlainOnlineKMeans(d, clusters),
            Dataset(x), part, QUANTIZATION, config)


@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree_problems())
def test_tree_feed_gives_the_recursions_scores_counters_and_traces(monkeypatch, fork_always,
                                                                   problem):
    """`tree_feed` runs the subtree at the fork depth to the Python
    recursion's fold scores, byte for byte, its `WorkCounters` and its node
    traces, for every built-in learner it takes: ragged partitions, k from
    2 to n, both orderings, widths 0-40, sequential and at 2 workers, and
    run seeds planted so that a range it feeds redraws a rejected draw."""
    exact, plain, data, part, loss, config = problem
    traces, plain_traces = [], []
    with monkeypatch.context() as patch:  # one example's counts
        counts = LevelCounts(patch)
        report = tree_cv(exact, data, part, loss, config, trace_sink=traces)
        assert counts.ran(1, visits=1 if config.max_workers else 0)
    recursion = tree_cv(plain, data, part, loss, config, trace_sink=plain_traces)
    pack = lambda r: struct.pack(f"<{part.k + 1}d", *r.fold_scores, r.estimate)  # noqa: E731
    assert pack(report) == pack(recursion)
    assert report.counters == recursion.counters
    assert report.counters.forks == recursion.counters.forks == (config.max_workers > 1)
    assert traces == plain_traces


@pytest.mark.parametrize("ordering", ["fixed", "randomized"])
def test_a_planted_rejected_draw_gives_the_oracles_fold_scores(ordering, monkeypatch):
    """n=120 LOOCV's root feeds chunks 60..119 to its left branch, 60 rows.
    A run seed that gives that range the stream `_REJECTED_SEED` makes
    the Python loop reject its first draw and draw 60 times for 59
    positions; `tree_feed`, the recursion (which shuffles 60 rows in the
    `shuffle` kernel) and the oracle (which replays the Python
    loop's orders) give the same fold scores."""
    counts = LevelCounts(monkeypatch)
    reference = SplitMix64Stream(_native._REJECTED_SEED)
    scalar_shuffle(reference, list(range(60)))
    assert reference.state == (_native._REJECTED_SEED + 60 * 0x9E3779B97F4A7C15) % 2**64
    data = synth_regression(120, 4, seed=6)
    part = partition(data, 120)
    config = TreeCvConfig(ordering=ordering, seed=planting_seed(60, 119))
    report = runs_alike(lambda: LsqSgd(4, 0.2), lambda: PlainLsqSgd(4, 0.2), data, part, SQUARED,
                        config)
    assert counts.ran(1)
    orders = tree_feed_orders(part, ordering, config.seed)
    replay = brute_force_oracle(lambda: LsqSgd(4, 0.2), data, part, SQUARED, orders)
    assert report.fold_scores == replay.fold_scores


@pytest.mark.parametrize("learner, plain, make, loss", [
    (Pegasos, PlainPegasos, lambda d: synth_classification(120, 4, margin=0.2, noise=0.1,
                                                           seed=4), ZERO_ONE),
    (LsqSgd, PlainLsqSgd, lambda d: synth_regression(120, 4, seed=4), SQUARED),
    (OnlineKMeans, PlainOnlineKMeans, lambda d: Dataset(synth_blobs(120, 4, 3, seed=4).x),
     QUANTIZATION),
])
def test_an_overflow_in_tree_feed_raises_the_recursions_update_failure(learner, plain, make,
                                                                      loss, monkeypatch):
    """Rows of 1e160 (Pegasos, LsqSgd) or 1.5e308 (k-means) overflow under
    np.errstate(over="raise"): `tree_feed` raises the overflow flag and
    fails, and the recursion reruns the subtree to the `UpdateFailedError`
    of the Python path, with the same chunk range and message."""
    counts = LevelCounts(monkeypatch)
    data = make(4)
    x = data.x.copy()
    x[20], x[100] = (1.5e308, -1.5e308) if learner is OnlineKMeans else (1e160, -1e160)
    data = Dataset(x, data.y)
    errors = []
    with np.errstate(over="raise"):
        for cls in (learner, plain):
            with pytest.raises(UpdateFailedError, match="overflow") as info:
                loocv(lambda: cls(4, 3 if learner is OnlineKMeans else 0.1), data, loss,
                      TreeCvConfig(ordering="randomized", seed=5))
            errors.append((info.value.chunk_range, str(info.value)))
    assert errors[0] == errors[1]
    assert counts.subtrees == counts.failures == tree_feed_runs()


def test_an_untrained_kmeans_leaf_raises_the_recursions_error(monkeypatch):
    """A subtree of one chunk whose k-means model has no center: `tree_feed`
    fails on the leaf, and the recursion raises the `UntrainedModelError`
    of `predict_many`."""
    counts = LevelCounts(monkeypatch)
    data = Dataset(synth_blobs(12, 3, 2, seed=1).x)
    part = partition(data, 4)
    run = tree._Run(data, part, tree.check_partition(part), QUANTIZATION, TreeCvConfig())
    with pytest.raises(UntrainedModelError, match="no centers"):
        tree._node(run, 2, 2, OnlineKMeans(3, 2), 0)
    assert counts.subtrees == counts.failures == tree_feed_runs()


# ---------------------------------------------------------------------------
# Validation and failure paths


def test_config_validation():
    with pytest.raises(ValueError):
        TreeCvConfig(ordering="sorted").validate()
    ds = regression_data(8)
    part = partition(ds, 4)
    with pytest.raises(ValueError, match="seed must be an integer"):
        TreeCvConfig(seed=1.5).validate()
    with pytest.raises(ValueError, match="seed must be an integer"):
        standard_cv(mean_factory(), ds, part, SQUARED, seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        tree_feed_orders(part, "randomized", seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        brute_force_oracle(mean_factory(), ds, part, SQUARED, tree_feed_orders(part), seed=1.5)


def test_forked_execution_rejects_what_it_cannot_honour():
    ds = regression_data(8)
    part = partition(ds, 4)
    with pytest.raises(ValueError, match="at most 64"):
        TreeCvConfig(max_workers=65).validate()
    with pytest.raises(ValueError, match="at most 64"):
        standard_cv(mean_factory(), ds, part, SQUARED, max_workers=1000)
    with pytest.raises(ValueError, match="max_workers must be an integer"):
        TreeCvConfig(max_workers=2.0).validate()
    with pytest.raises(ValueError, match="max_workers must be an integer"):
        standard_cv(mean_factory(), ds, part, SQUARED, max_workers=2.0)
    assert multiprocessing.active_children() == []


def test_negative_worker_counts_are_rejected():
    ds = regression_data(8)
    part = partition(ds, 4)
    with pytest.raises(ValueError, match="at least 0"):
        TreeCvConfig(max_workers=-1).validate()
    with pytest.raises(ValueError, match="at least 0"):
        tree_cv(mean_factory(), ds, part, SQUARED, TreeCvConfig(max_workers=-1))
    with pytest.raises(ValueError, match="at least 0"):
        standard_cv(mean_factory(), ds, part, SQUARED, max_workers=-1)
    assert multiprocessing.active_children() == []


def test_partition_dataset_mismatch():
    ds = regression_data(10)
    with pytest.raises(InvalidChunkError):
        tree_cv(mean_factory(), ds, partition(12, 3), SQUARED)


def test_numpy_integer_counts_bounds_and_seeds_run_as_python_ints(fork_always):
    data = synth_classification(64, 3, margin=0.2, noise=0.1, seed=1)
    factory = lambda: Pegasos(3, 1e-3)
    part = partition(data, 16)
    numpy_part = Partition(tuple(np.int64(b) for b in part.bounds))
    assert partition(data, np.int64(16)) == part
    for seed in (7, -3):
        config = TreeCvConfig("randomized", max_workers=2, seed=seed)
        numpy_config = TreeCvConfig("randomized", max_workers=np.uint8(2), seed=np.int64(seed))
        forked = tree_cv(factory, data, numpy_part, ZERO_ONE, numpy_config)
        assert forked.comparable() == tree_cv(factory, data, part, ZERO_ONE, config).comparable()
        assert forked.counters.forks == 1
        assert (standard_cv(factory, data, numpy_part, ZERO_ONE, "randomized", np.int64(seed),
                            np.int32(2)).comparable()
                == standard_cv(factory, data, part, ZERO_ONE, "randomized", seed, 2).comparable())
        assert (tree_feed_orders(numpy_part, "randomized", np.int64(seed))
                == tree_feed_orders(part, "randomized", seed))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bounds,error", [
    ((2, 5, 10), InvalidChunkError),
    ((0, 10), InvalidFoldCountError),
    ((10,), InvalidFoldCountError),
    ((0, 6, 4, 10), InvalidChunkError),
    ((0, 5, 5, 10), InvalidChunkError),
    ((0, 5.0, 10), InvalidChunkError),
    ((0, 5, 2**63), InvalidChunkError),
], ids=["skips-rows-0-1", "one-chunk", "no-chunks", "not-monotone", "empty-chunk",
        "fractional-bound", "beyond-int64"])
def test_hand_built_partitions_are_checked_before_any_training(bounds, error):
    """Hand-built partitions, and partitions that `dataclasses.replace`
    gives new bounds, carry no checked array: each scheduler checks them
    in full."""
    ds = regression_data(10)
    for part in (Partition(bounds), dataclasses.replace(partition(ds, 2), bounds=bounds)):
        with pytest.raises(error):
            tree_cv(mean_factory(), ds, part, SQUARED)
        with pytest.raises(error):
            standard_cv(mean_factory(), ds, part, SQUARED)
        with pytest.raises(error):
            brute_force_oracle(mean_factory(), ds, part, SQUARED, [[]] * part.k)
        with pytest.raises(error):
            tree_feed_orders(part)


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


@pytest.mark.parametrize("workers", [0, 2])
def test_a_run_that_raises_leaves_the_trace_sink_as_it_was(workers):
    """Traces are written once the estimate completes, so a run whose
    update raises, sequential or forked, after the root's visit writes
    none."""
    ds = Dataset(np.zeros((8, 1)), np.array([0.5, 0.25, 0.75, 0.5, 0.25, 0.75, 0.5, -1.0]))
    sink = ["kept"]
    with pytest.raises(UpdateFailedError, match="marked row"):
        tree_cv(lambda: FailsOnMarkedRow(1), ds, partition(ds, 8), SQUARED,
                TreeCvConfig(max_workers=workers), trace_sink=sink)
    assert sink == ["kept"]


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
