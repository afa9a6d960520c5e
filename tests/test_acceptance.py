"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).  Tolerances are fixed here and
must not be loosened; several criteria are exact bit-equality checks."""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from treecv import (
    Dataset,
    LsqSgd,
    MeanPredictor,
    OnlineKMeans,
    ParseError,
    Pegasos,
    SQUARED,
    TreeCvConfig,
    ZERO_ONE,
    brute_force_oracle,
    parse_sparse_text,
    partition,
    serialize_sparse_text,
    standard_cv,
    synth_classification,
    tree_cv,
    tree_feed_orders,
)
from treecv.cli import main
from treecv.rng import SplitMix64Stream, derive_seed


def passed(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def random_regression(stream, max_n=200):
    n = 8 + stream.randbelow(max_n - 7)
    d = 1 + stream.randbelow(4)
    x = stream.normal_array(n * d).reshape(n, d)
    y = stream.uniform_array(n)
    return Dataset(x, y)


def test_criterion_01_oracle_equivalence_exactness():
    """Order-insensitive learner: tree and standard agree fold by fold."""
    stream = SplitMix64Stream(1001)
    for _ in range(50):
        ds = random_regression(stream)
        for k in (2, 3, 5, 7, ds.n):
            if k > ds.n:
                continue
            part = partition(ds, k)
            tree = tree_cv(lambda: MeanPredictor(ds.dim), ds, part, SQUARED)
            std = standard_cv(lambda: MeanPredictor(ds.dim), ds, part, SQUARED)
            for a, b in zip(tree.fold_scores, std.fold_scores):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(tree.estimate, std.estimate, rel_tol=1e-12, abs_tol=1e-15)
    passed(1, "oracle equivalence, exactness case")


def test_criterion_02_trace_equivalence_deterministic_learners():
    """Tree fold scores replay bit-exactly through the explicit-order oracle."""
    for n in (333, 500):
        data = synth_classification(n, 8, margin=0.3, noise=0.1, seed=21)
        regression = Dataset(data.x, (data.y + 1.0) / 2.0)
        factories = [
            (data, ZERO_ONE, lambda: Pegasos(8, 1e-3)),
            (regression, SQUARED, lambda: LsqSgd(8, n ** -0.5)),
        ]
        for ds, loss, factory in factories:
            for k in (4, 8, 16):
                part = partition(ds, k)
                tree = tree_cv(factory, ds, part, loss, TreeCvConfig(seed=3))
                orders = tree_feed_orders(part, "fixed", seed=3)
                replay = brute_force_oracle(factory, ds, part, loss, orders, seed=3)
                assert tree.fold_scores == replay.fold_scores  # bit-exact
    passed(2, "trace equivalence for deterministic learners")


def test_criterion_03_node_and_snapshot_counts():
    """Every run visits 2k-1 nodes and preserves a model k-1 times."""
    for k in range(2, 65):
        n = 2 * k
        stream = SplitMix64Stream(k)
        ds = Dataset(stream.normal_array(n).reshape(n, 1), stream.uniform_array(n))
        report = tree_cv(lambda: MeanPredictor(1), ds, partition(ds, k), SQUARED)
        assert report.counters.nodes_visited == 2 * k - 1
        assert report.counters.snapshots == k - 1
    passed(3, "node and snapshot counts")


def test_criterion_04_work_bound():
    """Tree point updates meet the log2(k) bound; standard is n(k-1)."""
    stream = SplitMix64Stream(77)
    # exact equality at powers of two with equal chunks
    for k in (2, 4, 8, 16):
        for b in (1, 4):
            n = b * k
            ds = Dataset(stream.normal_array(n).reshape(n, 1), stream.uniform_array(n))
            part = partition(ds, k)
            tree = tree_cv(lambda: MeanPredictor(1), ds, part, SQUARED)
            assert tree.counters.point_updates == n * int(math.log2(k))
            std = standard_cv(lambda: MeanPredictor(1), ds, part, SQUARED)
            assert std.counters.point_updates == n * (k - 1)
    # ceiling bound everywhere
    for _ in range(40):
        n = 4 + stream.randbelow(200)
        k = 2 + stream.randbelow(n - 2)
        ds = Dataset(stream.normal_array(n).reshape(n, 1), stream.uniform_array(n))
        report = tree_cv(lambda: MeanPredictor(1), ds, partition(ds, k), SQUARED)
        assert report.counters.point_updates <= n * math.ceil(math.log2(k))
    passed(4, "work bound on point updates")


def test_criterion_05_measured_speedup():
    """Leave-one-out at n=2000: tree wall time at most a tenth of standard."""
    ds = synth_classification(2000, 20, margin=0.3, noise=0.1, seed=5)
    part = partition(ds, 2000)
    factory = lambda: Pegasos(20, 1e-4)
    tree = tree_cv(factory, ds, part, ZERO_ONE, TreeCvConfig(seed=3))
    std = standard_cv(factory, ds, part, ZERO_ONE, "fixed", seed=3)
    assert tree.counters.point_updates <= 2000 * 11  # n * ceil(log2 n)
    assert std.counters.point_updates == 2000 * 1999
    ratio = std.wall_time / tree.wall_time
    assert ratio >= 10.0, f"speedup only {ratio:.1f}x"
    passed(5, f"measured speedup ({ratio:.0f}x)")


def test_criterion_06_stability_gap_shrinks(tmp_path):
    """Incremental-vs-batch gap for the classifier shrinks from n=500 to 8000."""
    out = tmp_path / "stability.csv"
    code = main([
        "stability", "--synth", "classification:d=20,margin=0.3,noise=0.1",
        "--learner", "pegasos", "--lambda", "1e-4",
        "--n-list", "500,2000,8000", "--seeds", "50", "--chunks", "10",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = {int(r["n"]): float(r["mean_gap"]) for r in csv.DictReader(handle)}
    assert rows[8000] < rows[500], f"gap grew: {rows}"
    passed(6, f"stability gap shrinks ({rows[500]:.4f} -> {rows[8000]:.4f})")


def test_criterion_07_estimate_agreement_under_stability():
    """Randomized tree and standard estimates agree within 3 standard errors."""
    reps = 20
    data = synth_classification(10000, 20, margin=0.3, noise=0.1, seed=11)
    factory = lambda: Pegasos(20, 1e-4)
    for k in (5, 10):
        part = partition(data, k)
        tree_estimates, std_estimates = [], []
        for rep in range(reps):
            seed = derive_seed(1000, 7, rep)
            config = TreeCvConfig(ordering="randomized", seed=seed)
            tree_estimates.append(tree_cv(factory, data, part, ZERO_ONE, config).estimate)
            std_estimates.append(
                standard_cv(factory, data, part, ZERO_ONE, "randomized", seed).estimate
            )
        mean_tree = sum(tree_estimates) / reps
        mean_std = sum(std_estimates) / reps
        var_tree = sum((e - mean_tree) ** 2 for e in tree_estimates) / (reps - 1)
        var_std = sum((e - mean_std) ** 2 for e in std_estimates) / (reps - 1)
        combined_se = math.sqrt(var_tree / reps + var_std / reps)
        assert abs(mean_tree - mean_std) <= 3.0 * combined_se
    passed(7, "estimate agreement under stability")


def test_criterion_08_learner_unit_correctness():
    """Hand-derived update traces hold bit-exactly."""
    # classifier: two-step trace
    model = Pegasos(dim=1, lam=1.0)
    model.update(np.array([[1.0]]), np.array([1.0]))
    assert model.w.tolist() == [1.0]
    model.update(np.array([[1.0]]), np.array([1.0]))
    assert model.w.tolist() == [0.5]
    # regression: unit-ball projection of [3, 4]
    sgd = LsqSgd(dim=2, alpha=1.0)
    sgd.update(np.array([[1.5, 2.0]]), np.array([1.0]))
    assert np.allclose(sgd.w, [0.6, 0.8], rtol=0, atol=1e-12)
    # clustering: running means
    km = OnlineKMeans(dim=1, n_clusters=1)
    km.update(np.array([[2.0], [4.0]]))
    assert km.centers[0].tolist() == [3.0]
    km2 = OnlineKMeans(dim=1, n_clusters=2)
    km2.update(np.array([[0.0], [10.0]]))
    predicted = km2.predict(np.array([4.0]))
    assert predicted.tolist() == [0.0]
    assert float((np.array([4.0]) - predicted) @ (np.array([4.0]) - predicted)) == 16.0
    km2.update(np.array([[1.0]]))
    assert km2.centers[0].tolist() == [0.5]
    passed(8, "learner unit correctness")


def test_criterion_09_determinism(fork_always):
    """Equal seeds give bit-identical reports, sequential or fork-join."""
    ds = synth_classification(160, 6, margin=0.2, noise=0.1, seed=9)
    part = partition(ds, 16)
    factory = lambda: Pegasos(6, 1e-3)
    for ordering in ("fixed", "randomized"):
        seq = TreeCvConfig(ordering=ordering, seed=13)
        par = TreeCvConfig(ordering=ordering, seed=13, max_workers=4)
        runs = [
            tree_cv(factory, ds, part, ZERO_ONE, seq),
            tree_cv(factory, ds, part, ZERO_ONE, seq),
            tree_cv(factory, ds, part, ZERO_ONE, par),
        ]
        assert runs[0].comparable() == runs[1].comparable() == runs[2].comparable()
        assert runs[2].counters.forks == 3
        flat = standard_cv(factory, ds, part, ZERO_ONE, ordering, seed=13)
        forked = standard_cv(factory, ds, part, ZERO_ONE, ordering, seed=13, max_workers=4)
        assert flat.comparable() == forked.comparable()
        assert forked.counters.forks == 3
    passed(9, "determinism across reruns and fork-join")


def test_criterion_10_parser_roundtrip():
    """1000 random datasets survive serialize -> parse exactly; the three
    malformed inputs fail with the right line numbers."""
    stream = SplitMix64Stream(3003)
    for _ in range(1000):
        n = 1 + stream.randbelow(10)
        d = 1 + stream.randbelow(6)
        x = stream.normal_array(n * d).reshape(n, d)
        mask = stream.uniform_array(n * d).reshape(n, d) < 0.4
        x = np.where(mask, 0.0, x)
        ds = Dataset(x, stream.normal_array(n))
        assert parse_sparse_text(serialize_sparse_text(ds), expected_dim=d) == ds

    with pytest.raises(ParseError) as err:
        parse_sparse_text("1 1:1\n1 3:1 2:1\n")
    assert err.value.line_number == 2  # non-monotone indices
    with pytest.raises(ParseError) as err:
        parse_sparse_text("1 0:2\n")
    assert err.value.line_number == 1  # index below 1
    with pytest.raises(ParseError) as err:
        parse_sparse_text("1 1:1\n1 1:1\n1 2:abc\n")
    assert err.value.line_number == 3  # unparsable number
    passed(10, "parser round-trip and error reporting")
