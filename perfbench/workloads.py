"""The benchmark's workloads, their set-up, and the correctness gate.

Each workload turns a seed into inputs through the public treecv API
(generators, parser, transform, partition, learner constructors) and
names the one estimator call a user would make on them.  The gate checks
every report against exact work-count formulas, finiteness, bit-for-bit
repeatability and, on a small instance, the replay oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from treecv import (
    QUANTIZATION,
    SQUARED,
    ZERO_ONE,
    CvReport,
    Dataset,
    Loss,
    LsqSgd,
    OnlineKMeans,
    Partition,
    Pegasos,
    TreeCvConfig,
    brute_force_oracle,
    fit_transform,
    parse_sparse_text,
    partition,
    serialize_sparse_text,
    standard_cv,
    synth_blobs,
    synth_classification,
    synth_regression,
    tree_cv,
    tree_feed_orders,
)

from pace import pace

# Set-up is short and the machine's speed drifts, so its median is taken
# over many repeats: in the traced run up front, in the timed run one
# before every estimate.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 60
SETUP_SECONDS = 2.0


@dataclass
class Prepared:
    """Inputs ready for an estimate, plus how the set-up time was spent."""

    dataset: Dataset
    part: Partition
    factory: Callable
    loss: Loss
    scheduler: str
    ordering: str
    workers: int
    seed: int
    phases: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def k(self) -> int:
        return self.part.k

    def estimate(self, scheduler=None, workers=None, factory=None, loss=None,
                 trace_sink=None) -> CvReport:
        """One complete cross-validation estimate: the call a user times."""
        scheduler = scheduler or self.scheduler
        workers = self.workers if workers is None else workers
        factory = factory or self.factory
        loss = loss or self.loss
        if scheduler == "tree":
            config = TreeCvConfig(ordering=self.ordering, max_workers=workers, seed=self.seed)
            return tree_cv(factory, self.dataset, self.part, loss, config, trace_sink=trace_sink)
        return standard_cv(factory, self.dataset, self.part, loss, self.ordering,
                           self.seed, workers)


def _timed(phases: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    phases[name] = time.perf_counter() - start
    return out


# -- workload definitions ------------------------------------------------------
#
# Each `setup_*` goes from raw input to a ready dataset, partition and
# learner factory; that span is `setup_s`.  `raw_*` makes the raw input
# and is not part of set-up.


def raw_synth(n: int, seed: int):
    return n, seed


def setup_loocv(raw) -> Prepared:
    n, seed = raw
    phases: dict = {}
    data = _timed(phases, "synth", synth_classification, n, 20, margin=0.3, noise=0.1, seed=seed)
    part = partition(data, data.n)
    return Prepared(data, part, partial(Pegasos, 20, 1e-4), ZERO_ONE, "tree", "randomized",
                    0, seed, phases)


def setup_kfold16(raw) -> Prepared:
    n, seed = raw
    phases: dict = {}
    data = _timed(phases, "synth", synth_regression, n, 20, seed=seed)
    part = partition(data, 16)
    return Prepared(data, part, partial(LsqSgd, 20, n ** -0.5), SQUARED, "tree", "fixed",
                    2, seed, phases)


BLOB_CLUSTERS = 5


def raw_blobs_text(n: int, seed: int):
    """Sparse text of `synth_blobs` data, labelled by generating cluster."""
    phases: dict = {}
    blobs = _timed(phases, "synth", synth_blobs, n, 10, BLOB_CLUSTERS, seed=seed)
    labelled = Dataset(blobs.x, np.arange(n) % BLOB_CLUSTERS)
    text = _timed(phases, "serialize", serialize_sparse_text, labelled)
    return text, seed, phases


def setup_standard10(raw) -> Prepared:
    text, seed, _ = raw
    phases: dict = {}
    parsed = _timed(phases, "parse", parse_sparse_text, text)
    scaled, _ = _timed(phases, "transform", fit_transform, parsed, "unit-variance")
    data = Dataset(scaled.x)
    part = partition(data, 10)
    return Prepared(data, part, partial(OnlineKMeans, 10, BLOB_CLUSTERS), QUANTIZATION,
                    "standard", "randomized", 0, seed, phases)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    tiny_n: int
    raw: Callable
    setup: Callable

    def size(self, tiny: bool) -> int:
        return self.tiny_n if tiny else self.n


# Why each workload is here is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("loocv-pegasos-rand", 20000, 120, raw_synth, setup_loocv),
        Workload("kfold16-lsqsgd-fork2", 40000, 320, raw_synth, setup_kfold16),
        Workload("standard10-kmeans-file", 10000, 200, raw_blobs_text, setup_standard10),
    )
}


def paced_setup(workload: Workload, raw, before: float):
    """One timed set-up between two runs of the pace kernel.

    `before` is the kernel time measured just before.  Returns (prepared,
    record, after): the record holds the set-up's phase times, its total
    under "setup" and, under "pace", the mean of the kernel before and
    after it; `after` is the kernel time measured just after.
    """
    start = time.perf_counter()
    prepared = workload.setup(raw)
    elapsed = time.perf_counter() - start
    after = pace()
    return prepared, dict(prepared.phases, setup=elapsed, pace=(before + after) / 2), after


def prepare(workload: Workload, seed: int, tiny: bool, min_repeats: int = SETUP_MIN_REPEATS,
            seconds: float = SETUP_SECONDS):
    """Raw input, then repeated timed set-ups: at least `min_repeats`, and
    more until `seconds` have been spent (at most SETUP_MAX_REPEATS).

    Returns (raw, prepared, setups), with one `paced_setup` record per
    set-up in `setups`.
    """
    raw = workload.raw(workload.size(tiny), seed)
    setups = []
    prepared = None
    before = pace()
    deadline = time.perf_counter() + seconds
    while len(setups) < min_repeats or (time.perf_counter() < deadline
                                        and len(setups) < SETUP_MAX_REPEATS):
        prepared = None  # free the previous copy so peak memory counts one
        prepared, record, before = paced_setup(workload, raw, before)
        setups.append(record)
    return raw, prepared, setups


# -- correctness gate ----------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """Exact values every report of one prepared workload must carry."""

    reference: tuple
    nodes: int
    snapshots: int
    evaluations: int
    point_updates: int
    node_traces: tuple = ()  # the reference's NodeTrace list (tree only)


def tree_fed_points(traces) -> int:
    return sum(t.points_fed_left + t.points_fed_right for t in traces)


def expected_for(prepared: Prepared, reference: CvReport, traces) -> Expected:
    """Formulas for the reference estimate; `traces` is its NodeTrace list."""
    n, k = prepared.n, prepared.k
    if reference.scheduler == "tree":
        return Expected(reference.comparable(), 2 * k - 1, k - 1, n, tree_fed_points(traces),
                        tuple(traces))
    return Expected(reference.comparable(), 0, 0, n, n * (k - 1))


def check_report(report: CvReport, expected: Expected) -> list[str]:
    """Problems with one report; empty when it passes every check."""
    problems = []
    if not all(math.isfinite(s) for s in report.fold_scores):
        problems.append("non-finite fold score")
    c = report.counters
    for name, want in (("nodes_visited", expected.nodes), ("snapshots", expected.snapshots),
                       ("evaluations", expected.evaluations),
                       ("point_updates", expected.point_updates)):
        got = getattr(c, name)
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    if report.comparable() != expected.reference:
        problems.append("report differs from the reference estimate of the same seed")
    return problems


def reference_estimate(prepared: Prepared, scheduler: str | None = None) -> Expected:
    """Untimed estimate that fixes the expected values; also warms up."""
    scheduler = scheduler or prepared.scheduler
    traces = [] if scheduler == "tree" else None
    workers = 0 if traces is not None else None
    report = prepared.estimate(scheduler=scheduler, workers=workers, trace_sink=traces)
    expected = expected_for(prepared, report, traces)
    if scheduler == "tree" and len(traces) != expected.nodes:
        raise AssertionError(f"{len(traces)} node traces, expected {expected.nodes}")
    problems = check_report(report, expected)
    if problems:
        raise AssertionError("; ".join(problems))
    return expected


def oracle_problems(workload: Workload, seed: int) -> list[str]:
    """Tree fold scores against the replay oracle on the tiny instance.

    The replay feeds every fold its whole order, so its cost grows with
    n*k; the tiny size keeps it untimed and cheap.
    """
    _, small, _ = prepare(workload, seed, tiny=True, min_repeats=1)
    report = small.estimate()
    orders = tree_feed_orders(small.part, small.ordering, small.seed)
    replay = brute_force_oracle(small.factory, small.dataset, small.part, small.loss, orders,
                                small.seed)
    if report.fold_scores != replay.fold_scores:
        bad = sum(a != b for a, b in zip(report.fold_scores, replay.fold_scores))
        return [f"{bad} of {small.k} tree fold scores differ from the replay oracle"]
    return []
