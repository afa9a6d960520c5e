"""The traced run: spans recorded around the public calls into each layer.

Nothing inside `treecv` is instrumented.  The benchmark passes a wrapping
learner and a wrapping loss into the public estimator calls and records
spans (name, start, end, parent, count) in memory:

* `learners.update` around each `update` call (count = points fed);
* `core.preserve` around `clone`, `snapshot` and `restore`;
* `core.eval` over each run of consecutive `predict` + loss calls, which
  is the body of one `evaluate_chunk` (count = points evaluated).

The scheduler's own shuffles are not visible from outside, so their cost
is measured by replaying `SplitMix64Stream` shuffles of exactly the sizes
the run shuffled: the tree's fed ranges come from its `NodeTrace` list,
the standard method shuffles n - |chunk| rows per fold.  A scheduler's
self time is its estimate span minus its child spans minus that replay.

Traced estimates are always sequential: under the interpreter lock a
span in one thread would also count the other thread's work.
"""

from __future__ import annotations

import json
import math
import time
from statistics import median
from dataclasses import dataclass, field

from treecv import (
    IncrementalLearner,
    Loss,
    SplitMix64Stream,
    derive_seed,
    evaluate_chunk,
    fit_transform,
    parse_sparse_text,
    serialize_sparse_text,
)
from treecv.standard import TAG_FOLD_SHUFFLE

from workloads import Expected, Prepared, check_report, expected_for, reference_estimate

UPDATE, EVAL, PRESERVE = "learners.update", "core.eval", "core.preserve"

# Largest standard run (in point updates) the traced run executes in
# full; above it a sample of folds stands in for all k.
STANDARD_FULL_UPDATES = 2_000_000
SAMPLED_FOLDS = 8
MIN_ROUNDS = 2


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, count)
        self.parent: int | None = None
        self._eval: list | None = None  # [start, end, points] of the open eval span

    def begin(self) -> float:
        self.close_eval()
        return time.perf_counter()

    def end(self, name: str, start: float, count: int = 1) -> None:
        self.spans.append((name, start, time.perf_counter(), self.parent, count))

    def eval_begin(self) -> None:
        if self._eval is None:
            now = time.perf_counter()
            self._eval = [now, now, 0]

    def eval_tick(self) -> None:
        if self._eval is None:
            self.eval_begin()
        self._eval[1] = time.perf_counter()
        self._eval[2] += 1

    def close_eval(self) -> None:
        if self._eval is not None:
            start, end, points = self._eval
            self._eval = None
            self.spans.append((EVAL, start, end, self.parent, points))

    def estimate(self, name: str, fn):
        """Run fn() under a parent span; returns (result, span index)."""
        index = len(self.spans)
        self.spans.append(None)
        self.parent = index
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            self.close_eval()
            self.spans[index] = (name, start, time.perf_counter(), None, 1)
            self.parent = None
        return out, index

    def children(self, index: int) -> dict[str, list[float]]:
        """{name: [seconds, calls, count]} over the direct children of a span."""
        out: dict[str, list[float]] = {}
        for name, start, end, parent, count in self.spans:
            if parent == index:
                acc = out.setdefault(name, [0.0, 0, 0])
                acc[0] += end - start
                acc[1] += 1
                acc[2] += count
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, count = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


class TracingLearner(IncrementalLearner):
    """Delegates every learner call to `inner`, recording spans."""

    def __init__(self, inner: IncrementalLearner, tracer: Tracer):
        # No super().__init__: the inner learner owns the random stream.
        self.rng = inner.rng
        self.inner = inner
        self.tracer = tracer

    def update(self, x, y=None) -> None:
        start = self.tracer.begin()
        self.inner.update(x, y)
        self.tracer.end(UPDATE, start, x.shape[0] if x.ndim > 1 else 1)

    def _update_point(self, x, y) -> None:
        self.inner._update_point(x, y)

    def predict(self, x):
        self.tracer.eval_begin()
        return self.inner.predict(x)

    def fresh(self) -> "TracingLearner":
        return TracingLearner(self.inner.fresh(), self.tracer)

    def reseed(self, seed: int) -> None:
        self.inner.reseed(seed)

    def clone(self) -> "TracingLearner":
        start = self.tracer.begin()
        twin = self.inner.clone()
        self.tracer.end(PRESERVE, start)
        return TracingLearner(twin, self.tracer)

    def snapshot(self):
        start = self.tracer.begin()
        state = self.inner.snapshot()
        self.tracer.end(PRESERVE, start)
        return state

    def restore(self, state) -> None:
        start = self.tracer.begin()
        self.inner.restore(state)
        self.tracer.end(PRESERVE, start)

    def _fingerprint(self):
        return self.inner._fingerprint()

    def _get_state(self):
        return self.inner._get_state()

    def _set_state(self, payload) -> None:
        self.inner._set_state(payload)


def tracing_loss(loss: Loss, tracer: Tracer) -> Loss:
    inner = loss.fn

    def fn(prediction, x, y):
        value = inner(prediction, x, y)
        tracer.eval_tick()
        return value

    return Loss(loss.name, fn)


# -- traced estimates --------------------------------------------------------------


@dataclass
class Traced:
    """One traced estimate, broken down by layer."""

    scheduler: str
    wall: float
    layers: dict  # name -> [seconds, calls, count]
    shuffle_sizes: list
    shuffle_s: float
    counters: object
    scale: float = 1.0  # k / folds run, when only a sample of folds ran
    spans: Tracer | None = field(default=None, repr=False)

    def seconds(self, name: str) -> float:
        return self.layers.get(name, [0.0, 0, 0])[0] * self.scale

    def calls(self, name: str) -> int:
        return round(self.layers.get(name, [0.0, 0, 0])[1] * self.scale)

    def count(self, name: str) -> int:
        return round(self.layers.get(name, [0.0, 0, 0])[2] * self.scale)

    @property
    def total_wall(self) -> float:
        return self.wall * self.scale

    @property
    def self_s(self) -> float:
        children = sum(v[0] for v in self.layers.values())
        return (self.wall - children - self.shuffle_s) * self.scale

    def breakdown(self) -> dict:
        wall = self.total_wall
        parts = {name: self.seconds(name) for name in (UPDATE, EVAL, PRESERVE)}
        parts["rng.shuffle"] = self.shuffle_s * self.scale
        parts[f"{self.scheduler}.self"] = self.self_s
        return {"wall_s": wall, "projected_from_sample": self.scale != 1.0,
                "self_s": parts, "share": {k: v / wall for k, v in parts.items()}}


def replay_shuffles(sizes, as_list: bool, seed: int) -> float:
    """Seconds spent shuffling exactly these sizes, as the scheduler does."""
    total = 0.0
    for i, m in enumerate(sizes):
        stream = SplitMix64Stream(derive_seed(seed, i))
        if as_list:
            rows = list(range(m))
            start = time.perf_counter()
            stream.shuffle(rows)
        else:
            start = time.perf_counter()
            stream.permutation(m)
        total += time.perf_counter() - start
    return total


def trace_estimate(prepared: Prepared, scheduler: str, node_traces=()) -> tuple[Traced, object]:
    """A traced sequential estimate; returns (Traced, CvReport).

    `node_traces` is a tree reference run's NodeTrace list, which gives
    the sizes the tree shuffles without a trace sink in the traced run.
    """
    tracer = Tracer()
    factory = lambda: TracingLearner(prepared.factory(), tracer)  # noqa: E731
    loss = tracing_loss(prepared.loss, tracer)
    report, index = tracer.estimate(
        scheduler, lambda: prepared.estimate(scheduler, 0, factory, loss))
    _, start, end, _, _ = tracer.spans[index]
    if prepared.ordering == "fixed":
        sizes = []
    elif scheduler == "tree":
        sizes = [s for t in node_traces if t.start != t.end
                 for s in (t.points_fed_left, t.points_fed_right)]
    else:
        sizes = [prepared.n - prepared.part.chunk_size(f) for f in range(prepared.k)]
    shuffle_s = replay_shuffles(sizes, scheduler == "standard", prepared.seed)
    traced = Traced(scheduler, end - start, tracer.children(index), sizes, shuffle_s,
                    report.counters, spans=tracer)
    return traced, report


def trace_sampled_standard(prepared: Prepared) -> Traced:
    """Standard CV on SAMPLED_FOLDS evenly spaced folds, projected to all k.

    Each fold repeats what `standard_cv` does for it: a fresh model, the
    fold's training rows (shuffled as a list under randomized ordering),
    one update and one evaluation.
    """
    tracer = Tracer()
    loss = tracing_loss(prepared.loss, tracer)
    ds, part, k = prepared.dataset, prepared.part, prepared.k
    folds = sorted({f * k // SAMPLED_FOLDS for f in range(SAMPLED_FOLDS)})

    def run():
        scores = []
        for fold in folds:
            model = TracingLearner(prepared.factory().fresh(), tracer)
            sl = part.chunk_slice(fold)
            rows = list(range(0, sl.start)) + list(range(sl.stop, part.n))
            if prepared.ordering == "randomized":
                SplitMix64Stream(derive_seed(prepared.seed, TAG_FOLD_SHUFFLE, fold)).shuffle(rows)
            model.update(ds.x[rows], ds.y[rows] if ds.y is not None else None)
            scores.append(evaluate_chunk(model, ds, sl, loss))
        return scores

    scores, index = tracer.estimate("standard", run)
    _, start, end, _, _ = tracer.spans[index]
    sizes = [] if prepared.ordering == "fixed" else [prepared.n - part.chunk_size(f) for f in folds]
    traced = Traced("standard", end - start, tracer.children(index), sizes,
                    replay_shuffles(sizes, True, prepared.seed), None,
                    scale=k / len(folds), spans=tracer)
    return traced, scores


# -- the traced run --------------------------------------------------------------------


def dataio_metrics(raw, prepared: Prepared, setups: list[dict], outcome) -> dict:
    """Parse, transform, synth and serialize rates.

    The file workload measures its own set-up phases; the synthetic
    workloads round-trip their generated dataset through the text format,
    which also checks that parse(serialize(data)) == data.
    """
    synth_s = median([s["synth"] for s in setups]) if "synth" in setups[0] else raw[2]["synth"]
    if "parse" in setups[0]:
        text, _, raw_phases = raw
        parse_s = median([s["parse"] for s in setups])
        transform_s = median([s["transform"] for s in setups])
        serialize_s = raw_phases["serialize"]
    else:
        start = time.perf_counter()
        text = serialize_sparse_text(prepared.dataset)
        serialize_s = time.perf_counter() - start
        start = time.perf_counter()
        parsed = parse_sparse_text(text, expected_dim=prepared.dataset.dim)
        parse_s = time.perf_counter() - start
        start = time.perf_counter()
        fit_transform(parsed, "unit-variance")
        transform_s = time.perf_counter() - start
        outcome.record("dataio round trip",
                       [] if parsed == prepared.dataset else ["parse(serialize(data)) != data"])
    mb = len(text) / 1e6
    return {
        "dataio.parse_s": parse_s,
        "dataio.parse_mb_per_s": mb / parse_s,
        "dataio.transform_s": transform_s,
        "dataio.synth_s": synth_s,
        "dataio.serialize_mb_per_s": mb / serialize_s,
    }


def traced_run(raw, prepared: Prepared, setups: list[dict], expected: Expected,
               seconds: float, outcome, spans_path: str | None = None):
    """Per-layer metrics and a breakdown of the traced estimates.

    For `seconds`, rounds alternate an untraced and a traced estimate of
    the workload (for the tracing overhead) with sequential and 2-worker
    tree estimates (for the fork speedup).  The traced estimate with the
    median wall time gives the learner, evaluation and shuffle metrics.
    One traced estimate of the other scheduler on the same inputs follows,
    so `tree.*` and `core.preserve_*` always describe a tree run and
    `standard.*` a standard run; `standard.wall_ratio_vs_tree` compares
    the two traced walls.
    """
    primary = prepared.scheduler
    tree_expected = expected if primary == "tree" else reference_estimate(prepared, "tree")
    tree_walls = {0: [], 2: []}
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        start = time.perf_counter()
        report = prepared.estimate(workers=0)
        untraced.append(time.perf_counter() - start)
        outcome.record("untraced estimate", check_report(report, expected))
        one, report = trace_estimate(prepared, primary, tree_expected.node_traces)
        outcome.record("traced estimate", check_report(report, expected))
        traced.append(one)
        for workers in (0, 2):
            if workers == 0 and primary == "tree":
                walls = untraced[-1]
            else:
                start = time.perf_counter()
                report = prepared.estimate("tree", workers)
                walls = time.perf_counter() - start
                outcome.record(f"tree estimate, {workers} workers",
                               check_report(report, tree_expected))
            tree_walls[workers].append(walls)
    traced.sort(key=lambda t: t.wall)
    main = traced[len(traced) // 2]

    if primary == "tree":
        tree = main
        if prepared.n * (prepared.k - 1) <= STANDARD_FULL_UPDATES:
            standard, report = trace_estimate(prepared, "standard")
            outcome.record("traced standard estimate",
                           check_report(report, expected_for(prepared, report, None)))
        else:
            standard, scores = trace_sampled_standard(prepared)
            outcome.record("sampled standard folds",
                           [] if all(map(math.isfinite, scores)) else ["non-finite fold score"])
    else:
        standard = main
        tree, report = trace_estimate(prepared, "tree", tree_expected.node_traces)
        outcome.record("traced tree estimate", check_report(report, tree_expected))

    n, k = prepared.n, prepared.k
    elements = sum(main.shuffle_sizes)
    if elements:
        us_per_element = main.shuffle_s / elements * 1e6
    else:  # the workload shuffles nothing: time a reference permutation of n
        us_per_element = replay_shuffles([n], False, prepared.seed) / n * 1e6
    c = tree.counters
    metrics = {
        "learners.update_calls": main.calls(UPDATE),
        "learners.update_points": main.count(UPDATE),
        "learners.update_s": main.seconds(UPDATE),
        "learners.us_per_update": main.seconds(UPDATE) / main.count(UPDATE) * 1e6,
        "core.eval_points": main.count(EVAL),
        "core.eval_s": main.seconds(EVAL),
        "core.us_per_eval_point": main.seconds(EVAL) / main.count(EVAL) * 1e6,
        "core.preserve_calls": tree.calls(PRESERVE),
        "core.preserve_s": tree.seconds(PRESERVE),
        "core.us_per_preserve": tree.seconds(PRESERVE) / tree.calls(PRESERVE) * 1e6,
        "rng.shuffle_elements": elements,
        "rng.shuffle_s": main.shuffle_s,
        "rng.us_per_element": us_per_element,
        "tree.nodes": c.nodes_visited,
        "tree.snapshots": c.snapshots,
        "tree.point_updates": c.point_updates,
        "tree.update_ratio_vs_standard": n * (k - 1) / c.point_updates,
        "tree.self_s": tree.self_s,
        "tree.us_per_node": tree.self_s / c.nodes_visited * 1e6,
        "tree.fork_speedup": median(tree_walls[0]) / median(tree_walls[2]),
        "standard.point_updates": n * (k - 1),
        "standard.self_s": standard.self_s,
        "standard.wall_ratio_vs_tree": standard.total_wall / tree.total_wall,
        **dataio_metrics(raw, prepared, setups, outcome),
        "trace.overhead_ratio": median([t.wall for t in traced]) / median(untraced),
    }
    details = {
        "traced_estimates": len(traced),
        "untraced_cv_s": median(untraced),
        "traced_cv_s": median([t.wall for t in traced]),
        "tree_cv_s": {"sequential": median(tree_walls[0]), "workers2": median(tree_walls[2]),
                      "samples": len(tree_walls[2])},
        "breakdown": {"primary": main.breakdown(),
                      "companion": (standard if primary == "tree" else tree).breakdown()},
    }
    if spans_path:
        main.spans.write(spans_path)
    return metrics, details
