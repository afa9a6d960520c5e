"""Measure what sets `tree.FORK_FLOOR`: the fixed cost of a fork, the
cost of a point update in a compiled tree estimate, and the wall time of
tree estimates run sequentially and at 2 workers.

    python3 tools/fork_floor.py [--reps 9] [--tiny]

Run from anywhere.  It prints, as medians over --reps repetitions:

- `fork`: a `forkjoin.fork` of a no-op plus its join, in ms;
- `update`: per learner (`Pegasos`, `LsqSgd`, `OnlineKMeans`), the wall
  time of a sequential k=16 tree estimate over its point updates, in ns.
  Without the compiled kernels the learners run in Python, and the line
  says why;
- `run`: per problem, a sequential estimate, a 2-worker estimate as the
  package runs it (forking only above the floor) and a 2-worker estimate
  that forks its root whatever the floor, in ms, with the forks each
  2-worker run made and the point updates of the root's right branch.
  The three sides run in turn, the first of them rotating each
  repetition, so that host drift falls on every side alike.

--tiny shrinks every size and the repetition count to a smoke test.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from treecv import (  # noqa: E402
    QUANTIZATION,
    SQUARED,
    ZERO_ONE,
    Dataset,
    LsqSgd,
    OnlineKMeans,
    Pegasos,
    TreeCvConfig,
    partition,
    synth_blobs,
    synth_classification,
    synth_regression,
    tree_cv,
)
from treecv import _native, forkjoin, tree  # noqa: E402


def _nothing() -> None:
    return None


def fork_ms(reps: int) -> float:
    """Median of a fork of a no-op plus its join, in ms."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        forkjoin.fork(_nothing)()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e3


def problem(name: str, n: int):
    """Data, partition, learner factory, loss and ordering of one problem."""
    if name == "pegasos":
        data = synth_classification(n, 20, margin=0.3, noise=0.1, seed=1)
        return data, partition(data, 16), lambda: Pegasos(20, 1e-4), ZERO_ONE, "fixed"
    if name == "lsqsgd":
        data = synth_regression(n, 20, seed=1)
        return data, partition(data, 16), lambda: LsqSgd(20, n ** -0.5), SQUARED, "fixed"
    if name == "kmeans":
        data = Dataset(synth_blobs(n, 10, 5, seed=1).x)
        return data, partition(data, 16), lambda: OnlineKMeans(10, 5), QUANTIZATION, "fixed"
    # the paper's headline case: leave-one-out, randomized order
    data = synth_classification(n, 20, margin=0.3, noise=0.1, seed=1)
    return data, partition(data, n), lambda: Pegasos(20, 1e-4), ZERO_ONE, "randomized"


def estimate(spec, workers: int):
    data, part, factory, loss, ordering = spec
    return tree_cv(factory, data, part, loss, TreeCvConfig(ordering, workers, seed=3))


def ns_per_update(name: str, n: int, reps: int) -> float:
    spec = problem(name, n)
    estimate(spec, 0)  # loads the kernels and warms the caches
    walls = []
    for _ in range(reps):
        report = estimate(spec, 0)
        walls.append(report.wall_time / report.counters.point_updates)
    return statistics.median(walls) * 1e9


def compare(name: str, n: int, reps: int) -> dict:
    """Sequential, 2-worker and always-forking 2-worker estimates of one
    problem, the sides rotating."""
    spec = problem(name, n)
    floor = tree.FORK_FLOOR
    sides = {"sequential": (0, floor), "2 workers": (2, floor), "2 workers, forced": (2, 0)}
    walls = {side: [] for side in sides}
    forks = {}
    reports = []
    order = list(sides)
    for rep in range(reps + 1):  # the first round warms up and is not kept
        for side in order[rep % 3:] + order[:rep % 3]:
            workers, tree.FORK_FLOOR = sides[side]
            try:
                report = estimate(spec, workers)
            finally:
                tree.FORK_FLOOR = floor
            if rep:
                walls[side].append(report.wall_time)
            forks[side] = report.counters.forks
            reports.append(report.comparable())
    if any(r != reports[0] for r in reports):
        raise SystemExit(f"{name} n={n}: the sides gave different reports")
    bounds = tree.check_partition(spec[1])
    return {"walls": {side: statistics.median(w) * 1e3 for side, w in walls.items()},
            "forks": forks, "right_updates": tree._right_updates(bounds, 0, spec[1].k - 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--tiny", action="store_true", help="a smoke test: small sizes, 2 reps")
    args = parser.parse_args(argv)
    reps = 2 if args.tiny else args.reps
    if reps < 1:
        parser.error("--reps must be at least 1")
    scale = 1 / 200 if args.tiny else 1
    size = lambda n: max(int(n * scale), 64)  # noqa: E731
    kernels = _native.kernels()
    print(f"floor      {tree.FORK_FLOOR} point updates (tree.FORK_FLOOR)")
    print(f"kernels    {'compiled' if kernels is not None else 'none: ' + _native.reason()}")
    print(f"fork       {fork_ms(max(reps, 5)):.2f} ms  fork of a no-op plus its join")
    for name in ("pegasos", "lsqsgd", "kmeans"):
        print(f"update     {name:<8} {ns_per_update(name, size(40_000), reps):8.1f} ns"
              f"  sequential k=16 estimate of n={size(40_000)} over its point updates")
    print("run        problem          n  sequential   2 workers  2 workers, forced   forks"
          "  right-branch updates")
    for name, n in (("lsqsgd", 40_000), ("lsqsgd", 80_000), ("lsqsgd", 120_000),
                    ("lsqsgd", 160_000), ("lsqsgd", 640_000), ("loocv", 20_000),
                    ("loocv", 40_000)):
        done = compare(name, size(n), reps)
        walls, forks = done["walls"], done["forks"]
        print(f"run        {name:<8} {size(n):>8} {walls['sequential']:8.2f} ms"
              f" {walls['2 workers']:8.2f} ms {walls['2 workers, forced']:15.2f} ms"
              f"   {forks['2 workers']}/{forks['2 workers, forced']}"
              f"  {done['right_updates']:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
