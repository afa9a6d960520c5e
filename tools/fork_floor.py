"""Measure what sets `forkjoin.FORK_FLOOR`: the fixed cost of a fork, the
cost of a point update in a compiled tree estimate, and the wall time of
tree and standard estimates run sequentially and at 2 workers.

    python3 tools/fork_floor.py [--reps 9] [--tiny]

Run from anywhere.  It prints, as medians over --reps repetitions:

- `fork`: a `forkjoin.fork` of a no-op plus its join, in ms;
- `update`: per learner (`Pegasos`, `LsqSgd`, `OnlineKMeans`), the wall
  time of a sequential k=16 tree estimate over its point updates, in ns.
  Without the compiled kernels the learners run in Python, and the line
  says why;
- `run`: per problem, a sequential estimate, a 2-worker estimate as the
  package runs it (forking only above the floor) and a 2-worker estimate
  with the floor at 0, in ms, with the forks each 2-worker run made and
  the point updates of the work a fork would move: the tree root's right
  branch (problems `lsqsgd` and `loocv`), or standard CV's second fold
  group (problem `standard`: k=10 LsqSgd, fixed order).
  Each repetition runs every problem and size, and each of them its three
  sides in turn.  The order of the problems rotates each repetition, and
  the sides take each of their six orders in turn, so that host drift
  falls on every side and size alike, and each side follows each other
  alike: a run that follows a fork pays the parent's copy-on-write
  faults.

--tiny shrinks every size and the repetition count to a smoke test.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
    standard_cv,
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


@functools.cache
def regression(n: int) -> Dataset:
    """One regression dataset per size, which the tree and standard
    problems share."""
    return synth_regression(n, 20, seed=1)


def problem(name: str, n: int):
    """Data, partition, learner factory, loss and ordering of one problem."""
    if name == "pegasos":
        data = synth_classification(n, 20, margin=0.3, noise=0.1, seed=1)
        return data, partition(data, 16), lambda: Pegasos(20, 1e-4), ZERO_ONE, "fixed"
    if name in ("lsqsgd", "standard"):
        data = regression(n)
        k = 10 if name == "standard" else 16
        return data, partition(data, k), lambda: LsqSgd(20, n ** -0.5), SQUARED, "fixed"
    if name == "kmeans":
        data = Dataset(synth_blobs(n, 10, 5, seed=1).x)
        return data, partition(data, 16), lambda: OnlineKMeans(10, 5), QUANTIZATION, "fixed"
    # the paper's headline case: leave-one-out, randomized order
    data = synth_classification(n, 20, margin=0.3, noise=0.1, seed=1)
    return data, partition(data, n), lambda: Pegasos(20, 1e-4), ZERO_ONE, "randomized"


def estimate(spec, workers: int, standard: bool = False):
    data, part, factory, loss, ordering = spec
    if standard:
        return standard_cv(factory, data, part, loss, ordering, 3, workers)
    return tree_cv(factory, data, part, loss, TreeCvConfig(ordering, workers, seed=3))


def ns_per_update(name: str, n: int, reps: int) -> float:
    spec = problem(name, n)
    estimate(spec, 0)  # loads the kernels and warms the caches
    walls = []
    for _ in range(reps):
        report = estimate(spec, 0)
        walls.append(report.wall_time / report.counters.point_updates)
    return statistics.median(walls) * 1e9


def moved_updates(name: str, part) -> int:
    """The point updates a fork at 2 workers would move: the tree root's
    right branch, or standard CV's second fold group."""
    if name != "standard":
        return tree._right_updates(tree.check_partition(part), 0, part.k - 1)
    second = range(part.k - part.k // 2, part.k)
    return sum(part.n - part.chunk_size(fold) for fold in second)


def compare(cases, reps: int) -> list[dict]:
    """Sequential, 2-worker and floor-0 2-worker estimates of each
    (problem, n) case, every case and side in each repetition, in the
    orders the module docstring gives."""
    specs = [problem(name, n) for name, n in cases]
    sides = {"sequential": (0, forkjoin.FORK_FLOOR), "2 workers": (2, forkjoin.FORK_FLOOR),
             "2 workers, forced": (2, 0)}
    done = [{"walls": {side: [] for side in sides}, "forks": {}, "reports": []} for _ in cases]
    orders, floor = list(itertools.permutations(sides)), forkjoin.FORK_FLOOR
    for rep in range(reps + 1):  # the first round warms up and is not kept
        for i in [(rep + j) % len(cases) for j in range(len(cases))]:
            for side in orders[rep % len(orders)]:
                workers, forkjoin.FORK_FLOOR = sides[side]
                try:
                    report = estimate(specs[i], workers, cases[i][0] == "standard")
                finally:
                    forkjoin.FORK_FLOOR = floor
                if rep:
                    done[i]["walls"][side].append(report.wall_time)
                done[i]["forks"][side] = report.counters.forks
                done[i]["reports"].append(report.comparable())
    for (name, n), spec, case in zip(cases, specs, done):
        if any(r != case["reports"][0] for r in case["reports"]):
            raise SystemExit(f"{name} n={n}: the sides gave different reports")
        case["walls"] = {side: statistics.median(w) * 1e3 for side, w in case["walls"].items()}
        case["moved"] = moved_updates(name, spec[1])
    return done


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
    print(f"floor      {forkjoin.FORK_FLOOR} point updates (forkjoin.FORK_FLOOR)")
    print(f"kernels    {'compiled' if kernels is not None else 'none: ' + _native.reason()}")
    print(f"fork       {fork_ms(max(reps, 5)):.2f} ms  fork of a no-op plus its join")
    for name in ("pegasos", "lsqsgd", "kmeans"):
        print(f"update     {name:<8} {ns_per_update(name, size(40_000), reps):8.1f} ns"
              f"  sequential k=16 estimate of n={size(40_000)} over its point updates")
    print("run        problem          n  sequential   2 workers  2 workers, forced   forks"
          "  forked-work updates")
    cases = [(name, size(n)) for name, n in (
        ("lsqsgd", 40_000), ("lsqsgd", 80_000), ("lsqsgd", 120_000), ("lsqsgd", 160_000),
        ("lsqsgd", 640_000), ("loocv", 20_000), ("loocv", 40_000), ("standard", 40_000),
        ("standard", 160_000), ("standard", 640_000))]
    for (name, n), done in zip(cases, compare(cases, reps)):
        walls, forks = done["walls"], done["forks"]
        print(f"run        {name:<8} {n:>8} {walls['sequential']:8.2f} ms"
              f" {walls['2 workers']:8.2f} ms {walls['2 workers, forced']:15.2f} ms"
              f"   {forks['2 workers']}/{forks['2 workers, forced']}"
              f"  {done['moved']:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
