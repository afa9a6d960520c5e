"""Measure the synthetic draw of the `dataio.synth_s` layer: uniforms and
Box-Muller normals, in ns each.

    python3 tools/synth_rate.py [--reps 21] [--tiny]

Run from anywhere.  It prints:

- `kernels`: whether the compiled kernels load, or why not (uniforms then
  come from numpy alone);
- `uniform`: ns per uniform of 400,000, through the compiled `uniforms`
  (`none` without the kernels) and through `SplitMix64Stream.uniform_array`;
- `normal`: ns per normal of `SplitMix64Stream.normal_array` at 400,000
  and 800,000, the draws of the loocv (n=20,000, d=20) and kfold16
  (n=40,000, d=20) benchmark set-ups;
- `sincos`: ns per pair of numpy's `sin` and `cos` on 200,000 angles,
  the part of a pair of normals that stays in numpy.

Each figure is a median over --reps repetitions.  The measurements run
in turn within each repetition, and the turn order reverses between
repetitions.  --tiny shrinks every size 50-fold and the repetition count
to 3, a smoke test.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from treecv import _native  # noqa: E402
from treecv.rng import SplitMix64Stream  # noqa: E402


def measurements(loaded, scale: int) -> list[tuple[str, str, int, object]]:
    """Each measurement as (layer, name, count, a callable that runs it once)."""
    uniforms = 400_000 // scale
    out = np.empty(uniforms)
    theta = 2.0 * math.pi * SplitMix64Stream(2).uniform_array(uniforms // 2)
    cosines = np.empty_like(theta)
    runs = []
    if loaded is not None:
        runs.append(("uniform", "uniforms", uniforms,
                     lambda: loaded.uniforms(1, uniforms, out.ctypes.data)))
    runs.append(("uniform", "uniform_array", uniforms,
                 lambda: SplitMix64Stream(1).uniform_array(uniforms)))
    for count in (400_000 // scale, 800_000 // scale):
        runs.append(("normal", str(count), count,
                     lambda count=count: SplitMix64Stream(3).normal_array(count)))
    runs.append(("sincos", str(len(theta)), len(theta),
                 lambda: (np.sin(theta), np.cos(theta, out=cosines))))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=21)
    parser.add_argument("--tiny", action="store_true", help="a smoke test: 1/50 sizes, 3 reps")
    args = parser.parse_args(argv)
    reps = 3 if args.tiny else args.reps
    if reps < 1:
        parser.error("--reps must be at least 1")
    loaded = _native.kernels()
    print(f"kernels    {'compiled' if loaded is not None else 'none: ' + str(_native.reason())}")
    runs = measurements(loaded, 50 if args.tiny else 1)
    walls: list[list[float]] = [[] for _ in runs]
    for rep in range(reps):
        for i in (range(len(runs)) if rep % 2 == 0 else reversed(range(len(runs)))):
            start = time.perf_counter()
            runs[i][3]()
            walls[i].append(time.perf_counter() - start)
    if loaded is None:
        print(f"{'uniform':<10} {'uniforms':<13} {'none':>8}")
    units = {"uniform": "uniform", "normal": "normal", "sincos": "pair"}
    for (layer, name, count, _), wall in zip(runs, walls):
        print(f"{layer:<10} {name:<13} {statistics.median(wall) / count * 1e9:8.2f} "
              f"ns/{units[layer]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
