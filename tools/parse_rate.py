"""Measure the sparse-text parse, `parse_sparse_text`, in MB/s and in ns
per number token, on the standard10 benchmark's text written two ways.

    python3 tools/parse_rate.py [--reps 21] [--tiny]

Run from anywhere.  The data is the standard10 workload's: `synth_blobs`
at n=10,000, d=10 and 5 clusters, seed 5, labelled by cluster.  It
prints:

- `kernels`: whether the compiled parser runs, or why not (text then
  parses in Python);
- `text`: per spelling, its size and number tokens (labels and values);
- `parse`: per spelling, the parse rate in MB/s and ns per number token,
  as medians over --reps parses.  `repr` is the text
  `serialize_sparse_text` writes, the one the benchmark parses: `repr`
  doubles of at most 17 significant digits, which the compiled parser
  converts on its exact 128-bit path.  `%.24e` is the same data with 25
  significant digits, which go to strtod.  Both parse to the same
  dataset, which is checked.

The two spellings alternate within each repetition, and which goes
first alternates between repetitions.  --tiny shrinks n and the
repetition count to a smoke test.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from treecv import Dataset, parse_sparse_text, serialize_sparse_text, synth_blobs  # noqa: E402
from treecv import _native  # noqa: E402


def texts(n: int) -> dict[str, str]:
    """The standard10 data at size n in each spelling."""
    blobs = synth_blobs(n, 10, 5, seed=5)
    data = Dataset(blobs.x, np.arange(n) % 5)
    wide = "{:.24e}".format
    lines = (" ".join([wide(label), *(f"{j}:{wide(v)}" for j, v in enumerate(row, 1) if v)])
             for label, row in zip(data.y.tolist(), data.x.tolist()))
    return {"repr": serialize_sparse_text(data), "%.24e": "\n".join(lines) + "\n"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=21)
    parser.add_argument("--tiny", action="store_true", help="a smoke test: n=200, 3 reps")
    args = parser.parse_args(argv)
    reps = 3 if args.tiny else args.reps
    if reps < 1:
        parser.error("--reps must be at least 1")
    loaded = _native.kernels()
    compiled = loaded is not None and loaded.parser() is not None
    print(f"kernels    {'compiled' if compiled else 'none: ' + str(_native.reason())}")
    spellings = texts(200 if args.tiny else 10_000)
    parsed = {name: parse_sparse_text(text) for name, text in spellings.items()}  # warms up
    first = parsed["repr"]
    numbers = first.n + int(np.count_nonzero(first.x))
    for name, data in parsed.items():
        if data.x.tobytes() != first.x.tobytes() or data.y.tobytes() != first.y.tobytes():
            raise SystemExit(f"the {name} text parses to another dataset")
        size = len(spellings[name])
        print(f"text       {name:<6} {size / 1e6:8.3f} MB  {numbers} number tokens")
    walls: dict[str, list[float]] = {name: [] for name in spellings}
    for rep in range(reps):
        for name in (list(spellings) if rep % 2 == 0 else list(reversed(spellings))):
            start = time.perf_counter()
            parse_sparse_text(spellings[name])
            walls[name].append(time.perf_counter() - start)
    for name, text in spellings.items():
        wall = statistics.median(walls[name])
        print(f"parse      {name:<6} {len(text) / wall / 1e6:8.1f} MB/s"
              f" {wall / numbers * 1e9:8.1f} ns/number")
    return 0


if __name__ == "__main__":
    sys.exit(main())
