"""treecv benchmark: one cross-validation workload, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root; the package is imported from ./src.  The
workload's inputs are made from --seed.  With --trace 0 the run times,
for S seconds after a warm-up, a fresh set-up and then a complete
estimate on it, one pair after another (closed loop), and reports the
end-to-end metrics:

* cv_s        seconds per complete estimate (the tree_cv or standard_cv
              call) at the reference host pace: the median over the
              run's estimates of wall seconds * REFERENCE_S / pace_s;
* setup_s     seconds from raw input to a ready dataset, partition and
              learner factory at the reference pace, median over the
              set-ups made before each estimate;
* peak_rss_mb peak resident memory of this process.

Why times are scaled to a pace: on a shared 2-vCPU Xeon virtual machine,
other tenants slow interpreter-bound code such as the learners' per-row
updates by 1.4-1.9x in episodes lasting from seconds to minutes, and CPU
time slows with the wall clock. Raw medians of ten runs spread by up to
0.45 of their median (quartile distance). So the reference kernel in
pace.py, which uses nothing from treecv, is timed before and after every
estimate and every set-up, and each wall time is scaled by REFERENCE_S
over the mean of the two kernel times around it. In two sets of ten 30 s
runs per workload (ten seeds each), the spread of cv_s was 0.04-0.09,
against 0.05-0.16 for the wall-clock median, and the median of cv_s
moved by at most 4% between the sets while the wall-clock median of
standard10-kmeans-file fell 40% as the host sped up. Vectorised numpy
code follows the episodes less than the kernel does: when the kernel
slowed 1.38x, the synth set-ups slowed 1.2x and the parse-bound set-up
1.38x, so scaled set-up times of the synth workloads still drift by up
to a seventh. The wall-clock median, quartiles, tail percentile and
every sample, and the pace samples, are printed in the detail line.

With --trace 1 it runs the traced procedure in tracing.py, reports
per-layer metrics instead, and writes the spans of the median traced
estimate to perfbench/out/.  Every estimate passes the correctness gate in
workloads.py; a failed check is counted, printed, and makes the command
exit 1.  Lines before the last give the details (quartiles, sample count,
environment, error rate, per-layer breakdown); the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")  # span files of traced runs

UNITS = {
    "cv_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "learners.update_calls": "count", "learners.update_points": "count",
    "learners.update_s": "s", "learners.us_per_update": "us",
    "core.eval_points": "count", "core.eval_s": "s", "core.us_per_eval_point": "us",
    "core.preserve_calls": "count", "core.preserve_s": "s", "core.us_per_preserve": "us",
    "rng.shuffle_elements": "count", "rng.shuffle_s": "s", "rng.us_per_element": "us",
    "tree.nodes": "count", "tree.snapshots": "count", "tree.point_updates": "count",
    "tree.update_ratio_vs_standard": "ratio", "tree.self_s": "s", "tree.us_per_node": "us",
    "tree.fork_speedup": "ratio",
    "standard.point_updates": "count", "standard.self_s": "s",
    "standard.wall_ratio_vs_tree": "ratio",
    "dataio.parse_s": "s", "dataio.parse_mb_per_s": "MB/s", "dataio.transform_s": "s",
    "dataio.synth_s": "s", "dataio.serialize_mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}


class Outcome:
    """Attempted and failed estimates or checks, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def attempt(self, label: str, fn):
        """Run fn() as one attempted check; None when it raised."""
        try:
            out = fn()
        except Exception as err:  # counted and reported, never fatal
            self.attempted += 1
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
            return None
        return out


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_start": list(os.getloadavg()), "seed": seed}


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile with at least
    ten samples beyond it (when the run has at least twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1], "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(p25=q1, p75=q3)
    if n >= 20:
        rank = n - 10
        out["tail"] = {"percentile": 100.0 * rank / n, "value": ordered[rank - 1]}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, raw, expected, seconds: float, outcome: Outcome):
    """Closed loop for `seconds`: a fresh timed set-up, then a timed
    estimate on it, each between two runs of the pace kernel.  Set-ups
    are spread over the whole run, so setup_s samples the host for as
    long as cv_s does.  Returns the estimates' wall times, the pace
    around each (mean of the kernel before and after), and the set-up
    records."""
    from pace import pace
    from workloads import check_report, paced_setup

    walls, paces, setups = [], [], []
    before = pace()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        prepared = None  # free the previous copy so peak memory counts one
        prepared, record, before = paced_setup(workload, raw, before)
        setups.append(record)
        start = time.perf_counter()
        report = prepared.estimate()
        walls.append(time.perf_counter() - start)
        after = pace()
        paces.append((before + after) / 2)
        before = after
        outcome.record("timed estimate", check_report(report, expected))
    return walls, paces, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few hundred points (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treecv", "__init__.py")):
        print(f"perfbench: no treecv sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import treecv
    from workloads import WORKLOADS, oracle_problems, prepare, reference_estimate

    if os.path.dirname(os.path.abspath(treecv.__file__)) != os.path.join(SRC, "treecv"):
        print(f"perfbench: imported treecv from {treecv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    env = environment(args.seed)
    outcome = Outcome()
    if args.trace:
        raw, prepared, setups = prepare(workload, args.seed, args.tiny)
    else:  # the timed run sets up again before every estimate
        raw, prepared, setups = prepare(workload, args.seed, args.tiny, min_repeats=1, seconds=0)
    expected = outcome.attempt("reference estimate", lambda: reference_estimate(prepared))
    if expected is not None:
        outcome.record("reference estimate", [])
    if prepared.scheduler == "tree":
        problems = outcome.attempt("replay oracle", lambda: oracle_problems(workload, args.seed))
        if problems is not None:
            outcome.record("replay oracle", problems)

    details: dict = {}
    metrics: dict = {}
    if expected is not None:
        if args.trace:
            from tracing import traced_run

            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"{workload.name}-seed{args.seed}.spans.jsonl")
            result = outcome.attempt("traced run", lambda: traced_run(
                raw, prepared, setups, expected, args.seconds, outcome, spans))
            if result is not None:
                metrics, details = result
        else:
            from pace import scaled

            prepared = None  # the timed run makes its own
            walls, paces, setups = timed_run(workload, raw, expected, args.seconds, outcome)
            cv = [scaled(w, p) for w, p in zip(walls, paces)]
            setup = [scaled(s["setup"], s["pace"]) for s in setups]
            metrics = {"cv_s": statistics.median(cv),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": peak_rss_mb()}
            details = {"cv_s": summarize(cv), "cv_wall_s": summarize(walls),
                       "cv_wall_samples": walls, "pace_s": summarize(paces),
                       "pace_samples": paces, "setup_s": summarize(setup),
                       "setup_wall_s": summarize([s["setup"] for s in setups])}

    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    print(json.dumps({"workload": workload.name, "trace": args.trace, "env": env,
                      "error_rate": failed / attempted, "failures": outcome.failures,
                      **details}))
    for role, part in details.get("breakdown", {}).items():
        shares = "  ".join(f"{k} {v:.1%}" for k, v in part["share"].items())
        print(f"{role} estimate {part['wall_s']:.4g} s: {shares}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {UNITS[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": UNITS[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
