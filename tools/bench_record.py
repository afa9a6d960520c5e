"""Record the benchmark's end-to-end metrics over a list of seeds, as one
JSON file that later changes can be compared against.

    python3 tools/bench_record.py --label NAME [--seeds 1,2,3] [--seconds 30]
                                  [--workloads W,...] [--tiny] [--out DIR]

Run from anywhere; it runs, from the repository root, one process per
workload and seed, one after another:

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0 [--tiny]

and writes DIR/BENCH_<label>.json (DIR is the repository root by
default) holding, per workload, the median and quartiles over the seeds
of each end-to-end metric BENCHMARK.json declares, with every seed's
value; each run's `correct`, `attempted` and `failed`; the environment
the first run reports; the git HEAD; and the exact commands.  A run that
prints no result line counts as failed, with the end of its stderr.  It
exits 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _run(workload: str, seed: int, seconds: float, tiny: bool) -> tuple[list[str], dict]:
    """The command of one benchmark run and what it reported."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    try:
        first, last = json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return command, {"seed": seed, "returncode": done.returncode, "correct": False,
                         "attempted": None, "failed": None, "metrics": {},
                         "error": done.stderr[-2000:]}
    return command, {"seed": seed, "returncode": done.returncode, "correct": last["correct"],
                     "attempted": last["attempted"], "failed": last["failed"],
                     "metrics": {name: entry["value"] for name, entry in last["metrics"].items()},
                     "env": first.get("env", {})}


def _summary(values: dict[int, float], unit: str) -> dict:
    """Median, quartiles and every seed's value of one metric."""
    ordered = sorted(values.values())
    out: dict = {"unit": unit, "n": len(ordered)}
    if ordered:
        median = statistics.median(ordered)
        low, _, high = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [median] * 3
        out.update(median=median, p25=low, p75=high)
    out["by_seed"] = {str(seed): value for seed, value in values.items()}
    return out


def record(label: str, seeds: list[int], seconds: float, workloads: list[str] | None,
           tiny: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    metrics = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    names = workloads or [entry["name"] for entry in benchmark["workloads"]]
    commands, results, environment = [], {}, None
    for workload in names:
        runs = []
        for seed in seeds:
            command, run = _run(workload, seed, seconds, tiny)
            commands.append(" ".join(command[1:]))
            env = run.pop("env", None)
            if environment is None and env:
                environment = {k: v for k, v in env.items() if k not in ("seed", "loadavg_start")}
            if env:
                run["loadavg_start"] = env.get("loadavg_start")
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()), file=sys.stderr)
        results[workload] = {
            "metrics": {name: _summary({run["seed"]: run["metrics"][name] for run in runs
                                        if name in run["metrics"]}, unit)
                        for name, unit in metrics.items()},
            "runs": runs,
        }
    return {
        "label": label,
        "git_head": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "command": " ".join(["python3", "tools/bench_record.py", *sys.argv[1:]]),
        "run_commands": ["python3 " + command for command in commands],
        "seeds": seeds,
        "seconds": seconds,
        "tiny": tiny,
        "environment": environment or {},
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds per run")
    parser.add_argument("--workloads", help="comma-separated names (default: every workload)")
    parser.add_argument("--tiny", action="store_true", help="pass --tiny to every run")
    parser.add_argument("--out", default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)
    seeds = [int(token) for token in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else None
    result = record(args.label, seeds, args.seconds, workloads, args.tiny)
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(path)
    failed = [run for w in result["workloads"].values() for run in w["runs"]
              if not run["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
