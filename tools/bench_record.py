"""Record the benchmark's end-to-end metrics over a list of seeds, as one
JSON file that later changes can be compared against.

    python3 tools/bench_record.py --label NAME [--seeds 1,2,3] [--seconds 30]
                                  [--workloads W,...] [--tiny] [--against REV] [--out DIR]

Run from anywhere; it runs, from the repository root, one process per
workload and seed, one after another:

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0 [--tiny]

and writes DIR/BENCH_<label>.json (DIR is the repository root by
default) holding, per workload, the median and quartiles over the seeds
of each end-to-end metric BENCHMARK.json declares, with every seed's
value; each run's `correct`, `attempted` and `failed`; the environment
the first run reports; the git HEAD and whether, before the first run,
the checkout differed from it in what a run reads (`git_dirty`, over
`RUN_READS`); and the exact commands.  A run that prints no result line
counts as failed, with the end of its stderr.  It exits 1 when any run
failed.

With --against REV it also runs the same commands from the files of git
revision REV, exported by `git archive` into a temporary directory that
is removed afterwards (nothing is written to the repository's .git).
This checkout's side then runs from a fresh temporary copy too, as REV's
does: HEAD exported the same way when `git_dirty` is false, else the
files of `RUN_READS` that git tracks or would track, copied from the
working tree.  So neither side runs from the repository root, and the
pairs differ in the code alone.  The two sides run seed by seed, as a
pair, and the side that runs first alternates: this checkout first at
the first seed, REV first at the second, and so on.  Per workload the
file then also holds REV's metrics and runs (`against`), which side ran
first at each seed (`first`), and per metric (`pairs`) how many pairs
this checkout won, lost and tied by the metric's declared direction,
with the relative change of the median, REV's quartile spread and
whether a claimed gain meets the rule that judges one (`claim_rule`):
wins in at least 9 of 10 pairs, and a median better than REV's by more
than that spread.  Pairs lean by ~0.5% one way even when both sides run
the same code, so a win count alone shows no gain.  Host drift between
two recordings made one after the other moves every metric, so only
alternating pairs compare a change.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what a benchmark run reads of the checkout, which `git_dirty` covers
RUN_READS = ("src", "perfbench", "BENCHMARK.json")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _export(commit: str, directory: str) -> None:
    """Write the files of `commit` into `directory`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True, timeout=300)
    subprocess.run(["tar", "-x", "-C", directory], input=archive.stdout, check=True,
                   timeout=300)


def _copy_worktree(directory: str) -> None:
    """Copy into `directory` the working tree's files of `RUN_READS` that
    git tracks, or would track (untracked files .gitignore does not name)."""
    listed = _git("ls-files", "--cached", "--others", "--exclude-standard", "--", *RUN_READS)
    for name in (listed or "").splitlines():
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a tracked file deleted from the tree is left out
            os.makedirs(os.path.dirname(os.path.join(directory, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(directory, name))


def _run(root: str, workload: str, seed: int, seconds: float,
         tiny: bool) -> tuple[list[str], dict]:
    """The command of one benchmark run from `root` and what it reported."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
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


def _metrics(runs: list[dict], units: dict[str, str]) -> dict:
    return {name: _summary({run["seed"]: run["metrics"][name] for run in runs
                            if name in run["metrics"]}, unit)
            for name, unit in units.items()}


def _pairs(this: dict, against: dict, better: str) -> dict:
    """How this checkout fared against REV on one metric, pair by pair:
    `this` and `against` are the two sides' `_summary`.  `claim_rule`
    says whether a claimed gain holds: this checkout won at least 9 of
    every 10 pairs, and its median is better than REV's by more than
    REV's quartile spread."""
    seeds = [seed for seed in this["by_seed"] if seed in against["by_seed"]]
    sign = 1 if better == "lower" else -1
    gaps = [sign * (against["by_seed"][seed] - this["by_seed"][seed]) for seed in seeds]
    out = {"better": better, "n": len(gaps), "wins": sum(gap > 0 for gap in gaps),
           "losses": sum(gap < 0 for gap in gaps), "ties": sum(gap == 0 for gap in gaps),
           "claim_rule": False}
    if gaps and against["median"]:
        out.update(median_change=this["median"] / against["median"] - 1,
                   against_spread=against["p75"] - against["p25"])
        out["claim_rule"] = (10 * out["wins"] >= 9 * len(gaps) and sign * (
            against["median"] - this["median"]) > out["against_spread"])
    return out


def record(label: str, seeds: list[int], seconds: float, workloads: list[str] | None,
           tiny: bool, against: str | None = None) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    # read before any run, and only over what a run reads: an edit to the
    # docs, or one made while the runs go, dirties nothing they measured
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no", "--", *RUN_READS))
    names = workloads or [entry["name"] for entry in benchmark["workloads"]]
    commit = None
    if against is not None:
        commit = _git("rev-parse", "--verify", "--end-of-options", f"{against}^{{commit}}")
        if commit is None:
            raise SystemExit(f"--against {against}: not a git revision of {ROOT}")
    with contextlib.ExitStack() as stack:
        roots = {"this": ROOT}
        if commit is not None:
            roots = {side: stack.enter_context(tempfile.TemporaryDirectory(prefix=f"bench-{side}-"))
                     for side in ("this", "against")}
            if dirty:
                _copy_worktree(roots["this"])
            else:
                _export(head, roots["this"])
            _export(commit, roots["against"])
        commands, results, environment = [], {}, None
        for workload in names:
            runs: dict[str, list] = {side: [] for side in roots}
            first = {}
            for i, seed in enumerate(seeds):
                order = list(roots) if i % 2 == 0 else list(roots)[::-1]
                first[str(seed)] = order[0]
                for side in order:
                    command, run = _run(roots[side], workload, seed, seconds, tiny)
                    if side == "this":
                        commands.append(" ".join(command[1:]))
                    env = run.pop("env", None)
                    if environment is None and env and side == "this":
                        environment = {k: v for k, v in env.items()
                                       if k not in ("seed", "loadavg_start")}
                    if env:
                        run["loadavg_start"] = env.get("loadavg_start")
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                          + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                          file=sys.stderr)
            results[workload] = {"metrics": _metrics(runs["this"], units), "runs": runs["this"]}
            if commit is not None:
                theirs = _metrics(runs["against"], units)
                results[workload].update(
                    against={"metrics": theirs, "runs": runs["against"]}, first=first,
                    pairs={entry["name"]: _pairs(results[workload]["metrics"][entry["name"]],
                                                 theirs[entry["name"]], entry["better"])
                           for entry in benchmark["end_to_end"]})
                for name, pair in results[workload]["pairs"].items():
                    print(f"{workload} {name}: won {pair['wins']}/{pair['n']} against {against}, "
                          f"median change {pair.get('median_change', float('nan')):+.2%}, "
                          f"claim rule {'met' if pair['claim_rule'] else 'not met'}",
                          file=sys.stderr)
    out = {
        "label": label,
        "git_head": head,
        "git_dirty": dirty,
        "command": " ".join(["python3", "tools/bench_record.py", *sys.argv[1:]]),
        "run_commands": ["python3 " + command for command in commands],
        "seeds": seeds,
        "seconds": seconds,
        "tiny": tiny,
        "environment": environment or {},
        "workloads": results,
    }
    if commit is not None:
        out["against"] = {"rev": against, "commit": commit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds per run")
    parser.add_argument("--workloads", help="comma-separated names (default: every workload)")
    parser.add_argument("--tiny", action="store_true", help="pass --tiny to every run")
    parser.add_argument("--against", metavar="REV",
                        help="also run git revision REV, alternating with this checkout")
    parser.add_argument("--out", default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)
    seeds = [int(token) for token in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else None
    result = record(args.label, seeds, args.seconds, workloads, args.tiny, args.against)
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(path)
    failed = [run for w in result["workloads"].values()
              for run in w["runs"] + w.get("against", {}).get("runs", []) if not run["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
