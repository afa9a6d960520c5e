"""The benchmark recorder, tools/bench_record.py, on --tiny runs."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDER = ROOT / "tools" / "bench_record.py"


def _record(tmp_path, *args):
    done = subprocess.run([sys.executable, str(RECORDER), "--label", "t", "--tiny",
                           "--seconds", "0.1", "--out", str(tmp_path), *args],
                          capture_output=True, text=True, timeout=300)
    return done, json.loads((tmp_path / "BENCH_t.json").read_text())


def test_tiny_record_has_the_schema(tmp_path):
    done, bench = _record(tmp_path, "--workloads", "standard10-kmeans-file", "--seeds", "3,4")
    assert done.returncode == 0, done.stderr
    assert bench["label"] == "t" and bench["seeds"] == [3, 4] and bench["tiny"] is True
    assert bench["command"].startswith("python3 tools/bench_record.py --label t --tiny")
    assert bench["run_commands"] == [
        f"python3 perfbench/run.py --workload standard10-kmeans-file --seed {seed} "
        "--seconds 0.1 --trace 0 --tiny" for seed in (3, 4)]
    assert len(bench["git_head"] or "0" * 40) == 40 and isinstance(bench["git_dirty"], bool)
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(bench["environment"])
    [(name, workload)] = bench["workloads"].items()
    assert name == "standard10-kmeans-file"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(workload["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = workload["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["n"] == 2
        assert set(metric["by_seed"]) == {"3", "4"}
        assert metric["p25"] <= metric["median"] <= metric["p75"]
        assert min(metric["by_seed"].values()) <= metric["median"] <= max(
            metric["by_seed"].values())
    assert [(run["seed"], run["correct"], run["failed"]) for run in workload["runs"]] == [
        (3, True, 0), (4, True, 0)]


def test_a_run_without_a_result_is_recorded_as_failed(tmp_path):
    done, bench = _record(tmp_path, "--workloads", "no-such-workload", "--seeds", "1")
    assert done.returncode == 1
    [run] = bench["workloads"]["no-such-workload"]["runs"]
    assert run["correct"] is False and run["returncode"] != 0 and "no-such-workload" in run["error"]
    assert bench["workloads"]["no-such-workload"]["metrics"]["cv_s"]["n"] == 0
