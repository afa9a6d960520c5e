"""Tests of the benchmark itself (not of treecv).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, check_report, prepare, reference_estimate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_and_units_match_the_spec():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert declared == run.UNITS
    for name in list(declared) + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module")
def loocv_tiny():
    _, prepared, _ = prepare(WORKLOADS["loocv-pegasos-rand"], seed=3, tiny=True, min_repeats=1)
    return prepared, reference_estimate(prepared)


def test_gate_accepts_a_repeated_estimate(loocv_tiny):
    prepared, expected = loocv_tiny
    assert check_report(prepared.estimate(), expected) == []


@pytest.mark.parametrize("corrupt", [
    lambda s: s[0] + 1e-12,
    lambda s: float("nan"),
])
def test_gate_catches_a_corrupted_fold_score(loocv_tiny, corrupt):
    prepared, expected = loocv_tiny
    report = prepared.estimate()
    scores = list(report.fold_scores)
    scores[len(scores) // 2] = corrupt(scores)
    bad = dataclasses.replace(report, fold_scores=tuple(scores))
    assert check_report(bad, expected)


def test_gate_catches_a_wrong_work_count(loocv_tiny):
    prepared, expected = loocv_tiny
    report = prepared.estimate()
    counters = dataclasses.replace(report.counters,
                                   point_updates=report.counters.point_updates + 1)
    problems = check_report(dataclasses.replace(report, counters=counters), expected)
    assert any("point_updates" in p for p in problems)


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    real = workloads.Prepared.estimate
    calls = []

    def corrupted(self, *args, **kwargs):
        report = real(self, *args, **kwargs)
        calls.append(1)
        if len(calls) > 1:  # leave the reference intact, corrupt the timed ones
            report = dataclasses.replace(report, fold_scores=(0.5,) + report.fold_scores[1:])
        return report

    monkeypatch.setattr(workloads.Prepared, "estimate", corrupted)
    code = run.main(["--workload", "standard10-kmeans-file", "--seed", "1",
                     "--seconds", "0.2", "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    details = json.loads(proc.stdout.splitlines()[0])
    assert details["error_rate"] == 0.0
    assert set(details["env"]) == {"nproc", "cpu_model", "python", "numpy", "loadavg_start",
                                   "seed"}


def test_pace_kernel_uses_nothing_from_treecv():
    code = "import sys, pace; pace.pace(); print(any(m.startswith('treecv') for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_scaled_time_is_proportional_to_wall_time():
    from pace import REFERENCE_S, scaled

    assert scaled(2.0, REFERENCE_S) == 2.0
    assert scaled(2.0, 2 * REFERENCE_S) == 1.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "loocv-pegasos-rand", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
