"""The fork-floor measurement, tools/fork_floor.py, on a --tiny run."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fork_floor.py"


def test_tiny_run_prints_every_measurement():
    done = subprocess.run([sys.executable, str(TOOL), "--tiny"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    kinds = [line.split()[0] for line in lines]
    assert kinds == ["floor", "kernels", "fork"] + ["update"] * 3 + ["run"] * 11
    assert re.fullmatch(r"fork +\d+\.\d\d ms .*", lines[2])
    assert [line.split()[1] for line in lines[3:6]] == ["pegasos", "lsqsgd", "kmeans"]
    problems = [line.split()[1] for line in lines[7:]]
    assert problems == ["lsqsgd"] * 5 + ["loocv"] * 2 + ["standard"] * 3
    for line in lines[7:]:
        fields = line.split()
        assert fields[2].isdigit() and fields[10].isdigit()
        assert [fields[i] for i in (4, 6, 8)] == ["ms"] * 3
        forks, forced = map(int, fields[9].split("/"))
        if fields[1] == "standard":  # the second of k=10 fold groups
            assert int(fields[10]) == 9 * int(fields[2]) // 2
        # the forced side always forks; the other only above the floor,
        # which no --tiny size reaches once the kernels run the subtree or
        # the fold group
        assert forced == 1 and forks == (lines[1].split()[1] != "compiled")


def test_a_repetition_count_below_one_is_refused():
    done = subprocess.run([sys.executable, str(TOOL), "--reps", "0"], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2 and "--reps must be at least 1" in done.stderr
