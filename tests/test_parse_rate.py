"""The parse-rate measurement, tools/parse_rate.py, on a --tiny run."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parse_rate.py"


def test_tiny_run_prints_every_measurement():
    done = subprocess.run([sys.executable, str(TOOL), "--tiny"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [
        ["text", "repr"], ["text", "%.24e"], ["parse", "repr"], ["parse", "%.24e"]]
    assert re.fullmatch(r"kernels +(compiled|none: .+)", lines[0])
    for line in lines[1:3]:  # 200 labels and 2,000 nonzero values at d=10
        assert re.fullmatch(r"text +\S+ +\d+\.\d{3} MB +2200 number tokens", line)
    for line in lines[3:]:
        assert re.fullmatch(r"parse +\S+ +\d+\.\d MB/s +\d+\.\d ns/number", line)


def test_a_repetition_count_below_one_is_refused():
    done = subprocess.run([sys.executable, str(TOOL), "--reps", "0"], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2 and "--reps must be at least 1" in done.stderr
