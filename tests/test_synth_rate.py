"""The synthetic-draw measurement, tools/synth_rate.py, on a --tiny run."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "synth_rate.py"


def test_tiny_run_prints_every_measurement():
    done = subprocess.run([sys.executable, str(TOOL), "--tiny"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"kernels +(compiled|none: .+)", lines[0])
    assert [line.split()[:2] for line in lines[1:]] == [
        ["uniform", "uniforms"], ["uniform", "uniform_array"], ["normal", "8000"],
        ["normal", "16000"], ["sincos", "4000"]]
    figure = r" +\d+\.\d\d ns/"
    assert re.fullmatch(r"uniform +uniforms +none" if "none" in lines[0]
                        else r"uniform +uniforms" + figure + "uniform", lines[1])
    assert re.fullmatch(r"uniform +uniform_array" + figure + "uniform", lines[2])
    for line in lines[3:5]:
        assert re.fullmatch(r"normal +\d+" + figure + "normal", line)
    assert re.fullmatch(r"sincos +4000" + figure + "pair", lines[5])


def test_a_repetition_count_below_one_is_refused():
    done = subprocess.run([sys.executable, str(TOOL), "--reps", "0"], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2 and "--reps must be at least 1" in done.stderr
