"""The code-line count, tools/code_lines.py: its rule, and a run over the
package."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comments_docstrings_and_blank_lines_are_not_code():
    tool = load_tool()
    python = '''"""A module
docstring."""

# a comment
def f(x):  # code with a comment
    """A docstring."""
    text = """a string
that is code"""

    return (x,
            text)
'''
    assert tool.python_lines(python) == {5, 7, 8, 10, 11}
    c = "/* a\n   comment */\nint f(void)\n{\n\n    return 0; /* code */ // and\n}\n// x\n"
    assert tool.c_lines(c) == {3, 4, 6, 7}


def test_a_run_counts_every_file_of_the_package_and_their_total():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(lines) for lines, _ in rows[:-1])
    package = ROOT / "src" / "treecv"
    assert [path for _, path in rows[:-1]] == sorted(
        f"src/treecv/{path.name}" for path in package.iterdir() if path.suffix in (".py", ".c"))
    assert all(int(lines) > 0 for lines, _ in rows[:-1])
