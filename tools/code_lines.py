"""Count the code lines of each file of `src/treecv/`, and their total.

    python3 tools/code_lines.py [ROOT]

A code line of a Python file holds a token other than a comment or a
docstring (a string that is a statement of its own); a code line of a C
file holds something outside a comment; a blank line is never one.  ROOT
is a checkout of the repository, by default the one that holds this
script, so that another revision, exported with `git archive`, is
counted by the same rule.  It prints `LINES PATH` per file, then
`LINES total`.
"""

from __future__ import annotations

import io
import os
import re
import sys
import tokenize

# tokens that are not code, or that only end or indent a line of code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def python_lines(text: str) -> set[int]:
    """The numbers of the code lines of Python source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    rows: set[int] = set()
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if (token.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        rows.update(range(token.start[0], token.end[0] + 1))
    lines = text.splitlines()
    return {row for row in rows if lines[row - 1].strip()}


def c_lines(text: str) -> set[int]:
    """The numbers of the lines of C source that hold something outside a
    comment."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*", lambda m: "\n" * m.group().count("\n"), text,
                  flags=re.S)
    return {row for row, line in enumerate(code.splitlines(), 1) if line.strip()}


def count(root: str) -> list[tuple[str, int]]:
    """(path under ROOT, code lines) for each Python and C file of
    src/treecv, by name."""
    package = os.path.join(root, "src", "treecv")
    counted = []
    for name in sorted(os.listdir(package)):
        path = os.path.join(package, name)
        rule = {".py": python_lines, ".c": c_lines}.get(os.path.splitext(name)[1])
        if rule is not None and os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                counted.append((os.path.relpath(path, root), len(rule(f.read()))))
    return counted


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [ROOT]", file=sys.stderr)
        return 2
    root = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    counted = count(root)
    for path, lines in counted:
        print(f"{lines:6d} {path}")
    print(f"{sum(lines for _, lines in counted):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
