"""Count the code lines of each module in src/ghn, and their total.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines, comment lines and the lines of module, class and
function docstrings are not counted.  Stdlib only.

Run from the repository root:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/ghn next to this script's directory.  A second
argument, or a PACKAGE_DIR that holds no .py file, such as --help or a missing
directory, prints the usage line and exits with status 2, so no total of 0
lines is ever printed for a wrong path.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

USAGE = "usage: python tools/code_lines.py [PACKAGE_DIR]"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "ghn"
    modules = sorted(package.glob("*.py"))
    if len(argv) > 2 or not modules:
        print(USAGE, file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
