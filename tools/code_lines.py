"""Count the code lines of the switchlevy package: lines that hold a
Python token, less blank lines, comments and docstrings.

A docstring is the string statement that opens a module, class or
function body; every line it spans is left out. Any other string counts
on every line it spans. Prints one line per module and the total.

    python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "switchlevy"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of tree's module, classes
    and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<20} {count:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
