#!/usr/bin/env python3
"""Count code lines: lines that hold a token other than a comment and are
no part of a module, class or function docstring.

Prints the count for each module of src/rankreach, or for the paths given,
then the total.  Blank lines, comment lines and docstrings do not count;
each line of a statement that spans several lines does.

Example:
    python scripts/code_lines.py
    python scripts/code_lines.py src/rankreach/localization.py
"""

import argparse
import ast
import io
import os
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankreach"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path,
                    help="modules to count (default: every module of src/rankreach)")
    args = ap.parse_args()
    total = 0
    for path in args.paths or sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
