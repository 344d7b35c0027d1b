#!/usr/bin/env python3
"""Count the code lines of Python files, without docstrings or comments.

    python3 scripts/code_lines.py src/cigrid

A code line is a line that holds a token other than a comment or a line
break (by `tokenize`), and that is not a line of a module, class or function
docstring (by `ast`).  A directory counts every `*.py` file below it.  One
line per file, then the total, as `wc -l` prints them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return len(tokens - docstrings)


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
