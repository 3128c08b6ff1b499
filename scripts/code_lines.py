#!/usr/bin/env python3
"""Print the code lines of each library module and script, then the total.

A code line is a non-blank line that is not a comment and not inside a
docstring.  Files are ``src/apxval/*.py`` and ``scripts/*.py``, or the
paths given on the command line.  Standard library only."""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    spans = docstring_spans(source)
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(
            a <= tok.start and tok.end <= b for a, b in spans
        ):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [
        *sorted((ROOT / "src" / "apxval").glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
    ]
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        name = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{n:6d} {name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
