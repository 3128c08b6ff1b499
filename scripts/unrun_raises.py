#!/usr/bin/env python3
"""Print each ``raise`` statement of ``src/apxval`` that a test run never
executes, one per line as ``file line text``.

Runs pytest in this process on the given test paths (``tests`` by
default) under a line tracer that records only the library's frames, so a
refusal that only a subprocess reaches (the CLI tests) counts as unrun.
pytest's own report goes to stderr; the exit code is pytest's.  Slow: the
tracer makes the whole tier-1 suite take minutes.  Standard library and
pytest only.

    python3 scripts/unrun_raises.py tests/test_ordval.py
"""

import ast
import contextlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "apxval"


def raises(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of every raise statement in ``source``."""
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
    )


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args`` and the lines each library file ran."""
    ran: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}

    def tracer(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    # read before the run, so the lines are those of the code that ran
    sources = {str(path): path.read_text() for path in sorted(SRC.glob("*.py"))}
    code, ran = run_traced(argv or [str(ROOT / "tests")])
    for name, source in sources.items():
        text = source.splitlines()
        for first, last in raises(source):
            if not ran[name].intersection(range(first, last + 1)):
                rel = Path(name).relative_to(ROOT)
                print(f"{rel} {first} {text[first - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
