"""Smoke tests of the demo scripts: the only end-to-end check of the
printers on library output."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_theta_demo_prints_the_h_equals_p_law():
    lines = run_script("theta_demo.py")
    assert any(line.endswith("(h = 3 = p, beta = 0)") for line in lines), lines


def test_trace_pulldown_demo_runs():
    lines = run_script("trace_pulldown_demo.py")
    assert "h(x : Tr(d*x)) = 1" in lines


def test_run_corpus_passes_every_case():
    lines = run_script("run_corpus.py")
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    assert records and all(r["status"] == "pass" for r in records), records
    assert summary == {"cases": len(records), "passed": len(records)}


def test_code_lines_totals_the_files_and_skips_docstrings(tmp_path):
    lines = run_script("code_lines.py")
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total") and counts[-1] == sum(counts[:-1])
    assert any(line.endswith("src/apxval/hahn.py") for line in lines)
    path = tmp_path / "doc_only.py"
    path.write_text(
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """Only a docstring,\n'
        '    over two lines."""\n'
    )
    assert run_script("code_lines.py", str(path)) == [f"     1 {path}", "     1 total"]


def test_unrun_raises_lists_the_refusals_a_run_misses():
    # test_ordval.py runs shift_cut's refusal and never reaches the parser
    lines = run_script("unrun_raises.py", "tests/test_ordval.py")
    listed = set()
    for line in lines:
        path, lineno, text = line.split(" ", 2)
        assert path.startswith("src/apxval/") and text.startswith("raise"), line
        source = (ROOT / path).read_text().splitlines()
        assert source[int(lineno) - 1].strip() == text
        listed.add((path, text))
    zero_den = 'raise ParseError(self.text, self.pos, "zero denominator")'
    assert ("src/apxval/parsing.py", zero_den) in listed
    assert not any("shift by infinity" in text for _, text in listed)
