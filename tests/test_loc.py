"""scripts/loc.py: the code lines of each src/groundrec module and their total."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout
    counts = {name: int(n) for n, name in (line.split() for line in out.splitlines())}
    modules = sorted(p.name for p in (REPO / "src" / "groundrec").glob("*.py"))
    assert list(counts) == [*modules, "total"]
    assert counts["total"] == sum(counts[m] for m in modules)
    for m in modules:
        lines = (REPO / "src" / "groundrec" / m).read_text(encoding="utf-8").splitlines()
        assert 0 < counts[m] <= len(lines)


def test_docstrings_comments_and_blank_lines_not_counted():
    source = '''"""Module
docstring."""
# a comment

import os  # counted


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string
        that is not a docstring"""
        return (x +
                1)
'''
    # import, class, def, the two lines of s and the two of the return
    assert load_loc().code_lines(source) == 7
