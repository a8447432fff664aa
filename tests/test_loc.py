"""scripts/loc.py: the code lines of each src/groundrec module and their total."""

import importlib.util
import shutil
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


def test_against_a_revision_prints_both_sides_and_the_change(tmp_path):
    """In a repository of its own: a module grown, one deleted and one
    added since the commit, each beside its count there."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts" / "loc.py")
    src = tmp_path / "src" / "groundrec"
    src.mkdir(parents=True)
    (src / "kept.py").write_text("a = 1\n")
    (src / "gone.py").write_text("b = 1\nc = 2\n")
    (src / "notes.txt").write_text("not a module\n")

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
                        *args],
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (src / "kept.py").write_text('"""Doc."""\na = 1\nd = 4\n')
    (src / "gone.py").unlink()
    (src / "new.py").write_text("e = 5\n")
    out = subprocess.run([sys.executable, str(tmp_path / "scripts" / "loc.py"),
                          "--against", "HEAD"], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0].split() == ["HEAD", "now", "change", "module"]
    assert [line.split() for line in out[1:]] == [
        ["2", "0", "-2", "gone.py"],
        ["1", "2", "+1", "kept.py"],
        ["0", "1", "+1", "new.py"],
        ["3", "3", "+0", "total"],
    ]
