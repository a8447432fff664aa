#!/usr/bin/env python3
"""Code lines of each src/groundrec module, and their total.

    python3 scripts/loc.py [--against REV]

With --against, each module's code lines at the git revision REV (read
with `git show`, so the working tree is not touched) are printed beside the
working tree's, with the change; a module on one side only counts 0 on the
other.

A line counts if it holds a token other than a comment, a newline or an
indent, and is not part of a module, class or function docstring; a string
or expression that spans lines counts each of them. So a change that only
rewrites docstrings or comments leaves every figure as it is. Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "groundrec"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                          text=True, check=True).stdout


def counts_at(rev):
    """Module name -> code lines at the git revision rev."""
    names = git("ls-tree", "--name-only", f"{rev}:src/groundrec").split()
    return {name: code_lines(git("show", f"{rev}:src/groundrec/{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="print each module's code lines at REV beside the working tree's")
    opts = parser.parse_args(argv)
    now = {path.name: code_lines(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}
    if opts.against is None:
        for name, n in [*now.items(), ("total", sum(now.values()))]:
            print(f"{n:6d}  {name}")
        return 0
    before = counts_at(opts.against)
    rows = [(name, before.get(name, 0), now.get(name, 0)) for name in sorted({*before, *now})]
    rows.append(("total", sum(before.values()), sum(now.values())))
    print(f"{opts.against[:6]:>6s} {'now':>6s} {'change':>7s}  module")
    for name, b, n in rows:
        print(f"{b:6d} {n:6d} {n - b:+7d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
