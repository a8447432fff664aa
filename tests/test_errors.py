"""The one line reader, errors.rows, against a plain splitter; and a pin of
every place the package opens an input file, so that a second line reader
cannot come back unnoticed."""

import ast
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from groundrec import errors

PACKAGE = Path(errors.__file__).parent


def reference_rows(data):
    """Decode the whole file, read CR LF and CR as LF, split on LF, number
    the lines from 1 and drop blank and '#' lines."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return [(lineno, line.split("\t")) for lineno, line in enumerate(text.split("\n"), 1)
            if line and not line.startswith("#")]


# tabs, '#', multi-byte characters that a block may cut, and characters
# that str.splitlines would take as line ends but a text file does not
LINE = st.text(st.sampled_from(["a", "b", "\t", "#", " ", "é", "€", "𝄞", "\x0b", "\x85",
                                " "]), max_size=12)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(LINE, max_size=30), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       final=st.booleans(), block=st.sampled_from([1, 2, 3, 7, 1 << 16]),
       only=st.none() | st.sets(st.integers(1, 32)))
def test_rows_match_a_plain_splitter(tmp_path_factory, lines, newline, final, block, only):
    """Also with blocks of a few characters, which cut lines, CR LF pairs and
    multi-byte characters anywhere, and with only a set of line numbers."""
    path = tmp_path_factory.mktemp("rows") / "input.tsv"
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode())
    expected = [(lineno, fields) for lineno, fields in reference_rows(path.read_bytes())
                if only is None or lineno in only]
    with mock.patch.object(errors, "READ_BLOCK", block):
        assert list(errors.rows(path, "input", only)) == expected


def _input_opens():
    """(module, function, mode) of each call that opens a file for reading:
    every open_input call, and every builtin open whose mode is not a
    constant that writes."""
    found = set()
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        scopes = {}  # node -> names of the classes and functions holding it
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                for child in ast.walk(node):
                    scopes.setdefault(child, [])
                    scopes[child].append(node.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("open", "open_input")):
                continue
            args = {**dict(enumerate(node.args)),
                    **{kw.arg: kw.value for kw in node.keywords}}
            mode = args.get(2 if node.func.id == "open_input" else 1, args.get("mode"))
            if mode is None:
                mode = "r"
            elif isinstance(mode, ast.Constant):
                mode = mode.value
                if node.func.id == "open" and set(mode) & set("wax"):
                    continue  # an output
            else:
                mode = "variable"
            where = ".".join(scopes.get(node) or ["<module>"])
            found.add((source.stem, where, f"{node.func.id} {mode}"))
    return found


# Every place an input file is opened. Text is read only by errors.rows,
# the one line splitter, and by metrics.read_report, whose '#' lines carry
# data; every other input is binary, and every open goes through
# errors.open_input. A change that opens an input elsewhere edits this set.
INPUT_OPENS = {
    ("collab", "load_scorer", "open_input rb"),
    ("embed", "load_embeddings", "open_input rb"),
    ("embed", "load_embeddings_bin", "open_input rb"),
    ("errors", "_TextInput._not_utf8", "open_input rb"),
    ("errors", "open_input", "open variable"),
    ("errors", "rows", "open_input r"),
    ("manifest", "sha256_file", "open_input rb"),
    ("metrics", "read_report", "open_input r"),
}


def test_input_opens_are_pinned():
    assert _input_opens() == INPUT_OPENS


def test_no_other_way_to_read_a_file():
    """Path.read_text and kin would bypass open_input's error messages."""
    readers = {"read_text", "read_bytes", "fromfile", "loadtxt", "genfromtxt", "load",
               "readlines", "readline"}
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in readers, f"{source.name}:{node.lineno}"
