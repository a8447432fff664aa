"""Error types shared across the package, and the opener, line reader and
integer parser the input readers use.

UsageError maps to exit code 1, DataError to exit code 2 in the CLI.

rows() is the one line splitter: every line-oriented text input
(interactions, catalog, samples, TSV embeddings, popularity, generated text)
is read through it, READ_BLOCK characters at a time, each block's partial
last line carried into the next, so no reader holds more than a block of a
file's text. Newlines are universal, blank and '#' lines are skipped, and
the rest is split on tabs. Each reader checks only its own fields, and a
DataError about a line names the file and the line number rows() gave.
read_report, whose '# fingerprint:' comments carry data, reads its file whole.
"""

from itertools import chain

READ_BLOCK = 1 << 16  # characters of text read and split at a time


class GroundrecError(Exception):
    pass


class UsageError(GroundrecError):
    pass


class DataError(GroundrecError):
    pass


def open_input(path, what, mode="r"):
    """Open an input file for reading; an OS error becomes a DataError naming
    the file, so a missing or unreadable input exits 2 without a traceback.
    In text mode, bytes that are not UTF-8 also raise a DataError, naming
    the file and the line."""
    try:
        fh = open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as e:
        raise DataError(f"cannot read {what} file {path}: {e}") from e
    return fh if "b" in mode else _TextInput(fh, path, what)


def _line_blocks(fh):
    """The lines of a text input as lists, one per READ_BLOCK characters read,
    each block's partial last line carried into the next; a block's text and
    lines are let go before the next block is read."""
    tail = ""
    while block := fh.read(READ_BLOCK):
        lines = (tail + block).split("\n")
        del block
        tail = lines.pop()
        yield lines
        del lines
    yield [tail]


def rows(path, what, only=None):
    """(1-based line number, tab-split fields) per line of a text input, blank
    and '#' lines skipped, and with only, every line whose number it does not
    hold; open_input names the file of an OS or UTF-8 error."""
    with open_input(path, what) as fh:
        for lineno, line in enumerate(chain.from_iterable(_line_blocks(fh)), 1):
            if line and not line.startswith("#") and (only is None or lineno in only):
                yield lineno, line.split("\t")


def parse_int(text, what, lineno, path):
    """int(text), or a DataError naming the field, the line and the file."""
    try:
        return int(text)
    except ValueError:
        raise DataError(f"non-integer {what} {text!r} at line {lineno} in {path}") from None


class _TextInput:
    """A UTF-8 text file whose decode errors become a DataError. Text is
    decoded a block at a time, so the failing line is found by decoding the
    file again up to the first bad byte."""

    def __init__(self, fh, path, what):
        self._fh, self._path, self._what = fh, path, what

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, size=-1):
        """Up to size characters (all that is left by default)."""
        try:
            return self._fh.read(size)
        except UnicodeDecodeError as e:
            raise self._not_utf8() from e

    def _not_utf8(self):
        with open_input(self._path, self._what, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[:e.start].decode("utf-8")
            line = len(head.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
            return DataError(f"{self._what} file {self._path} is not UTF-8: "
                             f"byte {data[e.start]:#04x} at line {line}")
        return DataError(f"{self._what} file {self._path} changed while it was read")
