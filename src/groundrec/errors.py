"""Error types shared across the package, and the opener, row reader and
integer parser the input readers use.

UsageError maps to exit code 1, DataError to exit code 2 in the CLI.

The line-oriented text inputs (catalog, samples, TSV embeddings, popularity,
generated text) are read through rows(): blank lines and lines starting with
'#' are skipped, the newline is stripped and the rest is split on tabs. Each
reader checks only its own fields, and a DataError about a line names the
file and the line number rows() gave. parse_interactions, which counts
malformed lines instead of raising and reads a block of text at a time, and
read_report, whose '# fingerprint:' comments carry data, read their files
themselves.
"""


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


def rows(path, what):
    """(1-based line number, tab-split fields) per line of a text input, blank
    and '#' lines skipped; open_input names the file of an OS or UTF-8 error."""
    with open_input(path, what) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
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

    def __iter__(self):
        try:
            yield from self._fh
        except UnicodeDecodeError as e:
            raise self._not_utf8() from e

    def read(self, size=-1):
        """Up to size characters (all that is left by default)."""
        try:
            return self._fh.read(size)
        except UnicodeDecodeError as e:
            raise self._not_utf8() from e

    def _not_utf8(self):
        with open(self._path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[:e.start].decode("utf-8")
            line = len(head.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
            return DataError(f"{self._what} file {self._path} is not UTF-8: "
                             f"byte {data[e.start]:#04x} at line {line}")
        return DataError(f"{self._what} file {self._path} changed while it was read")
