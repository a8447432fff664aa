"""Error types shared across the package, and the opener every input reader uses.

UsageError maps to exit code 1, DataError to exit code 2 in the CLI.
"""


class GroundrecError(Exception):
    pass


class UsageError(GroundrecError):
    pass


class DataError(GroundrecError):
    pass


def open_input(path, what, mode="r"):
    """Open an input file for reading; an OS error becomes a DataError naming
    the file, so a missing or unreadable input exits 2 without a traceback."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as e:
        raise DataError(f"cannot read {what} file {path}: {e}") from e
