"""Run manifests: enough context beside each artifact to reproduce it.

Line-oriented key=value: the subcommand, the package version, one flag
line per parsed argument and a sha256 digest per input file. The flags come
from the parsed arguments themselves, so a flag cannot be left out: keys
keep the command line's hyphens, an unset optional flag is recorded as an
empty value, and only --threads is left out, since it never changes an
output byte. The inputs come from them too: every flag that names a file the
command reads has InputPath as its argparse type, and each one given is
hashed under its name. Re-running the recorded command on the same inputs
must reproduce byte-identical outputs.

cli.run writes a command's manifest once the command has returned, so its
data is freed before any input is hashed, and digests hands the freed heap
back to the system first. hashlib is imported only by sha256_file: it maps
OpenSSL's libcrypto (about 3.5 MiB of RSS), which then adds to what the
process holds after its work, not to its work's peak.
"""

from __future__ import annotations

from . import __version__
from .errors import open_input

# parsed attributes that are not flags of the command (or, for threads, that
# cannot change its output)
NOT_RECORDED = ("command", "func", "threads")


def sha256_file(path):
    import hashlib  # OpenSSL's sha256, loaded on the first input hashed

    h = hashlib.sha256()
    with open_input(path, "input", "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class InputPath(str):
    """The argparse type of a flag that names a file the command reads."""


def _trim_heap():
    """Hand the heap that the command's freed data left back to the system
    (glibc's malloc_trim; nothing elsewhere). Freed memory that malloc keeps
    stays resident, so without this the process's peak could be set while
    its inputs are hashed, by how the command's frees happened to fall
    rather than by what it holds, once libcrypto is mapped on top."""
    import ctypes

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):  # no glibc
        pass


def digests(args):
    """Input name -> sha256 hex digest, for each InputPath flag of the parsed
    args that was given a non-empty path. Freed heap is handed back first."""
    _trim_heap()
    return {name: sha256_file(value) for name, value in vars(args).items()
            if isinstance(value, InputPath) and value}


def write_manifest(path, args, input_digests=None):
    """args is the command's argparse namespace; input_digests, digests(args)
    unless the caller has already computed it."""
    if input_digests is None:
        input_digests = digests(args)
    flags = {key.replace("_", "-"): "" if value is None else value
             for key, value in vars(args).items() if key not in NOT_RECORDED}
    lines = [f"command={args.command}", f"version={__version__}"]
    for key in sorted(flags):
        lines.append(f"flag.{key}={flags[key]}")
    for name, digest in sorted(input_digests.items()):
        lines.append(f"input.{name}={digest}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
