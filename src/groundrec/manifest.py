"""Run manifests: enough context beside each artifact to reproduce it.

Line-oriented key=value: the subcommand, the package version, one flag.
line per parsed argument and a sha256 digest per input file. The flags come
from the parsed arguments themselves, so a flag cannot be left out: keys
keep the command line's hyphens, an unset optional flag is recorded as an
empty value, and only --threads is left out, since it never changes an
output byte. Re-running the recorded command on the same inputs must
reproduce byte-identical outputs.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .errors import open_input

# parsed attributes that are not flags of the command (or, for threads, that
# cannot change its output)
NOT_RECORDED = ("command", "func", "threads")


def sha256_file(path):
    h = hashlib.sha256()
    with open_input(path, "input", "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(inputs):
    """Input name -> sha256 hex digest of the file at its path."""
    return {name: sha256_file(path) for name, path in inputs.items()}


def write_manifest(path, args, input_digests):
    """args is the command's argparse namespace; input_digests maps each
    input name to its digests() value."""
    flags = {key.replace("_", "-"): "" if value is None else value
             for key, value in vars(args).items() if key not in NOT_RECORDED}
    lines = [f"command={args.command}", f"version={__version__}"]
    for key in sorted(flags):
        lines.append(f"flag.{key}={flags[key]}")
    for name, digest in sorted(input_digests.items()):
        lines.append(f"input.{name}={digest}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
