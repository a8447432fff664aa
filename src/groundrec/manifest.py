"""Run manifests: enough context beside each artifact to reproduce it.

Line-oriented key=value: the subcommand, every flag, a sha256 digest per
input file, and the package version. Re-running the recorded command on the
same inputs must reproduce byte-identical outputs.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .errors import open_input


def sha256_file(path):
    h = hashlib.sha256()
    with open_input(path, "input", "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(inputs):
    """Input name -> sha256 hex digest of the file at its path."""
    return {name: sha256_file(path) for name, path in inputs.items()}


def write_manifest(path, command, flags, input_digests):
    """input_digests maps each input name to its digests() value."""
    lines = [f"command={command}", f"version={__version__}"]
    for key in sorted(flags):
        lines.append(f"flag.{key}={flags[key]}")
    for name, digest in sorted(input_digests.items()):
        lines.append(f"input.{name}={digest}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
