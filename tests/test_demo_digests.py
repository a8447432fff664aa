"""The seed-7 demo's output bytes, pinned.

`scripts/run_demo.py --seed 7` drives every command of the CLI. This test
runs it into a temporary directory and compares the sha256 of every artifact
it writes with DIGESTS. The `*.manifest` files are left out: they record the
paths given on the command line, so they name the temporary directory. A
change that is meant to keep every output (a refactor, a speed-up) must pass
unchanged.

When an output change is intended, re-record the digests and say in the
change which artifacts moved and why:

    PYTHONPATH=src python3 tests/test_demo_digests.py

prints a new DIGESTS literal to paste over the one below. The digests hold
for the numpy the project is tested with; the float bytes of items.emb and of
the distance-derived files may differ under another numpy or platform.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

DIGESTS = {
    "catalog.tsv": "3048a9ccfe100eb62c21b59386defd78a9ced11b2b7ee736934dcb5412aec482",
    "co.bin": "2967c84198c4accc0946c37d5028eb9625dede4ee33701edfeea66bacdef942d",
    "compare.txt": "7292cb53176e77d0f5baf352df4c8df882d525bf4b8679be389000a19575b82c",
    "deciles.txt": "13f8648543c4342915e50431fb6cc817de18077c8c4e9089b23a966892c6382e",
    "gen_test.tsv": "7a014ff9e19b4c17405c28d08ed091fd314480813fa0154040a7eca4e99ad2be",
    "interactions.tsv": "e5905f62482261b6b8e3ae949b4fe7e7e24a6e4c918c01cb2196e96c1b6f2b86",
    "items.emb": "c6491f0cfd03ad3c613f330781918b202d09b64e1abc406fbe36f14a6eeefa02",
    "pop.tsv": "9ea04c590a127914d26135697982cf6fb8cab80cde17bae929a61fde3acd7bb1",
    "ranks.tsv": "a37d54a8ce4462bfab62fc5b24578e9fa3a0e2d9817bbd4e229923ac109e2021",
    "ranks_bm25.tsv": "0d808230886576f50e7cf4ccc2c5ca2168c180ff5dc6d05011af8708d60a808c",
    "ranks_collab.tsv": "cbcf12d99e7471c4a1b9f518f9b23f3f6d0612321c2dd5b6991430a7291f5dfe",
    "report_collab.txt": "f090972e681aca768de3ea7f3af772dd38bd708bd49251243f549aa03fc28adf",
    "report_injected.txt": "90896ecd0414d623c9fb1f374404b00b9497dcf085140b65abc61b7c17539a65",
    "report_most_pop.txt": "7819d49484bd81aa1bcb60a88fa6bb71048704c65cbaa84178df832263dbbe13",
    "report_plain.txt": "4a29316d5fb32de2237713a26bd29afae8b2e7cbf5d45f434d8a257b691eed41",
    "splits/samples_test.tsv":
        "fb51db8b38b84bc4a1778aedb194319b5ea3b6d40a50c08068b579016b890aff",
    "splits/samples_train.tsv":
        "032e7af5363e9464e0b790d92cf89679822a73e0496667ae14e10f5cf441e21a",
    "splits/samples_valid.tsv":
        "ab76c7461343584a23dd59d84cdf8f78d7c19f041296ca490fea108fa67c4aef",
    "splits/split.meta": "c7b417bdde6f4bedafc08d383985cb5f4d951bf43c5d682ab84aa8f1badaaa5b",
    "splits/test.tsv": "5337e0b59dbd998c8bb5a5a2d66d6de8dee18402a5ff895740fbd75ab1806724",
    "splits/train.tsv": "45032fc1abd1d78a2f3ae0dffc0eabf3c31f180b3c820798984f1dc0d1520762",
    "splits/valid.tsv": "8793759030d2752ed3f659488d8e2a15bb24b876e9177a81e6318e32afde7fe1",
    "sweep.tsv": "4d4c95e3fe0bb7fc268d34998275267fa03b60f0e1bec579232fc0203f61102a",
}


def demo_digests(out):
    """Run the seed-7 demo into out; the sha256 of each artifact but the
    manifests, by path relative to out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), "--seed", "7",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith(".manifest")}


def test_demo_artifacts_byte_identical(tmp_path):
    assert demo_digests(tmp_path / "demo") == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print("DIGESTS = {")
        for name, digest in demo_digests(Path(scratch) / "demo").items():
            print(f'    "{name}": "{digest}",')
        print("}")
