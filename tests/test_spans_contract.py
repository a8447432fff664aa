"""The benchmark traces groundrec by wrapping the functions and methods that
perfbench/spans.py names in FUNCTIONS and METHODS. A rename in groundrec
would break every traced benchmark run; these tests make it fail here."""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from groundrec import cli, ingest
from groundrec.embed import load_embeddings

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("module", SPANS.MODULES)
def test_module_exists(module):
    importlib.import_module(f"groundrec.{module}")


@pytest.mark.parametrize("name, module, attr",
                         [entry[:3] for entry in SPANS.FUNCTIONS])
def test_traced_function_exists(name, module, attr):
    assert callable(getattr(importlib.import_module(f"groundrec.{module}"), attr, None)), name


@pytest.mark.parametrize("name, module, cls, attr",
                         [entry[:4] for entry in SPANS.METHODS])
def test_traced_method_exists(name, module, cls, attr):
    klass = getattr(importlib.import_module(f"groundrec.{module}"), cls, None)
    assert klass is not None and callable(getattr(klass, attr, None)), name


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A split, hash-embedded catalog of four-token titles (held as its
    sparse plan) and oracle text for its test samples."""
    d = tmp_path_factory.mktemp("traced")
    ids = [f"i{k:03d}" for k in range(30)]
    (d / "catalog.tsv").write_text("".join(f"{i}\tquiet harbor volume {k}\n"
                                           for k, i in enumerate(ids)))
    rng = random.Random(4)
    (d / "interactions.tsv").write_text("".join(
        f"u{u:03d}\t{item}\t{u * 8 + t}\n"
        for u in range(20) for t, item in enumerate(rng.sample(ids, 8))))
    for argv in (["split", "--interactions", d / "interactions.tsv", "--out", d],
                 ["embed", "--catalog", d / "catalog.tsv", "--dim", 16, "--seed", 1,
                  "--out", d / "emb.bin"],
                 ["generate", "--samples", d / "samples_test.tsv", "--catalog",
                  d / "catalog.tsv", "--seed", 1, "--out", d / "gen.tsv"]):
        assert cli.main([str(a) for a in argv]) == 0
    catalog = ingest.parse_catalog(d / "catalog.tsv")
    assert load_embeddings(d / "emb.bin", catalog)._vectors is None
    return d


def _traced(d, name, argv):
    """The spans of argv run under spans.py to the end."""
    spans_json = d / f"spans_{name}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(SPANS_PATH), str(spans_json), "--", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(spans_json.read_text())


@pytest.mark.parametrize("command", ["ground", "eval"])
def test_traced_command_counts_distance_bytes(workspace, command):
    """The traced command runs to the end, and each distance span counts
    its bytes from the plan-held matrix's .vectors."""
    d = workspace
    argv = {
        "ground": ["ground", "--emb", d / "emb.bin", "--gen", d / "gen.tsv",
                   "--catalog", d / "catalog.tsv", "--seed", 1, "--out", d / "ranks.tsv"],
        "eval": ["eval", "--test", d / "samples_test.tsv", "--catalog", d / "catalog.tsv",
                 "--emb", d / "emb.bin", "--seed", 1, "--out", d / "report.tsv"],
    }[command]
    counts = [span[7] for span in _traced(d, command, argv)
              if span[0] == "ground.l2_distances"]
    assert counts and all(type(c) is int and c > 0 for c in counts)


@pytest.mark.parametrize("command, inject, span", [
    ("tune-gamma", "pop", "tune.tune_gamma"),
    ("eval", "collab", "harness.sample"),
])
def test_traced_injected_command_runs_to_the_end(workspace, command, inject, span):
    """The injected sweep and eval, both traced by the benchmark, run to the
    end under spans.py: tune-gamma --inject pop and eval --inject collab
    (one harness.sample span per test sample)."""
    d = workspace
    samples = d / ("samples_valid.tsv" if command == "tune-gamma" else "samples_test.tsv")
    argv = [command, "--valid" if command == "tune-gamma" else "--test", samples,
            "--catalog", d / "catalog.tsv", "--emb", d / "emb.bin",
            "--train", d / "train.tsv", "--inject", inject, "--seed", 1,
            "--threads", 2, "--out", d / f"{command}_{inject}.tsv"]
    if command == "eval":
        argv += ["--gamma", 2]
    names = [entry[0] for entry in _traced(d, f"{command}_{inject}", argv)]
    expected = 1 if command == "tune-gamma" else sum(
        1 for line in samples.read_text().splitlines() if line and not line.startswith("#"))
    assert names.count(span) == expected
    assert (d / f"{command}_{inject}.tsv").stat().st_size > 0
