import argparse
import os
import random
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import make_scorer
from groundrec import cli, ingest, manifest
from groundrec.collab import save_scorer
from groundrec.embed import load_embeddings
from groundrec.errors import READ_BLOCK, DataError
from groundrec.ground import L2_BLOCK
from groundrec.ingest import sample_eval
from groundrec.metrics import aggregate, read_report, write_report
from groundrec.pop import read_popularity


def write_fixture(tmp_path, n_users=30, n_items=20, events_per_user=8, seed=13):
    rng = random.Random(seed)
    ids = [f"i{k:03d}" for k in range(n_items)]
    cat = tmp_path / "catalog.tsv"
    cat.write_text(
        "".join(f"{i}\ttale {k} of the {i} saga\n" for k, i in enumerate(ids))
    )
    lines = []
    t = 0
    for u in range(n_users):
        for item in rng.sample(ids, events_per_user):
            lines.append(f"u{u:03d}\t{item}\t{t}")
            t += 1
    inter = tmp_path / "interactions.tsv"
    inter.write_text("\n".join(lines) + "\n")
    return inter, cat


def spoiled_report(old, new):
    """The report TestReportCommand.make_report writes for value 0.5, with
    the text old replaced by new."""
    report = ("# fingerprint: sha256.test=aaa\n"
              + "".join(f"hr@{k}\t0.5\n" for k in (1, 3, 5, 10, 20))
              + "".join(f"ndcg@{k}\t0.4\n" for k in (1, 3, 5, 10, 20))
              + "n_samples\t10\nskipped\t0\n")
    assert old in report
    return report.replace(old, new)


def run_ok(argv):
    assert cli.run([str(a) for a in argv]) == 0


def embed(cat, path, dim, seed):
    """Write the catalog matrix that eval and tune-gamma read with --emb;
    seed must be the --seed of the command that reads it."""
    run_ok(["embed", "--catalog", cat, "--dim", dim, "--seed", seed, "--out", path])
    return path


class TestSplitCommand:
    def test_emits_expected_files(self, tmp_path):
        inter, _ = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        for name in ("train.tsv", "valid.tsv", "test.tsv", "split.meta",
                     "samples_train.tsv", "samples_valid.tsv", "samples_test.tsv",
                     "run.manifest"):
            assert (out / name).exists(), name
        meta = dict(
            line.split("=", 1) for line in (out / "split.meta").read_text().splitlines()
        )
        total = int(meta["n_total"])
        assert int(meta["n_train"]) + int(meta["n_valid"]) + int(meta["n_test"]) == total

    def test_missing_flag_usage_error(self, capsys):
        assert cli.main(["split", "--out", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_file_data_error(self, tmp_path):
        assert cli.main(["split", "--interactions", str(tmp_path / "no.tsv"),
                        "--out", str(tmp_path / "o")]) == 2

    def test_separator_in_item_id_data_error(self, tmp_path, capsys):
        inter, _ = write_fixture(tmp_path)
        with open(inter, "a", encoding="utf-8") as fh:
            fh.write("u000\tbad,id\t99999\n")
        assert cli.main(["split", "--interactions", str(inter),
                         "--out", str(tmp_path / "o")]) == 2
        assert "'bad,id' contains a separator" in capsys.readouterr().err


CATALOG = ingest.ItemCatalog({"a": "an item"})
READERS = {  # what, reader of a path, a good first line
    "interactions": (ingest.parse_interactions, "u\ta\t1"),
    "catalog": (ingest.parse_catalog, "a\tan item"),
    "samples": (lambda p: ingest.read_samples(p, CATALOG),
                "u\t" + ",".join("a" * 10) + "\ta\t1\t"),
    "popularity": (lambda p: read_popularity(p, CATALOG), "a\t3"),
    "generated-text": (cli._read_generated, "0\tsome text"),
    "report": (read_report, "hr@1\t0.5"),
    "embedding": (lambda p: load_embeddings(p, CATALOG), "a\t0.5\t0.25"),
}


class TestNotUtf8:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("what", sorted(READERS))
    def test_reader_names_file_and_line(self, tmp_path, what, newline):
        reader, good = READERS[what]
        path = tmp_path / "input.tsv"
        path.write_bytes(newline.join([good, "# note", "x\xff\ty", good])
                         .encode("latin-1"))
        with pytest.raises(DataError) as err:
            reader(path)
        message = str(err.value)
        assert f"{what} file {path} is not UTF-8" in message
        assert "byte 0xff at line 3" in message

    def test_split_exits_2(self, tmp_path, capsys):
        inter, _ = write_fixture(tmp_path)
        inter.write_bytes(inter.read_bytes() + b"u000\t\xe9t\xe9\t99999\n")
        assert cli.main(["split", "--interactions", str(inter),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"interactions file {inter} is not UTF-8: byte 0xe9 at line 241" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad", ["catalog", "samples", "drawn-samples"])
    def test_past_the_first_block_exits_2(self, tmp_path, capsys, bad, newline):
        """The bad byte sits blocks after the first; the error still names
        its line, also in a --sample-n draw's first pass."""
        items = [f"m{k:05d}" for k in range(8000)]
        catalog = [f"{item}\ta quiet harbor story" for item in items]
        samples = [f"u{k}\t{','.join(items[k:k + 10])}\t{items[k + 10]}\t{k}\t{items[k]}"
                   for k in range(7000)]
        lines = catalog if bad == "catalog" else samples
        assert len(newline.join(lines[:6000])) > 2 * READ_BLOCK
        lines[6000] = lines[6000].replace("\t", "\t\xe9", 1)
        files = {}
        for what, text in (("catalog", catalog), ("samples", samples)):
            files[what] = tmp_path / f"{what}.tsv"
            files[what].write_bytes(newline.join(text).encode("latin-1"))
        train = tmp_path / "train.tsv"
        train.write_text("u0\tm00000\t1\n")
        argv = {
            "catalog": ["embed", "--catalog", files["catalog"], "--dim", 8],
            "samples": ["generate", "--samples", files["samples"],
                        "--catalog", files["catalog"]],
            "drawn-samples": ["eval", "--test", files["samples"], "--catalog", files["catalog"],
                              "--generator", "most-pop", "--train", train,
                              "--sample-n", 5],
        }[bad]
        out = tmp_path / "out"
        assert cli.main([str(a) for a in [*argv, "--seed", 1, "--out", out]]) == 2
        err = capsys.readouterr().err
        what = "catalog" if bad == "catalog" else "samples"
        assert (f"{what} file {files[what]} is not UTF-8: byte 0xe9 at line 6001"
                in err)
        assert "Traceback" not in err and not out.exists()


class TestFlagValues:
    """Bad flag values and conflicting flags exit 1 before any input is read."""

    REQUIRED = {
        "embed": ["--catalog", "c.tsv", "--seed", "1"],
        "eval": ["--test", "s.tsv", "--catalog", "c.tsv", "--seed", "1"],
        "tune-gamma": ["--valid", "s.tsv", "--catalog", "c.tsv", "--seed", "1"],
        "generate": ["--samples", "s.tsv", "--catalog", "c.tsv", "--seed", "1"],
        "ground": ["--emb", "e.bin", "--gen", "g.tsv", "--catalog", "c.tsv",
                   "--seed", "1"],
    }

    @pytest.mark.parametrize("command, flags, message", [
        ("embed", ["--dim", "0"], "argument --dim: must be at least 1, got 0"),
        ("eval", [], "--generator oracle requires --emb"),
        ("eval", ["--ngram-order", "0"],
         "argument --ngram-order: must be at least 1, got 0"),
        ("generate", ["--ngram-order", "0"],
         "argument --ngram-order: must be at least 1, got 0"),
        ("ground", ["--topk", "-3"], "argument --topk: must be at least 1, got -3"),
        ("tune-gamma", ["--metric", "bogus"],
         "argument --metric: invalid choice: 'bogus'"),
        ("ground", ["--strategy", "bm25", "--inject", "pop", "--popularity", "p.tsv"],
         "--strategy bm25 cannot take --inject pop"),
        ("ground", ["--strategy", "bm25", "--inject", "collab", "--scorer", "co.bin"],
         "--strategy bm25 cannot take --inject collab"),
        ("eval", ["--generator", "most-pop", "--inject", "pop", "--train", "t.tsv"],
         "--generator most-pop ranks by popularity alone"),
        ("eval", ["--generator", "most-pop", "--gamma", "2", "--train", "t.tsv"],
         "--generator most-pop ranks by popularity alone"),
        ("ground", ["--bm25-k1", "nan"],
         "argument --bm25-k1: must be a finite number >= 0, got nan"),
        ("ground", ["--bm25-k1", "inf"],
         "argument --bm25-k1: must be a finite number >= 0, got inf"),
        ("ground", ["--bm25-k1", "-1"],
         "argument --bm25-k1: must be a finite number >= 0, got -1"),
        ("ground", ["--bm25-k1", "x"], "argument --bm25-k1: invalid float value: 'x'"),
        ("ground", ["--bm25-b", "nan"], "argument --bm25-b: must lie in [0, 1], got nan"),
        ("ground", ["--bm25-b", "-0.1"], "argument --bm25-b: must lie in [0, 1], got -0.1"),
        ("ground", ["--bm25-b", "1.5"], "argument --bm25-b: must lie in [0, 1], got 1.5"),
        ("eval", ["--threads", "0"], "argument --threads: must be at least 1, got 0"),
        ("tune-gamma", ["--threads", "-3"],
         "argument --threads: must be at least 1, got -3"),
        ("eval", ["--gamma", "2"], "--gamma 2 needs --inject pop or collab"),
        ("eval", ["--inject", "none", "--gamma", "0.5"],
         "--gamma 0.5 needs --inject pop or collab"),
        ("ground", ["--gamma", "1"], "--gamma 1 needs --inject pop or collab"),
        ("ground", ["--strategy", "bm25", "--gamma", "3"],
         "--gamma 3 needs --inject pop or collab"),
        ("eval", ["--generator", "ngram", "--emb", ""], "--generator ngram requires --emb"),
        ("tune-gamma", ["--inject", "pop"], "--inject pop requires --train"),
        ("tune-gamma", ["--train", "t.tsv"], "--generator oracle requires --emb"),
        ("eval", ["--inject", "pop", "--emb", "e.bin"], "--inject pop requires --train"),
        ("eval", ["--generator", "most-pop"], "--generator most-pop requires --train"),
        ("tune-gamma", ["--inject", "collab", "--emb", "e.bin"],
         "--inject collab requires --train"),
        ("generate", ["--generator", "pop"], "--generator pop requires --train"),
        ("ground", ["--inject", "pop", "--gamma", "1"], "--inject pop requires --popularity"),
        ("ground", ["--inject", "collab", "--gamma", "1", "--scorer", "co.bin"],
         "--inject collab requires --scorer and --samples"),
        ("ground", ["--inject", "collab", "--gamma", "1", "--samples", "s.tsv"],
         "--inject collab requires --scorer and --samples"),
    ])
    def test_usage_error(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "o.tsv"
        argv = [command, *self.REQUIRED[command], *flags, "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "eval", "tune-gamma", "generate",
                                         "ground"])
    def test_seed_required(self, tmp_path, capsys, command):
        """No command has a default seed: leaving --seed out is a usage error."""
        out = tmp_path / "o.tsv"
        required = self.REQUIRED[command]
        at = required.index("--seed")
        argv = [command, *required[:at], *required[at + 2:], "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "the following arguments are required: --seed" in err
        assert "Traceback" not in err and not out.exists()


class TestPipelineCommands:
    @pytest.fixture
    def workspace(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        return tmp_path, inter, cat, out

    def test_popularity_and_deciles(self, workspace):
        tmp_path, inter, cat, out = workspace
        poptsv = tmp_path / "popularity.tsv"
        run_ok(["popularity", "--train", out / "train.tsv", "--catalog", cat,
                "--out", poptsv, "--deciles", tmp_path / "deciles.tsv"])
        rows = [l for l in poptsv.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 20
        shares = [
            float(l.split("\t")[2])
            for l in (tmp_path / "deciles.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_embed_binary_and_tsv(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["embed", "--catalog", cat, "--dim", 64,
                "--seed", 17, "--out", tmp_path / "emb.bin"])
        assert (tmp_path / "emb.bin").read_bytes()[:4] == b"GREC"
        run_ok(["embed", "--catalog", cat, "--dim", 64,
                "--seed", 17, "--out", tmp_path / "emb.tsv"])
        assert (tmp_path / "emb.tsv").read_text().count("\n") == 20

    def test_generate_ground_roundtrip(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["embed", "--catalog", cat, "--dim", 64, "--seed", 17,
                "--out", tmp_path / "emb.bin"])
        run_ok(["generate", "--samples", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--seed", 17, "--out", tmp_path / "gen.tsv"])
        run_ok(["ground", "--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                "--catalog", cat, "--samples", out / "samples_test.tsv",
                "--seed", 17, "--topk", 5, "--out", tmp_path / "ranks.tsv"])
        lines = (tmp_path / "ranks.tsv").read_text().splitlines()
        assert lines
        # oracle echo + same hash seed: rank-1 row should name the target
        samples = (out / "samples_test.tsv").read_text().splitlines()
        targets = [l.split("\t")[2] for l in samples]
        rank1 = {int(l.split("\t")[0]): l.split("\t")[2]
                 for l in lines if l.split("\t")[1] == "1"}
        hits = sum(1 for i, item in rank1.items() if targets[i] == item)
        assert hits == len(rank1)

    def test_ground_bm25_strategy(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["embed", "--catalog", cat, "--dim", 64, "--seed", 17,
                "--out", tmp_path / "emb.bin"])
        run_ok(["generate", "--samples", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--seed", 17, "--out", tmp_path / "gen.tsv"])
        run_ok(["ground", "--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                "--catalog", cat, "--samples", out / "samples_test.tsv",
                "--strategy", "bm25", "--topk", 3, "--seed", 17,
                "--out", tmp_path / "bm25.tsv"])
        assert (tmp_path / "bm25.tsv").read_text().splitlines()

    def test_collab_fit(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["collab-fit", "--train", out / "train.tsv", "--catalog", cat,
                "--out", tmp_path / "scorer.bin"])
        assert (tmp_path / "scorer.bin").read_bytes()[:4] == b"GRCO"

    def test_eval_oracle_perfect(self, workspace):
        tmp_path, inter, cat, out = workspace
        emb = embed(cat, tmp_path / "emb.bin", 128, 3)
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--emb", emb, "--generator", "oracle", "--seed", 3,
                "--out", tmp_path / "report.tsv"])
        report = read_report(tmp_path / "report.tsv")
        assert report.hr[1] == 1.0
        assert report.ndcg[1] == 1.0

    def test_eval_injection_modes(self, workspace):
        tmp_path, inter, cat, out = workspace
        emb = embed(cat, tmp_path / "emb.bin", 64, 3)
        for inject in ("pop", "collab"):
            run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                    "--emb", emb, "--train", out / "train.tsv", "--generator", "oracle",
                    "--inject", inject, "--gamma", 0.5, "--seed", 3,
                    "--out", tmp_path / f"report_{inject}.tsv"])
            report = read_report(tmp_path / f"report_{inject}.tsv")
            assert 0.0 <= report.ndcg[20] <= 1.0

    def test_eval_most_pop_and_dump_ranks(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--train", out / "train.tsv", "--generator", "most-pop",
                "--seed", 3, "--out", tmp_path / "mp.tsv"])
        report = read_report(tmp_path / "mp.tsv")
        assert report.n_samples > 0
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--emb", embed(cat, tmp_path / "emb.bin", 64, 3),
                "--generator", "ngram", "--seed", 3,
                "--dump-ranks", tmp_path / "ranks.dump",
                "--out", tmp_path / "ng.tsv"])
        assert (tmp_path / "ranks.dump").read_text().splitlines()

    def test_tune_gamma_sweep(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["tune-gamma", "--valid", out / "samples_valid.tsv", "--catalog", cat,
                "--emb", embed(cat, tmp_path / "emb.bin", 64, 3),
                "--train", out / "train.tsv", "--generator", "oracle",
                "--inject", "pop", "--seed", 3,
                "--metric", "ndcg@20", "--out", tmp_path / "sweep.tsv"])
        lines = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert len(lines) == 201  # header + 200 grid points

    def test_tune_gamma_refuses_a_draw_of_repeats_only(self, workspace, capsys):
        tmp_path, inter, cat, out = workspace
        repeats = tmp_path / "repeats.tsv"
        with open(repeats, "w", encoding="utf-8") as fh:
            for line in (out / "samples_valid.tsv").read_text().splitlines():
                user, history, _, ts, known = line.split("\t")
                fh.write(f"{user}\t{history}\t{known.split(',')[0]}\t{ts}\t{known}\n")
        sweep = tmp_path / "sweep.tsv"
        assert cli.main(["tune-gamma", "--valid", str(repeats), "--catalog", str(cat),
                         "--emb", str(embed(cat, tmp_path / "emb.bin", 16, 3)),
                         "--train", str(out / "train.tsv"), "--inject", "pop",
                         "--sample-n", "3", "--seed", "3", "--out", str(sweep)]) == 2
        err = capsys.readouterr().err
        assert f"no drawn validation sample in {repeats} was kept" in err
        assert not sweep.exists()


def run_probe(probe, argv):
    """The last line that the probe, run with the groundrec arguments argv in
    a fresh interpreter, prints."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


# runs the groundrec command given as its arguments, then prints whether numpy
# was imported
NUMPY_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("numpy imported:", "numpy" in sys.modules))
sys.argv[0] = "groundrec"
runpy.run_module("groundrec.cli", run_name="__main__")
"""


class TestImportsPerCommand:
    """Each command is a process of its own, so what it imports is part of
    its cost: report, --help and the oracle and ngram generators load no numpy.
    The pop generator counts popularity with numpy, which shows the probe works."""

    @pytest.mark.parametrize("command", ["help", "report", "oracle", "ngram", "pop"])
    def test_numpy_imported_only_where_used(self, tmp_path, command):
        inter, cat = write_fixture(tmp_path)
        run_ok(["split", "--interactions", inter, "--out", tmp_path])
        report = tmp_path / "report.tsv"
        report.write_text("hr@1\t0.5\nndcg@1\t0.5\nn_samples\t2\nskipped\t0\n")
        argv = {
            "help": ["--help"],
            "report": ["report", report, report, "--out", tmp_path / "compare.txt"],
        }.get(command, ["generate", "--samples", tmp_path / "samples_test.tsv",
                        "--catalog", cat, "--generator", command, "--seed", 1,
                        "--train", tmp_path / "train.tsv", "--out", tmp_path / "gen.tsv"])
        assert run_probe(NUMPY_PROBE, argv) == f"numpy imported: {command == 'pop'}"

    @pytest.mark.parametrize("command", ["popularity", "collab-fit", "embed"])
    def test_tokenizer_loaded_only_where_titles_are_tokenized(self, tmp_path, command):
        """Commands that read the catalog but tokenize no title leave
        groundrec.text unloaded: one more module raised the catalog20k peak
        RSS of collab-fit by 0.4-0.8 MiB. embed tokenizes, which shows the
        probe works."""
        inter, cat = write_fixture(tmp_path)
        run_ok(["split", "--interactions", inter, "--out", tmp_path])
        argv = {"popularity": ["popularity", "--train", tmp_path / "train.tsv",
                               "--catalog", cat, "--out", tmp_path / "pop.tsv"],
                "collab-fit": ["collab-fit", "--train", tmp_path / "train.tsv",
                               "--catalog", cat, "--out", tmp_path / "co.bin"],
                "embed": ["embed", "--catalog", cat, "--dim", 8, "--seed", 1,
                          "--out", tmp_path / "items.emb"]}[command]
        probe = NUMPY_PROBE.replace('"numpy imported:", "numpy"',
                                    '"text imported:", "groundrec.text"')
        assert run_probe(probe, argv) == f"text imported: {command == 'embed'}"


# runs the groundrec command given as its arguments and prints, as of its first
# manifest.sha256_file call, whether _hashlib (OpenSSL) was loaded and which
# objects of the command's data gc still finds
HASH_PROBE = """
import atexit, gc, runpy, sys
from groundrec import manifest
HELD = {"ItemCatalog", "InteractionLog", "EmbeddingMatrix", "Pipeline", "BM25Index"}
seen = []
original = manifest.sha256_file

def probe(path):
    if not seen:
        live = sorted({type(o).__name__ for o in gc.get_objects()
                       if type(o).__name__ in HELD
                       and type(o).__module__.startswith("groundrec.")})
        seen.append(f"_hashlib loaded: {'_hashlib' in sys.modules}; live: {live}")
    return original(path)

manifest.sha256_file = probe
atexit.register(lambda: print(seen[0] if seen else
                              f"nothing hashed; _hashlib loaded: {'_hashlib' in sys.modules}"))
sys.argv[0] = "groundrec"
runpy.run_module("groundrec.cli", run_name="__main__")
"""


class TestHashedLast:
    """Each command hashes its inputs only once its data is freed, and loads
    OpenSSL (_hashlib) only to hash: at the first digest no catalog, log,
    matrix, pipeline or BM25 index is alive and _hashlib is not yet loaded.
    report and --help never load it."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("hashed_last")
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        run_ok(["popularity", "--train", out / "train.tsv", "--catalog", cat,
                "--out", tmp_path / "pop.tsv"])
        run_ok(["collab-fit", "--train", out / "train.tsv", "--catalog", cat,
                "--out", tmp_path / "co.bin"])
        embed(cat, tmp_path / "items.emb", 32, 3)
        run_ok(["generate", "--samples", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--seed", 3, "--out", tmp_path / "gen.tsv"])
        report = tmp_path / "report.tsv"
        report.write_text("hr@1\t0.5\nndcg@1\t0.5\nn_samples\t2\nskipped\t0\n")
        return tmp_path, inter, cat, out

    def commands(self, tmp_path, inter, cat, out):
        o = tmp_path / "probe"
        train = ["--train", out / "train.tsv"]
        pipeline = ["--catalog", cat, "--emb", tmp_path / "items.emb", *train,
                    "--generator", "ngram", "--seed", 3, "--threads", 2]
        ground = ["ground", "--emb", tmp_path / "items.emb", "--gen", tmp_path / "gen.tsv",
                  "--catalog", cat, "--samples", out / "samples_test.tsv", "--seed", 3]
        return {
            "split": ["split", "--interactions", inter, "--out", o],
            "popularity": ["popularity", *train, "--catalog", cat,
                           "--out", f"{o}.pop", "--deciles", f"{o}.deciles"],
            "embed": ["embed", "--catalog", cat, "--dim", 32, "--seed", 3,
                      "--out", f"{o}.emb"],
            "collab-fit": ["collab-fit", *train, "--catalog", cat, "--out", f"{o}.co"],
            "generate": ["generate", "--samples", out / "samples_test.tsv",
                         "--catalog", cat, "--generator", "ngram", *train, "--seed", 3,
                         "--out", f"{o}.gen"],
            "ground-l2": ground + ["--inject", "collab", "--scorer", tmp_path / "co.bin",
                                   "--gamma", 1, "--out", f"{o}.l2"],
            "ground-bm25": ground + ["--strategy", "bm25", "--out", f"{o}.bm25"],
            "eval": ["eval", "--test", out / "samples_test.tsv", *pipeline,
                     "--inject", "pop", "--gamma", 1, "--dump-ranks", f"{o}.ranks",
                     "--out", f"{o}.report"],
            "tune-gamma": ["tune-gamma", "--valid", out / "samples_valid.tsv", *pipeline,
                           "--inject", "collab", "--out", f"{o}.sweep"],
        }

    @pytest.mark.parametrize("command", ["split", "popularity", "embed", "collab-fit",
                                         "generate", "ground-l2", "ground-bm25", "eval",
                                         "tune-gamma"])
    def test_inputs_hashed_after_the_data_is_freed(self, workspace, command):
        argv = self.commands(*workspace)[command]
        assert run_probe(HASH_PROBE, argv) == "_hashlib loaded: False; live: []"

    @pytest.mark.parametrize("command", ["help", "report"])
    def test_no_openssl_without_a_manifest(self, workspace, command):
        tmp_path = workspace[0]
        report = tmp_path / "report.tsv"
        argv = {"help": ["--help"],
                "report": ["report", report, report, "--out", tmp_path / "compare.txt"]}
        assert run_probe(HASH_PROBE, argv[command]) == \
            "nothing hashed; _hashlib loaded: False"


class TestReportCommand:
    def make_report(self, path, value, fingerprint="aaa", more=""):
        path.write_text(
            f"# fingerprint: sha256.test={fingerprint}\n" + more
            + "".join(f"hr@{k}\t{value}\n" for k in (1, 3, 5, 10, 20))
            + "".join(f"ndcg@{k}\t{value * 0.8}\n" for k in (1, 3, 5, 10, 20))
            + "n_samples\t10\nskipped\t0\n"
        )

    def test_compare_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self.make_report(a, 0.5)
        self.make_report(b, 0.5)
        run_ok(["report", a, b, "--mode", "compare"])
        out = capsys.readouterr().out
        assert "hr@1\t0.5\t0.5" in out

    def test_improve2lv_hand_example(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.tsv", "b.tsv", "c.tsv"))
        self.make_report(a, 0.02)
        self.make_report(b, 0.03)
        self.make_report(c, 0.036)
        run_ok(["report", a, b, c, "--mode", "improve2lv"])
        out = capsys.readouterr().out
        assert "+0.2" in out

    def test_improve2lv_negative_when_combined_below(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.tsv", "b.tsv", "c.tsv"))
        self.make_report(a, 0.04)
        self.make_report(b, 0.03)
        self.make_report(c, 0.02)
        run_ok(["report", a, b, c, "--mode", "improve2lv"])
        assert "-0.5" in capsys.readouterr().out

    def test_fingerprint_mismatch_fatal_unless_forced(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self.make_report(a, 0.5, fingerprint="aaa")
        self.make_report(b, 0.5, fingerprint="bbb")
        assert cli.main(["report", str(a), str(b)]) == 2
        run_ok(["report", a, b, "--force"])

    @pytest.mark.parametrize("key, inputs", [("catalog", "catalogs"),
                                             ("emb", "embedding files")])
    def test_input_mismatch_fatal_unless_forced(self, tmp_path, capsys, key, inputs):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self.make_report(a, 0.5, more=f"# fingerprint: sha256.{key}=ccc\n")
        self.make_report(b, 0.5, more=f"# fingerprint: sha256.{key}=ddd\n")
        assert cli.main(["report", str(a), str(b)]) == 2
        assert f"reports were computed on different {inputs}" in capsys.readouterr().err
        run_ok(["report", a, b, "--force"])

    def test_report_without_emb_compares_with_any(self, tmp_path):
        # Most-Pop reads no --emb and records no emb digest
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self.make_report(a, 0.5, more="# fingerprint: sha256.emb=ccc\n")
        self.make_report(b, 0.5)
        run_ok(["report", a, b])

    @pytest.mark.parametrize("content, message", [
        ("hr@1\tabc\n", "hr@1 'abc' is not a finite number at line 1 in report file"),
        ("# c\nhr@1\t0.5\nhr@x\t1\n", "K 'x' is not an integer at line 3 in report file"),
        ("hr@1\tnan\n", "hr@1 'nan' is not a finite number at line 1 in report file"),
        ("n_samples\t1.5\n", "n_samples '1.5' is not an integer at line 1 in report file"),
        ("mrr@1\t0.5\n", "unrecognized report line 'mrr@1\\t0.5' at line 1 in report file"),
        pytest.param("hr@1\t0.5\nn_samples\t2\n", "has no skipped line",
                     id="hr-and-n-samples-only"),
        pytest.param("hr@1\t0.5\nn_samples\t2\nskipped\t0\n",
                     "gives hr@K for K in [1] but ndcg@K for K in []; both need the same K",
                     id="hr-without-ndcg"),
        pytest.param("hr@1\t0.5\nndcg@3\t0.5\nn_samples\t2\nskipped\t0\n",
                     "gives hr@K for K in [1] but ndcg@K for K in [3]", id="k-sets-differ"),
        pytest.param("n_samples\t2\nskipped\t0\n",
                     "gives hr@K for K in [] but ndcg@K for K in []", id="no-metric-line"),
        pytest.param("hr@1\t0.5\nndcg@1\t0.5\nn_samples\t2\n", "has no skipped line",
                     id="no-skipped"),
        pytest.param("hr@1\t0.5\nndcg@1\t0.5\nskipped\t0\n", "has no n_samples line",
                     id="no-n-samples"),
        pytest.param("", "has no n_samples line", id="empty-file"),
        pytest.param("hr@1\t0.5\nndcg@1\t0.5\nhr@1\t0.7\nn_samples\t2\nskipped\t0\n",
                     "hr@1 is given twice, at lines 1 and 3 in report file",
                     id="metric-repeated"),
        pytest.param("hr@5\t0.5\nhr@05\t0.5\n", "hr@5 is given twice, at lines 1 and 2",
                     id="metric-repeated-as-another-k-spelling"),
        pytest.param("n_samples\t2\n# note\nn_samples\t2\n",
                     "n_samples is given twice, at lines 1 and 3", id="count-repeated"),
        pytest.param("# fingerprint: seed=1\n# fingerprint: seed=2\n",
                     "fingerprint seed is given twice, at lines 1 and 2",
                     id="fingerprint-key-repeated"),
        # whole reports with one value that no eval writes
        pytest.param(spoiled_report("hr@1\t0.5", "hr@1\t1.5"),
                     "hr@1 '1.5' is not between 0 and 1 at line 2", id="metric-above-1"),
        pytest.param(spoiled_report("ndcg@5\t0.4", "ndcg@5\t-0.25"),
                     "ndcg@5 '-0.25' is not between 0 and 1 at line 9", id="metric-below-0"),
        pytest.param(spoiled_report("n_samples\t10", "n_samples\t-4"),
                     "n_samples '-4' is not an integer >= 0 in plain decimal at line 12",
                     id="negative-n-samples"),
        pytest.param(spoiled_report("skipped\t0", "skipped\t-1"),
                     "skipped '-1' is not an integer >= 0", id="negative-skipped"),
        pytest.param(spoiled_report("n_samples\t10", "n_samples\t+10"),
                     "n_samples '+10' is not an integer >= 0", id="signed-count"),
        pytest.param(spoiled_report("hr@1\t", "hr@0\t").replace("ndcg@1\t", "ndcg@0\t"),
                     "K '0' is not an integer >= 1 in plain decimal at line 2", id="k-zero"),
        pytest.param(spoiled_report("hr@10\t", "hr@1_0\t"),
                     "K '1_0' is not an integer >= 1", id="k-underscore"),
        pytest.param(spoiled_report("hr@20\t", "hr@+20\t"),
                     "K '+20' is not an integer >= 1", id="k-signed"),
        pytest.param(spoiled_report("ndcg@5\t", "ndcg@05\t"),
                     "K '05' is not an integer >= 1", id="k-leading-zero"),
        # JSON is no report format: it is an unrecognized line like any other
        pytest.param('{"hr": ' + "[" * 100_000 + "]" * 100_000 + "}",
                     "unrecognized report line '{\"hr\": [[[[", id="deeply-nested-json"),
    ])
    def test_malformed_report_exits_2(self, tmp_path, capsys, content, message):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        self.make_report(good, 0.5)
        bad.write_text(content)
        assert cli.main(["report", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and str(bad) in err and "Traceback" not in err

    def test_improve2lv_wrong_count(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self.make_report(a, 0.5)
        self.make_report(b, 0.5)
        assert cli.main(["report", str(a), str(b), "--mode", "improve2lv"]) == 1

    @pytest.mark.parametrize("reports", [["missing.tsv", "b.tsv"],
                                         ["a.tsv", "missing.tsv", "b.tsv", "a.tsv"]])
    def test_improve2lv_count_checked_before_any_report_is_read(self, tmp_path, capsys,
                                                                reports):
        self.make_report(tmp_path / "a.tsv", 0.5)
        self.make_report(tmp_path / "b.tsv", 0.5)
        argv = ["report", *(str(tmp_path / r) for r in reports), "--mode", "improve2lv"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "improve2lv mode needs exactly 3 reports" in err and "missing" not in err

    @pytest.mark.parametrize("key, inputs", [("test", "sample sets"),
                                             ("catalog", "catalogs"),
                                             ("emb", "embedding files")])
    def test_mismatch_names_the_first_report_and_the_first_that_differs(
            self, tmp_path, capsys, key, inputs):
        a, b, c, d = (tmp_path / f"{n}.tsv" for n in "abcd")
        for path, digest in ((a, "ccc"), (b, "ccc"), (c, "ddd"), (d, "eee")):
            if key == "test":
                self.make_report(path, 0.5, fingerprint=digest)
            else:
                self.make_report(path, 0.5, more=f"# fingerprint: sha256.{key}={digest}\n")
        assert cli.main([str(p) for p in ("report", a, b, c, d)]) == 2
        err = capsys.readouterr().err
        assert f"reports were computed on different {inputs}: {a} and {c}; " in err

    def test_k_set_mismatch_names_the_reports(self, tmp_path, capsys):
        a, b, c = (tmp_path / f"{n}.tsv" for n in "abc")
        self.make_report(a, 0.5)
        self.make_report(b, 0.5)
        c.write_text("hr@1\t0.5\nndcg@1\t0.5\nn_samples\t2\nskipped\t0\n")
        assert cli.main([str(p) for p in ("report", a, b, c)]) == 2
        assert f"reports have mismatched K sets: {a} and {c}" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        outputs = {}
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            run_ok(["split", "--interactions", inter, "--out", d / "splits"])
            run_ok(["embed", "--catalog", cat, "--dim", 64, "--seed", 17,
                    "--out", d / "emb.bin"])
            run_ok(["eval", "--test", d / "splits" / "samples_test.tsv",
                    "--catalog", cat, "--emb", d / "emb.bin",
                    "--generator", "oracle", "--seed", 3,
                    "--out", d / "report.tsv"])
            outputs[tag] = {
                "split": (d / "splits" / "samples_test.tsv").read_bytes(),
                "emb": (d / "emb.bin").read_bytes(),
                "report": (d / "report.tsv").read_bytes(),
            }
        assert outputs["one"]["split"] == outputs["two"]["split"]
        assert outputs["one"]["emb"] == outputs["two"]["emb"]
        assert outputs["one"]["report"] == outputs["two"]["report"]

    def test_threads_do_not_change_output(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        run_ok(["split", "--interactions", inter, "--out", tmp_path / "splits"])
        emb = embed(cat, tmp_path / "emb.bin", 64, 3)
        reports = {}
        for threads in (1, 8):
            out = tmp_path / f"report_{threads}.tsv"
            run_ok(["eval", "--test", tmp_path / "splits" / "samples_test.tsv",
                    "--catalog", cat, "--emb", emb,
                    "--train", tmp_path / "splits" / "train.tsv",
                    "--generator", "oracle", "--inject", "pop", "--gamma", 0.3,
                    "--seed", 3, "--threads", threads,
                    "--out", out])
            reports[threads] = out.read_bytes()
        assert reports[1] == reports[8]


class TestThreadsOnBothDistancePaths:
    def test_eval_and_tune_gamma_byte_identical(self, tmp_path, monkeypatch):
        """Titles of 1 to 6 tokens put the catalog off the grid, so every
        distance takes the dense path; with 4-token titles every one takes
        the sparse path. On both, eval and tune-gamma run on the calling
        thread whatever --threads is: starting a thread fails the test."""

        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        outputs = {}
        for titles in ("mixed", "four"):
            inter, _ = write_fixture(tmp_path, n_items=30)
            cat = tmp_path / f"catalog_{titles}.tsv"
            cat.write_text("".join(
                f"i{k:03d}\t" + " ".join(["w", f"v{k}", "x", "y", "z", "u"]
                                        [:(1 + k % 6) if titles == "mixed" else 4]) + "\n"
                for k in range(30)))
            split = tmp_path / "splits"
            run_ok(["split", "--interactions", inter, "--out", split])
            emb = embed(cat, tmp_path / f"emb_{titles}.bin", 32, 5)
            for threads in (1, 8):
                d = tmp_path / f"{titles}_{threads}"
                d.mkdir()
                common = ["--catalog", cat, "--emb", emb, "--train", split / "train.tsv",
                          "--generator", "ngram", "--seed", 5, "--threads", threads]
                run_ok(["eval", "--test", split / "samples_test.tsv", *common,
                        "--inject", "collab", "--gamma", 0.7, "--dump-ranks",
                        d / "ranks.tsv", "--out", d / "report.tsv"])
                run_ok(["tune-gamma", "--valid", split / "samples_valid.tsv", *common,
                        "--inject", "pop", "--out", d / "sweep.tsv"])
                outputs[titles, threads] = [(d / f).read_bytes() for f in
                                            ("ranks.tsv", "report.tsv", "sweep.tsv")]
            assert outputs[titles, 1] == outputs[titles, 8]


class TestGroundInputErrors:
    @pytest.fixture
    def ground_inputs(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        run_ok(["embed", "--catalog", cat, "--dim", 16, "--seed", 1,
                "--out", tmp_path / "emb.bin"])
        gen = tmp_path / "gen.tsv"
        gen.write_text("0\ttale 1 of the saga\toracle\n")
        return tmp_path, cat, gen

    def ground(self, tmp_path, cat, gen, *extra):
        return cli.main([str(a) for a in (
            "ground", "--emb", tmp_path / "emb.bin", "--gen", gen,
            "--catalog", cat, "--seed", 1, "--out", tmp_path / "out.tsv", *extra)])

    def test_non_integer_sample_index(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        gen.write_text("0\tfirst text\toracle\nx7\tsecond text\toracle\n")
        assert self.ground(tmp_path, cat, gen) == 2
        err = capsys.readouterr().err
        assert "'x7'" in err and "line 2" in err and str(gen) in err

    def test_negative_sample_index_without_samples(self, ground_inputs, capsys):
        """Without --samples there is no count to check an index against, but a
        negative index is out of range all the same."""
        tmp_path, cat, gen = ground_inputs
        gen.write_text("0\tfirst text\toracle\n-1\tsecond text\toracle\n")
        assert self.ground(tmp_path, cat, gen) == 2
        err = capsys.readouterr().err
        assert "sample index -1 out of range" in err and "line 2" in err and str(gen) in err
        assert not (tmp_path / "out.tsv").exists()

    def test_non_integer_popularity_count(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        pop = tmp_path / "pop.tsv"
        pop.write_text("# item_id\tcount\ni000\t3\ni001\tmany\n")
        assert self.ground(tmp_path, cat, gen, "--inject", "pop", "--gamma", 1,
                           "--popularity", pop) == 2
        err = capsys.readouterr().err
        assert "'many'" in err and "line 3" in err and str(pop) in err

    @pytest.mark.parametrize("count", ["-1", str(2**63), "9" * 40])
    def test_popularity_count_outside_int64(self, ground_inputs, capsys, count):
        tmp_path, cat, gen = ground_inputs
        pop = tmp_path / "pop.tsv"
        pop.write_text(f"i000\t3\ni001\t{count}\n")
        assert self.ground(tmp_path, cat, gen, "--inject", "pop", "--gamma", 1,
                           "--popularity", pop) == 2
        err = capsys.readouterr().err
        assert f"popularity count {count} outside 0..2^63-1 at line 2 in {pop}" in err

    def test_popularity_counts_summing_past_int64(self, ground_inputs, capsys):
        # each count fits int64, their sum wraps it: every P would read 0
        tmp_path, cat, gen = ground_inputs
        pop = tmp_path / "pop.tsv"
        pop.write_text(f"i000\t{2**62}\ni001\t{2**62}\ni002\t1\n")
        assert self.ground(tmp_path, cat, gen, "--inject", "pop", "--gamma", 1,
                           "--popularity", pop) == 2
        err = capsys.readouterr().err
        assert f"popularity counts in {pop} sum to {2**63 + 1}, beyond 2^63-1" in err

    def test_popularity_item_given_twice(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        pop = tmp_path / "pop.tsv"
        pop.write_text("# item_id\tcount\ni000\t5\ni001\t1\ni000\t2\n")
        assert self.ground(tmp_path, cat, gen, "--inject", "pop", "--gamma", 1,
                           "--popularity", pop) == 2
        err = capsys.readouterr().err
        assert f"popularity item 'i000' is given twice, at lines 2 and 4 in {pop}" in err

    def test_popularity_of_a_smaller_catalog(self, ground_inputs, capsys):
        # the two items it omits would read as count 0, and P would move
        tmp_path, cat, gen = ground_inputs
        small, pop = tmp_path / "small_catalog.tsv", tmp_path / "pop.tsv"
        small.write_text("".join(cat.read_text().splitlines(keepends=True)[:18]))
        run_ok(["popularity", "--train", tmp_path / "interactions.tsv",
                "--catalog", small, "--out", pop])
        assert self.ground(tmp_path, cat, gen, "--inject", "pop", "--gamma", 1,
                           "--popularity", pop) == 2
        err = capsys.readouterr().err
        assert f"2 catalog items missing popularity counts in {pop}: i018, i019" in err

    def test_grec_body_not_whole_floats(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        emb = tmp_path / "emb.bin"
        emb.write_bytes(emb.read_bytes() + b"\x00")
        assert self.ground(tmp_path, cat, gen) == 2
        err = capsys.readouterr().err
        assert f"{emb} holds {20 * 16 * 4 + 1} bytes of floats, expected 20x16 f32" in err

    @pytest.mark.parametrize("body_floats", [20 * 16 - 1, 20 * 16 + 1, 0],
                             ids=["one-float-short", "one-float-long", "header-only"])
    def test_grec_body_size_off(self, ground_inputs, capsys, body_floats):
        tmp_path, cat, gen = ground_inputs
        emb = tmp_path / "emb.bin"
        data = emb.read_bytes()
        emb.write_bytes(data[:8] + (data[8:] + bytes(4))[:4 * body_floats])
        assert self.ground(tmp_path, cat, gen) == 2
        err = capsys.readouterr().err
        assert f"{emb} holds {4 * body_floats} bytes of floats, expected 20x16 f32" in err

    def collab(self, tmp_path, cat, gen, scorer):
        samples = tmp_path / "samples.tsv"
        samples.write_text("u\t" + ",".join(["<PAD>"] * 9 + ["i000"]) + "\ti001\t5\ti000\n")
        return self.ground(tmp_path, cat, gen, "--samples", samples, "--inject", "collab",
                           "--scorer", scorer, "--gamma", 1)

    def test_scorer_index_outside_catalog(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        scorer = tmp_path / "co.bin"
        save_scorer(scorer, make_scorer(25, {(0, 24): 3}))
        assert self.collab(tmp_path, cat, gen, scorer) == 2
        err = capsys.readouterr().err
        assert f"scorer file {scorer} holds item index 24, outside the catalog of 20" in err

    @pytest.mark.parametrize("pairs, bad", [
        ([(0, 1, 5), (0, 1, 7)], "pair 2 of 2, (0, 1), does not come after (0, 1)"),
        ([(0, 1, 5), (2, 3, 1), (1, 4, 2)],
         "pair 3 of 3, (1, 4), does not come after (2, 3)"),
        ([(3, 2, 1), (3, 1, 1)], "pair 2 of 2, (3, 1), does not come after (3, 2)"),
    ], ids=["duplicate-pair", "prev-unsorted", "next-unsorted"])
    def test_scorer_pairs_not_increasing(self, ground_inputs, capsys, pairs, bad):
        tmp_path, cat, gen = ground_inputs
        scorer = tmp_path / "co.bin"
        scorer.write_bytes(b"GRCO" + struct.pack(f"<I{3 * len(pairs)}I", len(pairs),
                                                 *(v for t in pairs for v in t)))
        assert self.collab(tmp_path, cat, gen, scorer) == 2
        err = capsys.readouterr().err
        assert f"scorer file {scorer}: {bad}" in err and "Traceback" not in err
        assert "strictly increasing in (prev, next)" in err

    def test_scorer_pair_count_beyond_file(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        scorer = tmp_path / "co.bin"
        scorer.write_bytes(b"GRCO" + struct.pack("<I4I", 2**32 - 1, 0, 1, 5, 0))
        assert self.collab(tmp_path, cat, gen, scorer) == 2
        err = capsys.readouterr().err
        assert f"truncated scorer file {scorer}: the header counts 4294967295" in err

    def test_scorer_bytes_after_its_pairs(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        scorer = tmp_path / "co.bin"
        scorer.write_bytes(b"GRCO" + struct.pack("<I7I", 2, 0, 1, 5, 1, 2, 3, 0)[:-1])
        assert self.collab(tmp_path, cat, gen, scorer) == 2
        err = capsys.readouterr().err
        assert (f"overlong scorer file {scorer}: the header counts 2 pairs, 24 bytes, "
                "but 27 bytes follow it") in err and "Traceback" not in err

    @pytest.mark.parametrize("strategy", ["l2", "bm25"])
    def test_ground_refuses_a_sample_that_knows_every_item(self, tmp_path, capsys,
                                                           strategy):
        """A queried sample whose known set is the whole catalog is refused,
        naming the --samples file and its line, before --out is opened."""
        cat = tmp_path / "catalog.tsv"
        cat.write_text("a\tred river\nb\tblue echo\nc\tgold storm\nd\tsilent harbor\n")
        pads = ",".join(["<PAD>"] * 7)
        samples = tmp_path / "samples.tsv"
        samples.write_text(f"u\ta,b,c,{pads}\td\t5\ta,b\n"
                           f"u\ta,b,c,{pads}\td\t6\ta,b\n"
                           f"u\tb,c,d,{pads}\ta\t9\ta,b,c,d\n")
        gen = tmp_path / "gen.tsv"
        gen.write_text("0\tred river\n1\tgold\n2\tblue echo\n")
        out = tmp_path / "ranks.tsv"
        assert cli.main([str(a) for a in [
            "ground", "--emb", embed(cat, tmp_path / "emb.bin", 8, 3), "--gen", gen,
            "--catalog", cat, "--samples", samples, "--strategy", strategy,
            "--seed", 3, "--out", out]]) == 2
        err = capsys.readouterr().err
        assert f"sample at line 3 in {samples} knows every catalog item" in err
        assert not out.exists()
        assert not Path(f"{out}.manifest").exists()


class TestGroundBm25:
    def test_emb_hashed_but_never_read(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        gen = tmp_path / "gen.tsv"
        run_ok(["generate", "--samples", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--seed", 1, "--out", gen])
        emb = tmp_path / "emb.bin"
        emb.write_bytes(b"not an embedding file\n")
        ranks = tmp_path / "bm25.tsv"
        run_ok(["ground", "--emb", emb, "--gen", gen, "--catalog", cat,
                "--samples", out / "samples_test.tsv", "--strategy", "bm25",
                "--topk", 3, "--seed", 1, "--out", ranks])
        assert ranks.read_text().splitlines()
        assert f"input.emb={manifest.sha256_file(emb)}" in \
            (tmp_path / "bm25.tsv.manifest").read_text().splitlines()


class TestEvalInputs:
    def test_train_hashed_but_not_parsed_when_unused(self, tmp_path, monkeypatch):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        emb = embed(cat, tmp_path / "emb.bin", 32, 3)

        def unused(path):
            raise AssertionError("--train was parsed though nothing reads it")

        monkeypatch.setattr(ingest, "parse_interactions", unused)
        report_path = tmp_path / "report.tsv"
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--emb", emb, "--train", out / "train.tsv", "--generator", "ngram",
                "--inject", "none", "--seed", 3, "--out", report_path])
        digest = manifest.sha256_file(out / "train.tsv")
        assert read_report(report_path).fingerprint["sha256.train"] == digest
        assert f"input.train={digest}" in \
            (tmp_path / "report.tsv.manifest").read_text().splitlines()

    def test_each_input_hashed_once(self, tmp_path, monkeypatch):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        emb = embed(cat, tmp_path / "emb.bin", 32, 3)
        hashed = []
        original = manifest.sha256_file
        monkeypatch.setattr(manifest, "sha256_file",
                            lambda path: hashed.append(str(path)) or original(path))
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--emb", emb, "--train", out / "train.tsv", "--generator", "oracle",
                "--inject", "pop", "--gamma", 0.5, "--seed", 3,
                "--out", tmp_path / "report.tsv"])
        assert sorted(hashed) == sorted(str(p) for p in (
            out / "samples_test.tsv", cat, emb, out / "train.tsv"))

    @pytest.mark.parametrize("command, flag, generator, inject", [
        ("eval", "--test", "pop", "pop"),
        ("tune-gamma", "--valid", "pop", "collab"),
    ])
    def test_train_parsed_once(self, tmp_path, monkeypatch, command, flag, generator,
                               inject):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        emb = embed(cat, tmp_path / "emb.bin", 16, 3)
        parsed = []
        original = ingest.parse_interactions
        monkeypatch.setattr(ingest, "parse_interactions",
                            lambda path: parsed.append(str(path)) or original(path))
        part = "test" if command == "eval" else "valid"
        run_ok([command, flag, out / f"samples_{part}.tsv", "--catalog", cat,
                "--emb", emb, "--train", out / "train.tsv", "--generator", generator,
                "--inject", inject, "--seed", 3, "--out", tmp_path / "o.tsv"])
        assert parsed == [str(out / "train.tsv")]

    @pytest.mark.parametrize("command", ["generate", "eval", "tune-gamma"])
    def test_ngram_of_titles_without_a_token_exits_2(self, tmp_path, capsys, command):
        """A catalog whose every title tokenizes to nothing gives the n-gram
        walk no term: refused before --out is opened, not written as the
        placeholder text for every sample."""
        inter, cat = write_fixture(tmp_path)
        ids = [line.split("\t")[0] for line in cat.read_text().splitlines()]
        cat.write_text("".join(f"{i}\t{('!!!', '???')[k % 2]}\n" for k, i in enumerate(ids)))
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        emb = embed(cat, tmp_path / "emb.bin", 16, 3)
        samples = {"generate": ["--samples", out / "samples_test.tsv"],
                   "eval": ["--test", out / "samples_test.tsv", "--emb", emb],
                   "tune-gamma": ["--valid", out / "samples_valid.tsv", "--emb", emb]}
        argv = [command, *samples[command], "--catalog", cat, "--generator", "ngram",
                "--seed", 3, "--out", tmp_path / "o.tsv"]
        assert cli.main([str(a) for a in argv]) == 2
        assert "no catalog title has a token" in capsys.readouterr().err
        assert not (tmp_path / "o.tsv").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("generate", ["--generator", "pop"], "--generator pop requires --train"),
        ("eval", ["--generator", "pop"], "--generator pop requires --train"),
        ("eval", ["--generator", "most-pop"], "--generator most-pop requires --train"),
        ("eval", ["--inject", "pop"], "--inject pop requires --train"),
        ("tune-gamma", ["--inject", "collab"], "--inject collab requires --train"),
        ("tune-gamma", ["--generator", "pop", "--inject", "collab"],
         "--generator pop requires --train"),
    ])
    def test_train_required_where_read(self, tmp_path, capsys, command, flags, message):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        samples = {"generate": ["--samples", out / "samples_test.tsv", "--seed", 3],
                   "eval": ["--test", out / "samples_test.tsv", "--seed", 3],
                   "tune-gamma": ["--valid", out / "samples_valid.tsv", "--seed", 3]}
        argv = [command, *samples[command], "--catalog", cat, *flags,
                "--out", tmp_path / "o.tsv"]
        assert cli.main([str(a) for a in argv]) == 1
        assert message in capsys.readouterr().err


class TestReaderErrorsNameFileAndLine:
    """Each reader's own field checks name the file, and the line where there
    is one; every case exits 2."""

    @pytest.fixture
    def tmp_inputs(self, tmp_path):
        cat = tmp_path / "catalog.tsv"
        cat.write_text("a\tan apple\nb\ta banana\n")
        gen = tmp_path / "gen.tsv"
        gen.write_text("0\tan apple\toracle\n")
        samples = tmp_path / "samples.tsv"
        samples.write_text("u\t" + ",".join(["<PAD>"] * 9 + ["a"]) + "\tb\t5\ta\n")
        return tmp_path, cat, gen, samples

    @pytest.mark.parametrize("case, bad, line, message", [
        pytest.param("catalog", "a\tx\nb\ty\na\tz\n", 3,
                     "duplicate catalog item_id 'a'", id="catalog-duplicate"),
        pytest.param("catalog", "a\tx\n<PAD>\ty\n", 2,
                     "catalog item_id collides with the PAD token", id="catalog-pad"),
        pytest.param("catalog", "# item_id\ttitle\n\n", None, "catalog is empty",
                     id="catalog-empty"),
        pytest.param("interactions", "u\ta\t1\nu\t<PAD>\t2\n", 2,
                     "item_id collides with PAD token", id="interactions-pad"),
        pytest.param("emb", "a\t0.5\nb\t0.25\na\t0.5\n", 3,
                     "duplicate embedding row for item 'a'", id="emb-duplicate"),
        pytest.param("emb", "a\t0.5\nb\tx\n", 2, "bad embedding value",
                     id="emb-bad-value"),
        pytest.param("emb", "a\t0.5\nb\tnan\n", 2,
                     "non-finite embedding value for item 'b'", id="emb-non-finite"),
        pytest.param("emb", "# ids and vectors\na\n", 2, "empty embedding row",
                     id="emb-empty-row"),
        pytest.param("emb", "a\t0.5\nb\t0.5\t0.25\n", 2, "dim mismatch for item 'b'",
                     id="emb-dim-mismatch"),
        pytest.param("emb", "a\t0.5\n", None, "1 catalog items missing embeddings",
                     id="emb-missing-items"),
        pytest.param("emb", "a\t0.5\nb\t0.25\nzzz\t0.5\n", 3,
                     "embedding row for item 'zzz' not in catalog", id="emb-extra-item"),
        pytest.param("gen", "0\tan apple\n5\ta banana\n", 2,
                     "sample index 5 out of range", id="gen-index-out-of-range"),
        pytest.param("gen", "0\tan apple\n-1\ta banana\n", 2,
                     "sample index -1 out of range", id="gen-index-negative"),
        pytest.param("samples", "u\t" + ",".join(["<PAD>"] * 9 + ["a"]) + "\tb\t5\ta\n"
                     "u\t" + ",".join(["<PAD>"] * 9 + ["a"]) + "\tzzz\t6\ta\n", 2,
                     "sample target 'zzz'", id="samples-target-outside-catalog"),
    ])
    def test_message(self, tmp_inputs, capsys, case, bad, line, message):
        tmp_path, cat, gen, samples = tmp_inputs
        path = tmp_path / f"bad_{case}.tsv"
        path.write_text(bad)
        out = tmp_path / "out"
        emb = tmp_path / "emb.tsv"
        emb.write_text("a\t0.5\nb\t0.25\n")
        argv = {
            "catalog": ["embed", "--catalog", path, "--seed", 1, "--out", out],
            "interactions": ["split", "--interactions", path, "--out", out],
            "emb": ["ground", "--emb", path, "--gen", gen, "--catalog", cat,
                    "--seed", 1, "--out", out],
            "gen": ["ground", "--emb", emb, "--gen", path, "--catalog", cat,
                    "--samples", samples, "--seed", 1, "--out", out],
            "samples": ["ground", "--emb", emb, "--gen", gen, "--catalog", cat,
                        "--samples", path, "--seed", 1, "--out", out],
        }[case]
        assert cli.main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert message in err and str(path) in err and "Traceback" not in err
        if line is not None:
            assert f"line {line} " in err


class TestManifestInputs:
    """A manifest's input.* lines are exactly the input flags given, each
    with the sha256 of its file; an unset or empty optional input is not
    hashed."""

    INPUT_FLAGS = ("--interactions", "--train", "--catalog", "--samples", "--test",
                   "--valid", "--emb", "--gen", "--popularity", "--scorer")

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("inputs")
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        run_ok(["popularity", "--train", out / "train.tsv", "--catalog", cat,
                "--out", tmp_path / "pop.tsv"])
        run_ok(["embed", "--catalog", cat, "--dim", 16, "--seed", 3,
                "--out", tmp_path / "emb.bin"])
        run_ok(["collab-fit", "--train", out / "train.tsv", "--catalog", cat,
                "--out", tmp_path / "co.bin"])
        run_ok(["generate", "--samples", out / "samples_test.tsv", "--catalog", cat,
                "--seed", 3, "--out", tmp_path / "gen.tsv"])
        return tmp_path, inter, cat, out

    @pytest.mark.parametrize("command, extra", [
        pytest.param("split", [], id="split"),
        pytest.param("popularity", [], id="popularity"),
        pytest.param("embed", [], id="embed"),
        pytest.param("collab-fit", [], id="collab-fit"),
        pytest.param("generate", ["--train", "{train}"], id="generate-all"),
        pytest.param("generate", ["--train", ""], id="generate-empty-train"),
        pytest.param("ground", ["--samples", "{test}", "--inject", "pop",
                                "--popularity", "{pop}", "--scorer", "{co}"],
                     id="ground-all"),
        pytest.param("ground", ["--popularity", "", "--scorer", ""],
                     id="ground-unset-and-empty"),
        pytest.param("eval", ["--emb", "{emb}", "--train", "{train}", "--inject", "pop"],
                     id="eval-all"),
        pytest.param("eval", ["--emb", "", "--generator", "most-pop", "--train", "{train}"],
                     id="eval-unset-and-empty"),
        pytest.param("tune-gamma", ["--emb", "{emb}", "--train", "{train}",
                                    "--inject", "collab"], id="tune-gamma-all"),
        pytest.param("tune-gamma", ["--emb", "{emb}", "--train", ""],
                     id="tune-gamma-unset-and-empty"),
    ])
    def test_input_lines_are_the_input_flags_given(self, workspace, tmp_path, command,
                                                   extra):
        root, inter, cat, out = workspace
        paths = {"train": out / "train.tsv", "test": out / "samples_test.tsv",
                 "pop": root / "pop.tsv", "co": root / "co.bin", "emb": root / "emb.bin"}
        target = tmp_path / "o"
        argv = {
            "split": ["--interactions", inter],
            "popularity": ["--train", "{train}", "--catalog", cat],
            "embed": ["--catalog", cat, "--seed", 3],
            "collab-fit": ["--train", "{train}", "--catalog", cat],
            "generate": ["--samples", "{test}", "--catalog", cat, "--seed", 3],
            "ground": ["--emb", "{emb}", "--gen", root / "gen.tsv", "--catalog", cat,
                       "--seed", 3],
            "eval": ["--test", "{test}", "--catalog", cat, "--seed", 3],
            "tune-gamma": ["--valid", out / "samples_valid.tsv", "--catalog", cat,
                           "--seed", 3],
        }[command] + extra
        argv = [str(a).format(**paths) for a in argv]
        run_ok([command, *argv, "--out", target])
        given = {flag[2:]: value for flag, value in zip(argv, argv[1:])
                 if flag in self.INPUT_FLAGS and value}
        written = target / "run.manifest" if command == "split" else Path(f"{target}.manifest")
        recorded = dict(line[len("input."):].split("=", 1)
                        for line in written.read_text().splitlines()
                        if line.startswith("input."))
        assert recorded == {name: manifest.sha256_file(value)
                            for name, value in given.items()}


class TestSampleInputErrors:
    @pytest.fixture
    def workspace(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        run_ok(["embed", "--catalog", cat, "--dim", 16, "--seed", 1,
                "--out", tmp_path / "emb.bin"])
        embed(cat, tmp_path / "emb_seed3.bin", 16, 3)
        gen = tmp_path / "gen.tsv"
        gen.write_text("0\ttale 1 of the saga\toracle\n")
        return tmp_path, cat, out, gen

    @staticmethod
    def main(argv):
        return cli.main([str(a) for a in argv])

    @pytest.mark.parametrize("sample_n", [None, 1])
    def test_non_integer_timestamp(self, workspace, capsys, sample_n):
        tmp_path, cat, out, _ = workspace
        bad = tmp_path / "bad_samples.tsv"
        lines = (out / "samples_test.tsv").read_text().splitlines()[:2]
        user, hist, target, _, known = lines[1].split("\t")
        bad.write_text("\n".join([lines[0], f"{user}\t{hist}\t{target}\t12:30"
                                  f"\t{known}"]) + "\n")
        extra = ["--sample-n", sample_n] if sample_n else []
        assert self.main(["eval", "--test", bad, "--catalog", cat, "--seed", 3,
                          "--emb", tmp_path / "emb_seed3.bin",
                          "--out", tmp_path / "r.tsv", *extra]) == 2
        err = capsys.readouterr().err
        assert "'12:30'" in err and "line 2" in err and str(bad) in err

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--test"), ("eval", "--emb"), ("tune-gamma", "--valid"),
        ("generate", "--samples"), ("ground", "--samples"), ("ground", "--emb"),
        ("ground", "--gen"),
    ])
    def test_missing_input_names_path(self, workspace, capsys, command, flag):
        tmp_path, cat, out, gen = workspace
        args = {
            "eval": {"--test": out / "samples_test.tsv", "--seed": 3,
                     "--emb": tmp_path / "emb_seed3.bin"},
            "tune-gamma": {"--valid": out / "samples_valid.tsv", "--seed": 3,
                           "--emb": tmp_path / "emb_seed3.bin"},
            "generate": {"--samples": out / "samples_test.tsv", "--seed": 3},
            "ground": {"--emb": tmp_path / "emb.bin", "--gen": gen,
                       "--samples": out / "samples_test.tsv", "--seed": 1},
        }[command]
        missing = tmp_path / "absent" / "input.file"
        args[flag] = missing
        argv = [command, "--catalog", cat, "--out", tmp_path / "o.tsv"]
        for name, value in args.items():
            argv += [name, value]
        assert self.main(argv) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err


class TestHeldOnceEdges:
    """Edges of the readers that hold each large input once: the finiteness
    check a block of rows at a time, the check-then-pick samples read and the
    in-place --normalize."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("edges")
        # two full blocks and a partial one
        inter, cat = write_fixture(tmp_path, n_items=2 * L2_BLOCK + 7)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        run_ok(["embed", "--catalog", cat, "--dim", 4, "--seed", 1,
                "--out", tmp_path / "emb.bin"])
        return tmp_path, cat, out

    @pytest.mark.parametrize("row", [L2_BLOCK - 1, 2 * L2_BLOCK + 6],
                             ids=["last-row-of-full-block", "in-partial-block"])
    def test_non_finite_row_exits_2(self, workspace, capsys, row):
        tmp_path, cat, out = workspace
        data = bytearray((tmp_path / "emb.bin").read_bytes())
        struct.pack_into("<f", data, 8 + (row * 4 + 3) * 4, float("nan"))
        bad = tmp_path / f"nan_{row}.bin"
        bad.write_bytes(bytes(data))
        assert cli.main([str(a) for a in (
            "eval", "--test", out / "samples_test.tsv", "--catalog", cat,
            "--emb", bad, "--seed", 1, "--sample-n", 5,
            "--out", tmp_path / "r.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"non-finite embedding value in {bad}" in err and "Traceback" not in err

    def test_bad_samples_line_after_last_drawn_line(self, workspace, capsys):
        tmp_path, cat, out = workspace
        lines = (out / "samples_test.tsv").read_text().splitlines()
        assert max(sample_eval(range(len(lines)), 3, seed=2)) < len(lines) - 1
        bad = tmp_path / "bad_tail.tsv"
        bad.write_text("\n".join(lines + ["u\tb\t1\t"]) + "\n")
        assert cli.main([str(a) for a in (
            "eval", "--test", bad, "--catalog", cat, "--emb", tmp_path / "emb.bin",
            "--seed", 2, "--sample-n", 3, "--out", tmp_path / "r.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"malformed sample line {len(lines) + 1} in {bad}" in err

    def test_embed_normalize_bytes_equal_dividing_a_copy(self, workspace):
        import numpy as np

        from groundrec.embed import hash_embed

        tmp_path, cat, _ = workspace
        run_ok(["embed", "--catalog", cat, "--dim", 8, "--seed", 4, "--normalize",
                "--out", tmp_path / "norm.emb"])
        catalog = ingest.parse_catalog(cat)
        rows = np.vstack([hash_embed(catalog.title(i), 8, 4) for i in catalog.ids])
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        expected = np.divide(rows, norms, out=rows.copy(), where=norms > 0)
        assert (tmp_path / "norm.emb").read_bytes()[8:] == expected.astype("<f4").tobytes()


class TestSampleCountFlag:
    @pytest.mark.parametrize("command, flag", [("eval", "--test"),
                                               ("tune-gamma", "--valid")])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_below_one_is_usage_error(self, tmp_path, capsys, command, flag, value):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        part = "test" if command == "eval" else "valid"
        argv = [command, flag, out / f"samples_{part}.tsv", "--catalog", cat,
                "--seed", 3, "--sample-n", value,
                "--out", tmp_path / "o.tsv"]
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"argument --sample-n: must be at least 1, got {value}" in err
        assert "Traceback" not in err and not (tmp_path / "o.tsv").exists()


class TestGammaFlag:
    @pytest.fixture
    def workspace(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        run_ok(["embed", "--catalog", cat, "--dim", 16, "--seed", 1,
                "--out", tmp_path / "emb.bin"])
        gen = tmp_path / "gen.tsv"
        gen.write_text("0\ttale 1 of the saga\toracle\n")
        return tmp_path, cat, out, gen

    @pytest.mark.parametrize("command", ["eval", "ground"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_not_finite_non_negative_is_usage_error(self, workspace, capsys,
                                                    command, value):
        tmp_path, cat, out, gen = workspace
        inputs = {
            "eval": ["--test", out / "samples_test.tsv", "--train", out / "train.tsv",
                     "--inject", "pop", "--seed", 3],
            "ground": ["--emb", tmp_path / "emb.bin", "--gen", gen,
                       "--inject", "pop", "--popularity", tmp_path / "absent.tsv"],
        }[command]
        argv = [command, "--catalog", cat, *inputs, "--gamma", value,
                "--out", tmp_path / "o.tsv"]
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"argument --gamma: must be a finite number >= 0, got {value}" in err
        assert "Traceback" not in err and not (tmp_path / "o.tsv").exists()


def _subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# Every flag of every command, in parser order, with its choices after a
# space. A change that adds or drops a flag or a choice edits this table.
CLI_SURFACE = {
    "split": ["--interactions", "--out"],
    "popularity": ["--train", "--catalog", "--out", "--deciles"],
    "embed": ["--catalog", "--dim", "--seed", "--normalize", "--out"],
    "generate": ["--samples", "--catalog", "--generator oracle|pop|ngram", "--train",
                 "--seed", "--ngram-order", "--out"],
    "collab-fit": ["--train", "--catalog", "--out"],
    "ground": ["--emb", "--gen", "--catalog", "--samples", "--inject collab|none|pop",
               "--popularity", "--scorer", "--gamma", "--topk", "--strategy l2|bm25",
               "--bm25-k1", "--bm25-b", "--seed", "--out"],
    "eval": ["--test", "--catalog", "--emb", "--train",
             "--generator oracle|pop|ngram|most-pop", "--inject collab|none|pop", "--seed",
             "--ngram-order", "--sample-n", "--threads", "--out", "--gamma", "--dump-ranks"],
    "tune-gamma": ["--valid", "--catalog", "--emb", "--train", "--generator oracle|pop|ngram",
                   "--inject collab|none|pop", "--seed", "--ngram-order", "--sample-n",
                   "--threads", "--out",
                   "--metric hr@1|hr@3|hr@5|hr@10|hr@20|ndcg@1|ndcg@3|ndcg@5|ndcg@10|ndcg@20"],
    "report": ["--mode compare|improve2lv", "--force", "--out"],
}


def test_cli_surface_is_pinned():
    surface = {
        command: [" ".join([action.option_strings[-1], "|".join(action.choices or [])])
                  .rstrip() for action in parser._actions
                  if action.option_strings and action.dest != "help"]
        for command, parser in _subcommands().items()
    }
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 63


class FakeLibc:
    """ctypes.CDLL(None) with malloc_trim recorded, or missing."""

    def __init__(self, trims):
        self.trims = trims

    def __call__(self, name):
        return self

    def malloc_trim(self, pad):
        if self.trims is None:
            raise AttributeError("malloc_trim")
        self.trims.append(pad)


@pytest.mark.parametrize("trims", [[], None], ids=["glibc", "no-malloc-trim"])
def test_freed_heap_handed_back_before_inputs_are_hashed(tmp_path, monkeypatch, trims):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", FakeLibc(trims))
    path = tmp_path / "catalog.tsv"
    path.write_text("i0\ttale\n")
    args = argparse.Namespace(command="embed", catalog=manifest.InputPath(path))
    assert manifest.digests(args) == {"catalog": manifest.sha256_file(path)}
    assert trims in ([0], None)


class TestManifests:
    """Each manifest records every flag of its command except --threads."""

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("manifests")
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        test, train = out / "samples_test.tsv", out / "train.tsv"
        commands = {
            "split": ["--interactions", inter, "--out", out],
            "popularity": ["--train", train, "--catalog", cat,
                           "--out", tmp_path / "pop.tsv"],
            "embed": ["--catalog", cat, "--dim", 16, "--seed", 3,
                      "--out", tmp_path / "emb.bin"],
            "collab-fit": ["--train", train, "--catalog", cat,
                           "--out", tmp_path / "co.bin"],
            "generate": ["--samples", test, "--catalog", cat, "--seed", 3,
                         "--out", tmp_path / "gen.tsv"],
            "ground": ["--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                       "--catalog", cat, "--seed", 3, "--out", tmp_path / "ranks.tsv"],
            "eval": ["--test", test, "--catalog", cat, "--emb", tmp_path / "emb.bin",
                     "--seed", 3, "--out", tmp_path / "report.tsv"],
            "tune-gamma": ["--valid", out / "samples_valid.tsv", "--catalog", cat,
                           "--emb", tmp_path / "emb.bin", "--seed", 3,
                           "--out", tmp_path / "sweep.tsv"],
        }
        paths = {}
        for command, argv in commands.items():
            run_ok([command, *argv])
            target = argv[argv.index("--out") + 1]
            paths[command] = (target / "run.manifest" if command == "split"
                              else Path(f"{target}.manifest"))
        return paths

    def test_one_command_per_manifest(self, manifests):
        assert set(manifests) == set(_subcommands()) - {"report"}

    @pytest.mark.parametrize("command", ["split", "popularity", "embed", "collab-fit",
                                         "generate", "ground", "eval", "tune-gamma"])
    def test_flags_equal_parser_arguments(self, manifests, command):
        parser = _subcommands()[command]
        expected = {action.option_strings[-1][2:] for action in parser._actions
                    if action.option_strings and action.dest != "help"}
        lines = manifests[command].read_text().splitlines()
        assert lines[0] == f"command={command}"
        recorded = {line[len("flag."):].partition("=")[0]
                    for line in lines if line.startswith("flag.")}
        assert recorded == expected - {"threads"}

    @pytest.mark.parametrize("command, flag", [("eval", "--test"),
                                               ("tune-gamma", "--valid")])
    def test_threads_not_recorded(self, tmp_path, command, flag):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        part = "test" if command == "eval" else "valid"
        emb = embed(cat, tmp_path / "emb.bin", 16, 3)
        written = []
        for threads in (1, 8):
            run_ok([command, flag, out / f"samples_{part}.tsv", "--catalog", cat,
                    "--emb", emb, "--train", out / "train.tsv", "--inject", "pop",
                    "--seed", 3, "--threads", threads, "--out", tmp_path / "o.tsv"])
            written.append((tmp_path / "o.tsv.manifest").read_bytes())
        assert written[0] == written[1]


class TestMostPopDumpRanks:
    """eval --generator most-pop dumps its positions like every other generator,
    each keyed by its sample's line in the samples file, and its report is
    aggregate() of exactly those positions."""

    def test_positions_equal_brute_force_popularity_sort(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        lines = inter.read_text().splitlines()
        t = int(lines[-1].split("\t")[2])
        for u in range(8):  # late repeats land in test: skipped samples
            first = next(l.split("\t")[1] for l in lines if l.startswith(f"u{u:03d}\t"))
            t += 1
            lines.append(f"u{u:03d}\t{first}\t{t}")
        inter.write_text("\n".join(lines) + "\n")
        out = tmp_path / "splits"
        test, train = out / "samples_test.tsv", out / "train.tsv"
        run_ok(["split", "--interactions", inter, "--out", out])
        test_lines = test.read_text().splitlines()
        n_drawn = len(test_lines) - 2
        run_ok(["eval", "--test", test, "--catalog", cat, "--train", train,
                "--generator", "most-pop", "--sample-n", n_drawn, "--seed", 5,
                "--dump-ranks", tmp_path / "ranks.tsv", "--out", tmp_path / "report.tsv"])

        counts = {}
        for line in train.read_text().splitlines():
            item = line.split("\t")[1]
            counts[item] = counts.get(item, 0) + 1
        ids = sorted(l.split("\t")[0] for l in cat.read_text().splitlines())
        drawn = sample_eval(range(1, len(test_lines) + 1), n_drawn, 5)  # line numbers
        expected = []
        for lineno in drawn:
            _, _, target, _, known = test_lines[lineno - 1].split("\t")
            known = set(known.split(","))
            if target in known:
                expected.append("skipped")
                continue
            ranking = sorted((i for i in ids if i not in known),
                             key=lambda i: (-counts.get(i, 0), i))
            expected.append(str(ranking.index(target) + 1))
        dumped = [line.split("\t") for line in
                  (tmp_path / "ranks.tsv").read_text().splitlines()]
        assert [i for i, _ in dumped] == [str(lineno) for lineno in drawn]
        assert [pos for _, pos in dumped] == expected
        assert "skipped" in expected and len(set(expected)) > 2

        positions = [None if pos == "skipped" else int(pos) for _, pos in dumped]
        fingerprint = read_report(tmp_path / "report.tsv").fingerprint
        write_report(tmp_path / "aggregated.tsv", aggregate(positions, fingerprint=fingerprint))
        assert (tmp_path / "aggregated.tsv").read_bytes() == \
            (tmp_path / "report.tsv").read_bytes()


class TestGroundMatchesEval:
    """ground and eval rank through one path: the position ground lists for a
    sample's target is the position eval dumps, though ground reads its
    weights from files and eval fits them from --train. The oracle generator
    puts every target first; the pop generator's text moves them."""

    @pytest.mark.parametrize("generator", ["oracle", "pop"])
    @pytest.mark.parametrize("inject, source", [("pop", "--popularity"),
                                                ("collab", "--scorer")])
    def test_listed_target_positions_equal(self, tmp_path, generator, inject, source):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        test, train = out / "samples_test.tsv", out / "train.tsv"
        run_ok(["split", "--interactions", inter, "--out", out])
        # a comment and a blank line shift every later file line off its index
        lines = test.read_text().splitlines(keepends=True)
        test.write_text("".join([lines[0], "# comment\n", "\n", *lines[1:]]))
        files = {"--popularity": tmp_path / "pop.tsv", "--scorer": tmp_path / "co.bin"}
        run_ok(["popularity", "--train", train, "--catalog", cat,
                "--out", files["--popularity"]])
        run_ok(["collab-fit", "--train", train, "--catalog", cat,
                "--out", files["--scorer"]])
        run_ok(["embed", "--catalog", cat, "--dim", 16, "--seed", 3,
                "--out", tmp_path / "emb.bin"])
        run_ok(["generate", "--samples", test, "--catalog", cat, "--train", train,
                "--generator", generator, "--seed", 3, "--out", tmp_path / "gen.tsv"])
        run_ok(["ground", "--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                "--catalog", cat, "--samples", test, "--inject", inject,
                source, files[source], "--gamma", 2, "--topk", 20, "--seed", 3,
                "--out", tmp_path / "ranks.tsv"])
        run_ok(["eval", "--test", test, "--catalog", cat, "--emb", tmp_path / "emb.bin",
                "--train", train, "--generator", generator, "--inject", inject,
                "--gamma", 2, "--seed", 3, "--dump-ranks", tmp_path / "dump.tsv",
                "--out", tmp_path / "report.tsv"])
        data = [(n, line) for n, line in enumerate(test.read_text().splitlines(), 1)
                if line and not line.startswith("#")]
        targets = [line.split("\t")[2] for _, line in data]
        index_of_line = {n: k for k, (n, _) in enumerate(data)}
        listed = {}
        for line in (tmp_path / "ranks.tsv").read_text().splitlines():
            idx, pos, item, _ = line.split("\t")
            if item == targets[int(idx)]:
                listed[int(idx)] = pos
        dumped = dict(line.split("\t")
                      for line in (tmp_path / "dump.tsv").read_text().splitlines())
        assert len(dumped) == len(targets)
        # the top 20 of a 20-item catalog lists every target that is not excluded
        # eval keys each position by its samples-file line, ground by its
        # index among the file's samples
        assert listed == {index_of_line[int(i)]: pos for i, pos in dumped.items()
                          if pos != "skipped"}
        if generator == "oracle":
            assert set(listed.values()) == {"1"}
        else:
            assert len(set(listed.values())) > 1


class TestGroundL2Rows:
    """ground's L2 rows, ids and .10g values, equal a brute force that injects
    first and excludes after: ground.inject over the whole catalog, then
    ground.rank with the sample's exclusions. A repeat-consumption sample (its
    target among its exclusions) is listed too, without its target."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("ground_l2")
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        lines = (out / "samples_test.tsv").read_text().splitlines(keepends=True)
        user, history, _, ts, known = lines[0].rstrip("\n").split("\t")
        repeat = f"{user}\t{history}\t{known.split(',')[0]}\t{ts}\t{known}\n"
        samples = tmp_path / "samples.tsv"
        samples.write_text("".join([*lines[:5], repeat]))
        gen = tmp_path / "gen.tsv"
        gen.write_text("".join(f"{i}\ttale {3 * i} of the i{i:03d} saga story\toracle\n"
                               for i in (0, 1, 2, 3, 4, 5, 5, 2)))
        files = {"--popularity": tmp_path / "pop.tsv", "--scorer": tmp_path / "co.bin",
                 "--emb": tmp_path / "emb.bin"}
        run_ok(["popularity", "--train", out / "train.tsv", "--catalog", cat,
                "--out", files["--popularity"]])
        run_ok(["collab-fit", "--train", out / "train.tsv", "--catalog", cat,
                "--out", files["--scorer"]])
        embed(cat, files["--emb"], 16, 3)
        return tmp_path, cat, samples, gen, files

    @staticmethod
    def brute_force(cat, samples, gen, files, inject, gamma, topk):
        from groundrec.collab import load_scorer
        from groundrec.embed import HashEmbedder
        from groundrec.ground import l2_distances, normalize_distances, rank
        from groundrec.ground import inject as divide
        from groundrec.ingest import parse_catalog, read_samples

        catalog = parse_catalog(cat)
        held = read_samples(samples, catalog) if samples else None
        matrix = load_embeddings(files["--emb"], catalog)
        provider = HashEmbedder(dim=matrix.dim, seed=3)
        source = (read_popularity(files["--popularity"], catalog) if inject == "pop"
                  else load_scorer(files["--scorer"], len(catalog)))
        rows = []
        for line in gen.read_text().splitlines():
            idx, text, _ = line.split("\t")
            sample = held[int(idx)] if held else None
            weights = source.sample_weights(sample)
            norm = normalize_distances(l2_distances(matrix, provider.embed(text)))
            ranked = rank(divide(norm, weights, gamma), sample.known if sample else (),
                          k=topk)
            rows += [f"{idx}\t{pos}\t{catalog.ids[i]}\t{v:.10g}"
                     for pos, (i, v) in enumerate(zip(ranked.indices, ranked.values), 1)]
        return rows

    @pytest.mark.parametrize("gamma", [0, 1, 100])
    @pytest.mark.parametrize("inject, source, with_samples", [
        ("pop", "--popularity", True), ("pop", "--popularity", False),
        ("collab", "--scorer", True)])
    @pytest.mark.parametrize("topk", [7, 20])
    def test_rows_equal_inject_then_exclude(self, inputs, inject, source, with_samples,
                                            gamma, topk):
        tmp_path, cat, samples, gen, files = inputs
        out = tmp_path / f"ranks_{inject}_{with_samples}_{gamma}_{topk}.tsv"
        extra = ["--samples", samples] if with_samples else []
        run_ok(["ground", "--emb", files["--emb"], "--gen", gen, "--catalog", cat,
                "--inject", inject, source, files[source], "--gamma", gamma,
                "--topk", topk, "--seed", 3, "--out", out, *extra])
        rows = out.read_text().splitlines()
        assert rows == self.brute_force(cat, samples if with_samples else None, gen,
                                        files, inject, gamma, topk)
        # the top 20 of a 20-item catalog: every item but the exclusions
        _, _, target, _, known = samples.read_text().splitlines()[5].split("\t")
        known = known.split(",") if with_samples else []
        repeat = [r.split("\t")[2] for r in rows if r.startswith("5\t")]
        assert len(repeat) == 2 * min(topk, 20 - len(known))
        assert topk < 20 or (target in repeat) == (not with_samples)
