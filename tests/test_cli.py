import argparse
import random
import struct
from pathlib import Path

import pytest

from groundrec import cli, ingest, manifest
from groundrec.collab import CoScorer, save_scorer
from groundrec.embed import load_embeddings
from groundrec.errors import DataError
from groundrec.harness import read_report
from groundrec.ingest import read_samples


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


def run_ok(argv):
    assert cli.run([str(a) for a in argv]) == 0


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
    "samples": (ingest.read_samples, "u\t" + ",".join("a" * 10) + "\tb\t1\t"),
    "popularity": (lambda p: cli._read_popularity_tsv(p, CATALOG), "a\t3"),
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


class TestFlagValues:
    """Bad flag values and conflicting flags exit 1 before any input is read."""

    REQUIRED = {
        "embed": ["--catalog", "c.tsv", "--seed", "1"],
        "eval": ["--test", "s.tsv", "--catalog", "c.tsv", "--seed", "1"],
        "tune-gamma": ["--valid", "s.tsv", "--catalog", "c.tsv", "--seed", "1"],
        "generate": ["--samples", "s.tsv", "--catalog", "c.tsv"],
        "ground": ["--emb", "e.bin", "--gen", "g.tsv", "--catalog", "c.tsv"],
    }

    @pytest.mark.parametrize("command, flags, message", [
        ("embed", ["--dim", "0"], "argument --dim: must be at least 1, got 0"),
        ("eval", ["--dim", "-2"], "argument --dim: must be at least 1, got -2"),
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
    ])
    def test_usage_error(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "o.tsv"
        argv = [command, *self.REQUIRED[command], *flags, "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


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
                "--generator", "oracle", "--out", tmp_path / "gen.tsv"])
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
                "--generator", "oracle", "--out", tmp_path / "gen.tsv"])
        run_ok(["ground", "--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                "--catalog", cat, "--samples", out / "samples_test.tsv",
                "--strategy", "bm25", "--topk", 3, "--out", tmp_path / "bm25.tsv"])
        assert (tmp_path / "bm25.tsv").read_text().splitlines()

    def test_collab_fit(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["collab-fit", "--train", out / "train.tsv", "--catalog", cat,
                "--out", tmp_path / "scorer.bin"])
        assert (tmp_path / "scorer.bin").read_bytes()[:4] == b"GRCO"

    def test_eval_oracle_perfect(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--seed", 3, "--dim", 128,
                "--out", tmp_path / "report.tsv"])
        report = read_report(tmp_path / "report.tsv")
        assert report.hr[1] == 1.0
        assert report.ndcg[1] == 1.0

    def test_eval_injection_modes(self, workspace):
        tmp_path, inter, cat, out = workspace
        for inject in ("pop", "collab"):
            run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                    "--train", out / "train.tsv", "--generator", "oracle",
                    "--inject", inject, "--gamma", 0.5, "--seed", 3, "--dim", 64,
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
                "--generator", "ngram", "--seed", 3, "--dim", 64,
                "--dump-ranks", tmp_path / "ranks.dump",
                "--out", tmp_path / "ng.tsv"])
        assert (tmp_path / "ranks.dump").read_text().splitlines()

    def test_eval_json_report(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--seed", 3, "--dim", 64, "--json",
                "--out", tmp_path / "report.json"])
        report = read_report(tmp_path / "report.json")
        assert report.hr[1] == 1.0

    def test_tune_gamma_sweep(self, workspace):
        tmp_path, inter, cat, out = workspace
        run_ok(["tune-gamma", "--valid", out / "samples_valid.tsv", "--catalog", cat,
                "--train", out / "train.tsv", "--generator", "oracle",
                "--inject", "pop", "--seed", 3, "--dim", 64,
                "--metric", "ndcg@20", "--out", tmp_path / "sweep.tsv"])
        lines = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert len(lines) == 201  # header + 200 grid points


class TestReportCommand:
    def make_report(self, path, value, fingerprint="aaa"):
        path.write_text(
            f"# fingerprint: sha256.test={fingerprint}\n"
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

    @pytest.mark.parametrize("content, message", [
        ("hr@1\tabc\n", "hr@1 'abc' is not a finite number at line 1 in report file"),
        ("# c\nhr@1\t0.5\nhr@x\t1\n", "K 'x' is not an integer at line 3 in report file"),
        ("hr@1\tnan\n", "hr@1 'nan' is not a finite number at line 1 in report file"),
        ("n_samples\t1.5\n", "n_samples '1.5' is not an integer at line 1 in report file"),
        ("mrr@1\t0.5\n", "unrecognized report line 'mrr@1\\t0.5' at line 1 in report file"),
        ('{"hr": 1}', "'hr' must map K to a metric value in report file"),
        ('{"hr": {"x": 1}, "ndcg": {}}', "hr K 'x' is not an integer in report file"),
        ('{"hr": {"1": "a"}, "ndcg": {}}', "hr@1 'a' is not a finite number in report file"),
        ('{"hr": {}, "ndcg": {"1": true}}', "ndcg@1 True is not a finite number in report"),
        ('{"hr": {}, "ndcg": {}}', "no 'n_samples' in report file"),
        ('{"hr": {}, "ndcg": {}, "n_samples": 2.5}', "n_samples 2.5 is not an integer"),
        ('{"hr": {}, "ndcg": {}, "n_samples": 1, "fingerprint": 3}',
         "'fingerprint' must map names to strings in report file"),
        ('{"hr": {},\n bad json', "is not valid JSON: Expecting property name enclosed "
                                   "in double quotes at line 2"),
        pytest.param('{"hr": ' + "[" * 100_000 + "]" * 100_000 + "}", "nests JSON too deeply",
                     id="deeply-nested-json"),
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
        reports = {}
        for threads in (1, 8):
            out = tmp_path / f"report_{threads}.tsv"
            run_ok(["eval", "--test", tmp_path / "splits" / "samples_test.tsv",
                    "--catalog", cat, "--train", tmp_path / "splits" / "train.tsv",
                    "--generator", "oracle", "--inject", "pop", "--gamma", 0.3,
                    "--seed", 3, "--dim", 64, "--threads", threads,
                    "--out", out])
            reports[threads] = out.read_bytes()
        assert reports[1] == reports[8]


class TestThreadsOnBothDistancePaths:
    def test_eval_and_tune_gamma_byte_identical(self, tmp_path):
        """Titles of 1 to 6 tokens put the catalog off the grid, so every
        distance takes the dense path; with 4-token titles every one takes the
        sparse path, whose plan eight threads share."""
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
            for threads in (1, 8):
                d = tmp_path / f"{titles}_{threads}"
                d.mkdir()
                common = ["--catalog", cat, "--train", split / "train.tsv",
                          "--generator", "ngram", "--seed", 5, "--dim", 32,
                          "--threads", threads]
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
            "--catalog", cat, "--out", tmp_path / "out.tsv", *extra)])

    def test_non_integer_sample_index(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        gen.write_text("0\tfirst text\toracle\nx7\tsecond text\toracle\n")
        assert self.ground(tmp_path, cat, gen) == 2
        err = capsys.readouterr().err
        assert "'x7'" in err and "line 2" in err and str(gen) in err

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

    def test_grec_body_not_whole_floats(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        emb = tmp_path / "emb.bin"
        emb.write_bytes(emb.read_bytes() + b"\x00")
        assert self.ground(tmp_path, cat, gen) == 2
        err = capsys.readouterr().err
        assert f"{emb} holds {20 * 16 * 4 + 1} bytes of floats, expected 20x16 f32" in err

    def collab(self, tmp_path, cat, gen, scorer):
        samples = tmp_path / "samples.tsv"
        samples.write_text("u\t" + ",".join(["<PAD>"] * 9 + ["i000"]) + "\ti001\t5\ti000\n")
        return self.ground(tmp_path, cat, gen, "--samples", samples, "--inject", "collab",
                           "--scorer", scorer, "--gamma", 1)

    def test_scorer_index_outside_catalog(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        scorer = tmp_path / "co.bin"
        save_scorer(scorer, CoScorer(n_items=25, counts={(0, 24): 3}))
        assert self.collab(tmp_path, cat, gen, scorer) == 2
        err = capsys.readouterr().err
        assert f"scorer file {scorer} holds item index 24, outside the catalog of 20" in err

    def test_scorer_pair_count_beyond_file(self, ground_inputs, capsys):
        tmp_path, cat, gen = ground_inputs
        scorer = tmp_path / "co.bin"
        scorer.write_bytes(b"GRCO" + struct.pack("<I4I", 2**32 - 1, 0, 1, 5, 0))
        assert self.collab(tmp_path, cat, gen, scorer) == 2
        err = capsys.readouterr().err
        assert f"truncated scorer file {scorer}: the header counts 4294967295" in err


class TestGroundBm25:
    def test_emb_hashed_but_never_read(self, tmp_path):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        gen = tmp_path / "gen.tsv"
        run_ok(["generate", "--samples", out / "samples_test.tsv", "--catalog", cat,
                "--generator", "oracle", "--out", gen])
        emb = tmp_path / "emb.bin"
        emb.write_bytes(b"not an embedding file\n")
        ranks = tmp_path / "bm25.tsv"
        run_ok(["ground", "--emb", emb, "--gen", gen, "--catalog", cat,
                "--samples", out / "samples_test.tsv", "--strategy", "bm25",
                "--topk", 3, "--out", ranks])
        assert ranks.read_text().splitlines()
        assert f"input.emb={manifest.sha256_file(emb)}" in \
            (tmp_path / "bm25.tsv.manifest").read_text().splitlines()


class TestEvalInputs:
    def test_train_hashed_but_not_parsed_when_unused(self, tmp_path, monkeypatch):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])

        def unused(path):
            raise AssertionError("--train was parsed though nothing reads it")

        monkeypatch.setattr(cli, "parse_interactions", unused)
        report_path = tmp_path / "report.tsv"
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--train", out / "train.tsv", "--generator", "ngram",
                "--inject", "none", "--seed", 3, "--dim", 32, "--out", report_path])
        digest = manifest.sha256_file(out / "train.tsv")
        assert read_report(report_path).fingerprint["sha256.train"] == digest
        assert f"input.train={digest}" in \
            (tmp_path / "report.tsv.manifest").read_text().splitlines()

    def test_each_input_hashed_once(self, tmp_path, monkeypatch):
        inter, cat = write_fixture(tmp_path)
        out = tmp_path / "splits"
        run_ok(["split", "--interactions", inter, "--out", out])
        hashed = []
        original = manifest.sha256_file
        monkeypatch.setattr(manifest, "sha256_file",
                            lambda path: hashed.append(str(path)) or original(path))
        run_ok(["eval", "--test", out / "samples_test.tsv", "--catalog", cat,
                "--train", out / "train.tsv", "--generator", "oracle",
                "--inject", "pop", "--gamma", 0.5, "--seed", 3, "--dim", 32,
                "--out", tmp_path / "report.tsv"])
        assert sorted(hashed) == sorted(str(p) for p in (
            out / "samples_test.tsv", cat, out / "train.tsv"))


class TestSampleInputErrors:
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
                          "--dim", 16, "--out", tmp_path / "r.tsv", *extra]) == 2
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
            "eval": {"--test": out / "samples_test.tsv", "--seed": 3},
            "tune-gamma": {"--valid": out / "samples_valid.tsv", "--seed": 3},
            "generate": {"--samples": out / "samples_test.tsv"},
            "ground": {"--emb": tmp_path / "emb.bin", "--gen": gen,
                       "--samples": out / "samples_test.tsv"},
        }[command]
        missing = tmp_path / "absent" / "input.file"
        args[flag] = missing
        argv = [command, "--catalog", cat, "--out", tmp_path / "o.tsv"]
        for name, value in args.items():
            argv += [name, value]
        assert self.main(argv) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err


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
                "--seed", 3, "--dim", 16, "--sample-n", value,
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
                     "--inject", "pop", "--seed", 3, "--dim", 16],
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
            "generate": ["--samples", test, "--catalog", cat,
                         "--out", tmp_path / "gen.tsv"],
            "ground": ["--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                       "--catalog", cat, "--seed", 3, "--out", tmp_path / "ranks.tsv"],
            "eval": ["--test", test, "--catalog", cat, "--seed", 3, "--dim", 16,
                     "--out", tmp_path / "report.tsv"],
            "tune-gamma": ["--valid", out / "samples_valid.tsv", "--catalog", cat,
                           "--seed", 3, "--dim", 16, "--out", tmp_path / "sweep.tsv"],
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
        written = []
        for threads in (1, 8):
            run_ok([command, flag, out / f"samples_{part}.tsv", "--catalog", cat,
                    "--train", out / "train.tsv", "--inject", "pop", "--seed", 3,
                    "--dim", 16, "--threads", threads, "--out", tmp_path / "o.tsv"])
            written.append((tmp_path / "o.tsv.manifest").read_bytes())
        assert written[0] == written[1]


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
        files = {"--popularity": tmp_path / "pop.tsv", "--scorer": tmp_path / "co.bin"}
        run_ok(["popularity", "--train", train, "--catalog", cat,
                "--out", files["--popularity"]])
        run_ok(["collab-fit", "--train", train, "--catalog", cat,
                "--out", files["--scorer"]])
        run_ok(["embed", "--catalog", cat, "--dim", 16, "--seed", 3,
                "--out", tmp_path / "emb.bin"])
        run_ok(["generate", "--samples", test, "--catalog", cat, "--train", train,
                "--generator", generator, "--out", tmp_path / "gen.tsv"])
        run_ok(["ground", "--emb", tmp_path / "emb.bin", "--gen", tmp_path / "gen.tsv",
                "--catalog", cat, "--samples", test, "--inject", inject,
                source, files[source], "--gamma", 2, "--topk", 20, "--seed", 3,
                "--out", tmp_path / "ranks.tsv"])
        run_ok(["eval", "--test", test, "--catalog", cat, "--emb", tmp_path / "emb.bin",
                "--train", train, "--generator", generator, "--inject", inject,
                "--gamma", 2, "--seed", 3, "--dump-ranks", tmp_path / "dump.tsv",
                "--out", tmp_path / "report.tsv"])
        targets = [s.target for s in read_samples(test)]
        listed = {}
        for line in (tmp_path / "ranks.tsv").read_text().splitlines():
            idx, pos, item, _ = line.split("\t")
            if item == targets[int(idx)]:
                listed[int(idx)] = pos
        dumped = dict(line.split("\t")
                      for line in (tmp_path / "dump.tsv").read_text().splitlines())
        assert len(dumped) == len(targets)
        # the top 20 of a 20-item catalog lists every target that is not excluded
        assert listed == {int(i): pos for i, pos in dumped.items() if pos != "skipped"}
        if generator == "oracle":
            assert set(listed.values()) == {"1"}
        else:
            assert len(set(listed.values())) > 1
