"""Command-line surface wiring the modules into the experiment flow:
split -> popularity -> embed -> generate -> ground -> eval -> tune-gamma.

Exit codes: 0 success, 1 usage error, 2 data error. All randomness flows
through explicit --seed flags; --threads (default from GROUNDREC_THREADS)
never changes output bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import collab as collab_mod
from . import harness, manifest, tune
from .embed import (
    HashEmbedder,
    embed_catalog,
    load_embeddings,
    save_embeddings_bin,
    save_embeddings_tsv,
)
from .errors import DataError, UsageError, open_input
from .generate import (
    NGramGenerator,
    OracleEchoGenerator,
    PopTitleGenerator,
    train_ngram,
)
from .ground import BM25Index, bm25_rank, rank
from .ingest import (
    parse_catalog,
    parse_interactions,
    read_samples,
    temporal_split,
    write_interactions,
    write_sample_files,
)
from .pop import PopularityTable, compute_popularity, decile_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _default_threads():
    try:
        return max(1, int(os.environ.get("GROUNDREC_THREADS", "1")))
    except ValueError:
        return 1


def _positive_int(text):
    """An integer flag of at least 1: --sample-n, --dim, --ngram-order, --topk."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float_flag(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _nonnegative(text):
    """--gamma, --bm25-k1: a finite number of at least 0."""
    value = _float_flag(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _unit_interval(text):
    """--bm25-b: a number in [0, 1]."""
    value = _float_flag(text)
    if not 0 <= value <= 1:  # False for NaN
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _parse_int(text, what, lineno, path):
    try:
        return int(text)
    except ValueError:
        raise DataError(f"non-integer {what} {text!r} at line {lineno} in {path}") from None


def _read_popularity_tsv(path, catalog) -> PopularityTable:
    counts = np.zeros(len(catalog), dtype=np.int64)
    with open_input(path, "popularity") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"malformed popularity line {lineno} in {path}")
            idx = catalog.index_of.get(parts[0])
            if idx is None:
                raise DataError(f"popularity item {parts[0]!r} not in catalog "
                                f"(line {lineno} in {path})")
            count = _parse_int(parts[1], "popularity count", lineno, path)
            if not 0 <= count < 2**63:
                raise DataError(f"popularity count {count} outside 0..2^63-1 "
                                f"at line {lineno} in {path}")
            counts[idx] = count
    return PopularityTable.from_counts(counts)


def _make_generator(name, catalog, train_log, seed, ngram_order):
    if name == "oracle":
        return OracleEchoGenerator(catalog)
    if name == "pop":
        if train_log is None:
            raise UsageError("--generator pop requires --train")
        return PopTitleGenerator(catalog, compute_popularity(train_log, catalog))
    if name == "ngram":
        model = train_ngram(catalog.titles(), order=ngram_order)
        return NGramGenerator(catalog, model, seed=seed)
    raise UsageError(f"unknown generator {name!r}")


def _train_log(args):
    """The --train log, parsed only when the pop generator or pop/collab
    injection reads it; None otherwise. The file is still hashed as an input."""
    reads = args.generator == "pop" or getattr(args, "inject", "none") in ("pop", "collab")
    return parse_interactions(args.train) if reads and args.train else None


def _pipeline_from_args(args, catalog, gamma=0.0):
    train_log = _train_log(args)
    if args.emb:
        mat = load_embeddings(args.emb, catalog)
        provider = HashEmbedder(dim=mat.dim, seed=args.seed)
    else:
        provider = HashEmbedder(dim=args.dim, seed=args.seed)
        mat = embed_catalog(catalog, provider, normalize=args.normalize)
    generator = _make_generator(args.generator, catalog, train_log, args.seed,
                                args.ngram_order)
    source = None
    if args.inject != "none":
        if train_log is None:
            raise UsageError(f"--inject {args.inject} requires --train")
        fit = compute_popularity if args.inject == "pop" else collab_mod.fit_cooccurrence
        source = fit(train_log, catalog)
    return harness.Pipeline(generator, provider, mat, catalog, gamma, source)


def _digests(args, *names):
    """sha256 of the input file behind each named flag that was given."""
    return manifest.digests({name: getattr(args, name) for name in names
                             if getattr(args, name)})


def _fingerprint(args, input_digests):
    fp = {
        "generator": args.generator,
        "inject": args.inject,
        "gamma": f"{args.gamma:.10g}",
        "seed": str(args.seed),
        "strategy": "l2",
        "sampler": "python-random-mt19937",
    }
    for name, digest in input_digests.items():
        fp[f"sha256.{name}"] = digest
    return fp


def cmd_split(args):
    log = parse_interactions(args.interactions)
    split = temporal_split(log)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_interactions(out / "train.tsv", split.train)
    write_interactions(out / "valid.tsv", split.valid)
    write_interactions(out / "test.tsv", split.test)
    write_sample_files(split, out)
    with open(out / "split.meta", "w", encoding="utf-8") as fh:
        fh.write(f"n_total={len(log)}\n")
        fh.write(f"n_train={len(split.train)}\n")
        fh.write(f"n_valid={len(split.valid)}\n")
        fh.write(f"n_test={len(split.test)}\n")
        fh.write(f"rejected_lines={log.rejected}\n")
        for i, b in enumerate(split.boundaries):
            fh.write(f"boundary_{i + 1}={b}\n")
        for i, b in enumerate(split.boundaries):
            fh.write(f"boundary_ts_{i + 1}={log.timestamps[b]}\n")
    manifest.write_manifest(out / "run.manifest", args, _digests(args, "interactions"))
    print(f"split: {len(split.train)} train / {len(split.valid)} valid / "
          f"{len(split.test)} test -> {out}")
    return 0


def cmd_popularity(args):
    catalog = parse_catalog(args.catalog)
    train = parse_interactions(args.train)
    table = compute_popularity(train, catalog)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("# item_id\tcount\tC\tP\n")
        for i, item_id in enumerate(catalog.ids):
            fh.write(f"{item_id}\t{table.counts[i]}\t{table.factor[i]:.10g}"
                     f"\t{table.normalized[i]:.10g}\n")
    if args.deciles:
        report = decile_report(table)
        with open(args.deciles, "w", encoding="utf-8") as fh:
            fh.write("# bucket\tn_items\tshare\n")
            if report.small_catalog:
                fh.write("# small-catalog mode: fewer items than buckets\n")
            for k, (group, share) in enumerate(zip(report.groups, report.share)):
                fh.write(f"{k}\t{len(group)}\t{share:.10g}\n")
    manifest.write_manifest(str(args.out) + ".manifest", args,
                            _digests(args, "train", "catalog"))
    print(f"popularity: {len(catalog)} items, {table.rejected} unknown-item "
          f"interactions ignored -> {args.out}")
    return 0


def cmd_embed(args):
    catalog = parse_catalog(args.catalog)
    provider = HashEmbedder(dim=args.dim, seed=args.seed)
    mat = embed_catalog(catalog, provider, normalize=args.normalize)
    if str(args.out).endswith(".tsv"):
        save_embeddings_tsv(args.out, mat, catalog)
    else:
        save_embeddings_bin(args.out, mat)
    manifest.write_manifest(str(args.out) + ".manifest", args, _digests(args, "catalog"))
    print(f"embed: {len(catalog)} items x dim {mat.dim} -> {args.out}")
    return 0


def cmd_generate(args):
    catalog = parse_catalog(args.catalog)
    samples = read_samples(args.samples)
    generator = _make_generator(args.generator, catalog, _train_log(args), args.seed,
                                args.ngram_order)
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(samples):
            gen = generator.generate(sample)
            fh.write(f"{i}\t{gen.text()}\t{gen.source}\n")
    manifest.write_manifest(str(args.out) + ".manifest", args,
                            _digests(args, "samples", "catalog", "train"))
    print(f"generate: {len(samples)} samples via {args.generator} -> {args.out}")
    return 0


def cmd_collab_fit(args):
    catalog = parse_catalog(args.catalog)
    train = parse_interactions(args.train)
    scorer = collab_mod.fit_cooccurrence(train, catalog)
    collab_mod.save_scorer(args.out, scorer)
    manifest.write_manifest(str(args.out) + ".manifest", args,
                            _digests(args, "train", "catalog"))
    print(f"collab-fit: {len(scorer.counts)} transition pairs -> {args.out}")
    return 0


def _read_generated(path):
    rows = []
    with open_input(path, "generated-text") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"malformed generated-text line {lineno} in {path}")
            rows.append((_parse_int(parts[0], "sample index", lineno, path), parts[1]))
    return rows


def cmd_ground(args):
    if args.strategy == "bm25" and args.inject != "none":
        raise UsageError(f"--strategy bm25 cannot take --inject {args.inject}: "
                         "injection reweights min-max L2 distances, not BM25 scores")
    catalog = parse_catalog(args.catalog)
    rows = _read_generated(args.gen)
    samples = read_samples(args.samples) if args.samples else None
    source = None
    if args.inject == "pop":
        if not args.popularity:
            raise UsageError("--inject pop requires --popularity")
        source = _read_popularity_tsv(args.popularity, catalog)
    elif args.inject == "collab":
        if not (args.scorer and args.samples):
            raise UsageError("--inject collab requires --scorer and --samples")
        source = collab_mod.load_scorer(args.scorer, len(catalog))
    if args.strategy == "bm25":  # --emb is hashed into the manifest, never read
        pipeline = None
        bm25 = BM25Index(catalog, k1=args.bm25_k1, b=args.bm25_b)
    else:
        mat = load_embeddings(args.emb, catalog)
        pipeline = harness.Pipeline(None, HashEmbedder(dim=mat.dim, seed=args.seed), mat,
                                    catalog, args.gamma, source)

    with open(args.out, "w", encoding="utf-8") as fh:
        for sample_idx, text in rows:
            sample = None
            if samples is not None:
                if not 0 <= sample_idx < len(samples):
                    raise DataError(f"sample index {sample_idx} out of range")
                sample = samples[sample_idx]
            exclusions = catalog.index_set(sample.known_items if sample else ())
            if pipeline is None:
                ranked = bm25_rank(text, bm25, exclusions, k=args.topk)
            else:
                adjusted = pipeline.reweighted(pipeline.distances(text),
                                               pipeline.weights(sample))
                ranked = rank(adjusted, exclusions, k=args.topk)
            for pos in range(len(ranked.indices)):
                idx = int(ranked.indices[pos])
                fh.write(f"{sample_idx}\t{pos + 1}\t{catalog.ids[idx]}"
                         f"\t{ranked.values[pos]:.10g}\n")
    manifest.write_manifest(
        str(args.out) + ".manifest", args,
        _digests(args, "emb", "gen", "catalog", "samples", "popularity", "scorer"),
    )
    print(f"ground: {len(rows)} queries, top-{args.topk} -> {args.out}")
    return 0


def cmd_eval(args):
    if args.generator == "most-pop" and (args.inject != "none" or args.gamma != 0):
        raise UsageError("--generator most-pop ranks by popularity alone and "
                         "takes no --inject or --gamma")
    catalog = parse_catalog(args.catalog)
    samples = read_samples(args.test, args.sample_n, args.seed)
    input_digests = _digests(args, "test", "catalog", "train", "emb")
    fp = _fingerprint(args, input_digests)
    if args.generator == "most-pop":
        if not args.train:
            raise UsageError("--generator most-pop requires --train")
        train_log = parse_interactions(args.train)
        table = compute_popularity(train_log, catalog)
        report = harness.most_pop_baseline(table, samples, catalog, fingerprint=fp)
    else:
        pipeline = _pipeline_from_args(args, catalog, args.gamma)
        report, positions = harness.evaluate(samples, pipeline, threads=args.threads,
                                             fingerprint=fp, collect_positions=True)
        if args.dump_ranks:
            with open(args.dump_ranks, "w", encoding="utf-8") as fh:
                for i, pos in enumerate(positions):
                    fh.write(f"{i}\t{'skipped' if pos is None else pos}\n")
    harness.write_report(args.out, report, as_json=args.json)
    manifest.write_manifest(str(args.out) + ".manifest", args, input_digests)
    for k in report.ks:
        print(f"hr@{k}={report.hr[k]:.4f} ndcg@{k}={report.ndcg[k]:.4f}")
    print(f"eval: {report.n_samples} samples ({report.skipped} skipped) "
          f"-> {args.out}")
    return 0


def cmd_tune_gamma(args):
    catalog = parse_catalog(args.catalog)
    samples = read_samples(args.valid, args.sample_n, args.seed)
    pipeline = _pipeline_from_args(args, catalog)
    best, table = tune.tune_gamma(samples, pipeline, metric=args.metric,
                                  threads=args.threads)
    tune.write_sweep(args.out, table)
    manifest.write_manifest(str(args.out) + ".manifest", args,
                            _digests(args, "valid", "catalog", "train", "emb"))
    print(f"best_gamma={best:.10g} metric={args.metric}")
    return 0


def cmd_report(args):
    reports = [harness.read_report(p) for p in args.reports]
    ks = reports[0].ks
    for r in reports[1:]:
        if r.ks != ks:
            raise DataError("reports have mismatched K sets")
    sample_keys = {r.fingerprint.get("sha256.test", "") for r in reports}
    if len(sample_keys) > 1 and not args.force:
        raise DataError(
            "reports were computed on different sample sets; pass --force to compare"
        )
    names = tune.metric_names(ks)
    lines = []
    if args.mode == "compare":
        header = ["metric"] + [Path(p).name for p in args.reports]
        lines.append("\t".join(header))
        for name in names:
            vals = [f"{r.metric(name):.6g}" for r in reports]
            lines.append("\t".join([name] + vals))
    else:  # improve2lv
        if len(reports) != 3:
            raise UsageError("improve2lv mode needs exactly 3 reports: a b combined")
        imp = harness.improve2lv(reports[0], reports[1], reports[2])
        lines.append("metric\ta\tb\tcombined\timprove2lv")
        for name in names:
            val = imp[name]
            shown = "null" if val is None else f"{val:+.6g}"
            lines.append(
                f"{name}\t{reports[0].metric(name):.6g}"
                f"\t{reports[1].metric(name):.6g}"
                f"\t{reports[2].metric(name):.6g}\t{shown}"
            )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _add_pipeline_flags(p, samples_flag, generators):
    p.add_argument(samples_flag, required=True,
                   help="samples TSV emitted by the split command")
    p.add_argument("--catalog", required=True)
    p.add_argument("--emb", default=None,
                   help="embedding file (TSV or GREC binary); omit to hash-embed")
    p.add_argument("--train", default=None,
                   help="training interactions (for pop/collab injection)")
    p.add_argument("--generator", default="oracle", choices=generators)
    p.add_argument("--inject", default="none", choices=["collab", "none", "pop"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=_positive_int, default=256)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--ngram-order", type=_positive_int, default=1)
    p.add_argument("--sample-n", type=_positive_int, default=None)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", required=True)


def build_parser():
    parser = _Parser(prog="groundrec",
                     description="grounding and evaluation for generative recommendation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="temporal 10-period 8:1:1 split")
    p.add_argument("--interactions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("popularity", help="per-item popularity factors")
    p.add_argument("--train", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--deciles", default=None)
    p.set_defaults(func=cmd_popularity)

    p = sub.add_parser("embed", help="embed catalog titles")
    p.add_argument("--catalog", required=True)
    p.add_argument("--dim", type=_positive_int, default=256)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("generate", help="generate item descriptions from histories")
    p.add_argument("--samples", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--generator", default="oracle", choices=["oracle", "pop", "ngram"])
    p.add_argument("--train", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ngram-order", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("collab-fit", help="fit the co-occurrence scorer")
    p.add_argument("--train", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collab_fit)

    p = sub.add_parser("ground", help="rank the catalog against generated text")
    p.add_argument("--emb", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--samples", default=None)
    p.add_argument("--inject", default="none", choices=["collab", "none", "pop"])
    p.add_argument("--popularity", default=None)
    p.add_argument("--scorer", default=None)
    p.add_argument("--gamma", type=_nonnegative, default=0.0)
    p.add_argument("--topk", type=_positive_int, default=20)
    p.add_argument("--strategy", default="l2", choices=["l2", "bm25"])
    p.add_argument("--bm25-k1", type=_nonnegative, default=1.5)
    p.add_argument("--bm25-b", type=_unit_interval, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("eval", help="all-ranking HR/NDCG evaluation")
    _add_pipeline_flags(p, "--test", ["oracle", "pop", "ngram", "most-pop"])
    p.add_argument("--gamma", type=_nonnegative, default=0.0)
    p.add_argument("--dump-ranks", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune-gamma", help="gamma grid search on validation")
    _add_pipeline_flags(p, "--valid", ["oracle", "pop", "ngram"])
    p.add_argument("--metric", default="ndcg@20", choices=tune.metric_names())
    p.set_defaults(func=cmd_tune_gamma)

    p = sub.add_parser("report", help="compare metric reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--mode", default="compare", choices=["compare", "improve2lv"])
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main(argv=None):
    try:
        return run(argv)
    except UsageError as e:
        print(f"groundrec: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"groundrec: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
