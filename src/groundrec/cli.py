"""Command-line surface wiring the modules into the experiment flow:
split -> popularity -> embed -> generate -> ground -> eval -> tune-gamma.

Exit codes: 0 success, 1 usage error (flags are checked, in _check_flags,
before any input is opened), 2 data error. All randomness flows
through explicit --seed flags; --threads (default 1, at least 1) never
changes output bytes.

Each command runs as its own process, so start-up is part of its cost. At
module level this file imports only modules that load no numpy (errors,
manifest, metrics); each cmd_* imports what it runs when it runs, so report,
--help and generate with the oracle or ngram generator never load numpy.

Each input is declared once. A flag that names a file the command reads has
the argparse type InputPath, and the manifest (and eval's report
fingerprint) hashes exactly those flags. --train is parsed and fitted by
_train_fits alone, once per command, and before the samples are read, so the
parsed log is freed before the samples arrive. The catalog matrix is made
only by embed; ground, eval and tune-gamma load it from --emb in _embeddings.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import manifest
from .errors import DataError, UsageError, parse_int, rows
from .metrics import aggregate, improve2lv, metric_names, read_report, write_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _positive_int(text):
    """An integer flag of at least 1: --sample-n, --dim, --ngram-order, --topk,
    --threads."""
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


def _train_needs(args):
    """The weight sources to fit on --train that the flags ask for, by kind,
    each with the first flag that asks for it: "pop" for --generator
    pop|most-pop and --inject pop, "collab" for --inject collab."""
    inject = getattr(args, "inject", "none")
    needs = {}
    if args.generator in ("pop", "most-pop"):
        needs["pop"] = f"--generator {args.generator}"
    if inject != "none":
        needs.setdefault(inject, f"--inject {inject}")
    return needs


def _train_fits(args, catalog):
    """The weight sources _train_needs names, fitted: a PopularityTable for
    "pop", a CoScorer for "collab". --train is parsed once, and only when one
    of them is asked for; it is hashed as an input either way."""
    needs = _train_needs(args)
    if not needs:
        return {}
    from .collab import fit_cooccurrence
    from .ingest import parse_interactions
    from .pop import compute_popularity

    train_log = parse_interactions(args.train)
    fit = {"pop": compute_popularity, "collab": fit_cooccurrence}
    return {kind: fit[kind](train_log, catalog) for kind in needs}


def _make_generator(args, catalog, fits):
    from .generate import (
        NGramGenerator,
        OracleEchoGenerator,
        PopTitleGenerator,
        train_ngram,
    )

    if args.generator == "oracle":
        return OracleEchoGenerator(catalog)
    if args.generator == "pop":
        return PopTitleGenerator(catalog, fits["pop"])
    model = train_ngram(catalog.titles(), order=args.ngram_order)  # --generator ngram
    return NGramGenerator(catalog, model, seed=args.seed)


def _embeddings(args, catalog):
    """(catalog matrix, query embedder): the --emb file, and queries
    hash-embedded at its dim with --seed."""
    from .embed import HashEmbedder, load_embeddings

    mat = load_embeddings(args.emb, catalog)
    return mat, HashEmbedder(dim=mat.dim, seed=args.seed)


def _pipeline_from_args(args, catalog, fits, gamma=0.0):
    """The Pipeline the flags ask for, with the weight sources _train_fits
    gave."""
    from .harness import Pipeline

    mat, provider = _embeddings(args, catalog)
    generator = _make_generator(args, catalog, fits)
    return Pipeline(generator, provider, mat, catalog, gamma, fits.get(args.inject))


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


def _check_flags(args):
    """Refuse, with exit 1 and before any file is opened, flags that no
    input could make work: conflicting flags, and an input flag the others
    require."""
    command, inject = args.command, getattr(args, "inject", "none")
    gamma = getattr(args, "gamma", 0.0)
    if command == "ground" and args.strategy == "bm25" and inject != "none":
        raise UsageError(f"--strategy bm25 cannot take --inject {inject}: "
                         "injection reweights min-max L2 distances, not BM25 scores")
    most_pop = command == "eval" and args.generator == "most-pop"
    if most_pop and (inject != "none" or gamma != 0):
        raise UsageError("--generator most-pop ranks by popularity alone and "
                         "takes no --inject or --gamma")
    if gamma != 0 and inject == "none":  # it would divide by no weights
        raise UsageError(f"--gamma {gamma:g} needs --inject pop or collab: "
                         "with --inject none there are no weights to divide by")
    if command == "ground":
        if inject == "pop" and not args.popularity:
            raise UsageError("--inject pop requires --popularity")
        if inject == "collab" and not (args.scorer and args.samples):
            raise UsageError("--inject collab requires --scorer and --samples")
    elif command in ("generate", "eval", "tune-gamma"):
        needs = _train_needs(args)
        if needs and not args.train:
            raise UsageError(f"{next(iter(needs.values()))} requires --train")
        if command != "generate" and args.generator != "most-pop" and not args.emb:
            raise UsageError(f"--generator {args.generator} requires --emb, the "
                             "catalog matrix that embed writes with the same --seed")


def cmd_split(args):
    from .ingest import (
        parse_interactions,
        temporal_split,
        write_interactions,
        write_sample_files,
    )

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
    manifest.write_manifest(out / "run.manifest", args)
    print(f"split: {len(split.train)} train / {len(split.valid)} valid / "
          f"{len(split.test)} test -> {out}")
    return 0


def cmd_popularity(args):
    from .ingest import parse_catalog, parse_interactions
    from .pop import compute_popularity, decile_report, write_popularity

    catalog = parse_catalog(args.catalog)
    train = parse_interactions(args.train)
    table = compute_popularity(train, catalog)
    write_popularity(args.out, table, catalog)
    if args.deciles:
        report = decile_report(table)
        with open(args.deciles, "w", encoding="utf-8") as fh:
            fh.write("# bucket\tn_items\tshare\n")
            if report.small_catalog:
                fh.write("# small-catalog mode: fewer items than buckets\n")
            for k, (group, share) in enumerate(zip(report.groups, report.share)):
                fh.write(f"{k}\t{len(group)}\t{share:.10g}\n")
    manifest.write_manifest(str(args.out) + ".manifest", args)
    print(f"popularity: {len(catalog)} items, {table.rejected} unknown-item "
          f"interactions ignored -> {args.out}")
    return 0


def cmd_embed(args):
    from .embed import HashEmbedder, embed_catalog, save_embeddings_bin, save_embeddings_tsv
    from .ingest import parse_catalog

    catalog = parse_catalog(args.catalog)
    mat = embed_catalog(catalog, HashEmbedder(dim=args.dim, seed=args.seed),
                        normalize=args.normalize)
    if str(args.out).endswith(".tsv"):
        save_embeddings_tsv(args.out, mat, catalog)
    else:
        save_embeddings_bin(args.out, mat)
    manifest.write_manifest(str(args.out) + ".manifest", args)
    print(f"embed: {len(catalog)} items x dim {mat.dim} -> {args.out}")
    return 0


def cmd_generate(args):
    from .ingest import parse_catalog, read_samples

    catalog = parse_catalog(args.catalog)
    generator = _make_generator(args, catalog, _train_fits(args, catalog))
    samples = read_samples(args.samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(samples):
            gen = generator.generate(sample)
            fh.write(f"{i}\t{gen.text()}\t{gen.source}\n")
    manifest.write_manifest(str(args.out) + ".manifest", args)
    print(f"generate: {len(samples)} samples via {args.generator} -> {args.out}")
    return 0


def cmd_collab_fit(args):
    from .collab import fit_cooccurrence, save_scorer
    from .ingest import parse_catalog, parse_interactions

    catalog = parse_catalog(args.catalog)
    train = parse_interactions(args.train)
    scorer = fit_cooccurrence(train, catalog)
    save_scorer(args.out, scorer)
    manifest.write_manifest(str(args.out) + ".manifest", args)
    print(f"collab-fit: {len(scorer.counts)} transition pairs -> {args.out}")
    return 0


def _read_generated(path, n_samples=None):
    """(sample index, text) per line of a generate output; with n_samples,
    every index must lie in 0..n_samples-1."""
    found = []
    for lineno, parts in rows(path, "generated-text"):
        if len(parts) < 2:
            raise DataError(f"malformed generated-text line {lineno} in {path}")
        idx = parse_int(parts[0], "sample index", lineno, path)
        if n_samples is not None and not 0 <= idx < n_samples:
            raise DataError(f"sample index {idx} out of range at line {lineno} in {path}")
        found.append((idx, parts[1]))
    return found


def cmd_ground(args):
    from .collab import load_scorer
    from .ground import BM25Index, bm25_rank, rank
    from .harness import Pipeline
    from .ingest import parse_catalog, read_samples
    from .pop import read_popularity

    catalog = parse_catalog(args.catalog)
    samples = read_samples(args.samples) if args.samples else None
    queries = _read_generated(args.gen, None if samples is None else len(samples))
    source = None
    if args.inject == "pop":
        source = read_popularity(args.popularity, catalog)
    elif args.inject == "collab":
        source = load_scorer(args.scorer, len(catalog))
    if args.strategy == "bm25":  # --emb is hashed into the manifest, never read
        pipeline = None
        bm25 = BM25Index(catalog, k1=args.bm25_k1, b=args.bm25_b)
    else:
        mat, provider = _embeddings(args, catalog)
        pipeline = Pipeline(None, provider, mat, catalog, args.gamma, source)

    with open(args.out, "w", encoding="utf-8") as fh:
        for sample_idx, text in queries:
            sample = None if samples is None else samples[sample_idx]
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
    manifest.write_manifest(str(args.out) + ".manifest", args)
    print(f"ground: {len(queries)} queries, top-{args.topk} -> {args.out}")
    return 0


def cmd_eval(args):
    from .harness import evaluate, most_pop_baseline
    from .ingest import parse_catalog, read_samples

    catalog = parse_catalog(args.catalog)
    fits = _train_fits(args, catalog)
    samples = read_samples(args.test, args.sample_n, args.seed)
    input_digests = manifest.digests(args)
    if args.generator == "most-pop":
        positions = most_pop_baseline(fits["pop"], samples, catalog)
    else:
        pipeline = _pipeline_from_args(args, catalog, fits, args.gamma)
        positions = evaluate(samples, pipeline, threads=args.threads)
    report = aggregate(positions, fingerprint=_fingerprint(args, input_digests))
    if args.dump_ranks:
        with open(args.dump_ranks, "w", encoding="utf-8") as fh:
            for i, pos in enumerate(positions):
                fh.write(f"{i}\t{'skipped' if pos is None else pos}\n")
    write_report(args.out, report)
    manifest.write_manifest(str(args.out) + ".manifest", args, input_digests)
    for k in report.ks:
        print(f"hr@{k}={report.hr[k]:.4f} ndcg@{k}={report.ndcg[k]:.4f}")
    print(f"eval: {report.n_samples} samples ({report.skipped} skipped) "
          f"-> {args.out}")
    return 0


def cmd_tune_gamma(args):
    from .ingest import parse_catalog, read_samples
    from .tune import tune_gamma, write_sweep

    catalog = parse_catalog(args.catalog)
    fits = _train_fits(args, catalog)
    samples = read_samples(args.valid, args.sample_n, args.seed)
    pipeline = _pipeline_from_args(args, catalog, fits)
    best, table = tune_gamma(samples, pipeline, metric=args.metric, threads=args.threads)
    write_sweep(args.out, table)
    manifest.write_manifest(str(args.out) + ".manifest", args)
    print(f"best_gamma={best:.10g} metric={args.metric}")
    return 0


def cmd_report(args):
    reports = [read_report(p) for p in args.reports]
    ks = reports[0].ks
    for r in reports[1:]:
        if r.ks != ks:
            raise DataError("reports have mismatched K sets")
    for key, inputs in (("sha256.test", "sample sets"), ("sha256.catalog", "catalogs"),
                        ("sha256.emb", "embedding files")):
        recorded = {r.fingerprint.get(key, "") for r in reports}
        if key != "sha256.test":
            recorded.discard("")  # Most-Pop reads no --emb, so it conflicts with none
        if len(recorded) > 1 and not args.force:
            raise DataError(
                f"reports were computed on different {inputs}; pass --force to compare"
            )
    names = metric_names(ks)
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
        imp = improve2lv(reports[0], reports[1], reports[2])
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
    p.add_argument(samples_flag, type=manifest.InputPath, required=True,
                   help="samples TSV emitted by the split command")
    p.add_argument("--catalog", type=manifest.InputPath, required=True)
    p.add_argument("--emb", type=manifest.InputPath, default=None,
                   help="catalog matrix written by embed; all but most-pop read it")
    p.add_argument("--train", type=manifest.InputPath, default=None,
                   help="training interactions (for pop/collab injection)")
    p.add_argument("--generator", default="oracle", choices=generators)
    p.add_argument("--inject", default="none", choices=["collab", "none", "pop"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ngram-order", type=_positive_int, default=1)
    p.add_argument("--sample-n", type=_positive_int, default=None)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out", required=True)


def build_parser():
    parser = _Parser(prog="groundrec",
                     description="grounding and evaluation for generative recommendation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="temporal 10-period 8:1:1 split")
    p.add_argument("--interactions", type=manifest.InputPath, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("popularity", help="per-item popularity factors")
    p.add_argument("--train", type=manifest.InputPath, required=True)
    p.add_argument("--catalog", type=manifest.InputPath, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--deciles", default=None)
    p.set_defaults(func=cmd_popularity)

    p = sub.add_parser("embed", help="embed catalog titles")
    p.add_argument("--catalog", type=manifest.InputPath, required=True)
    p.add_argument("--dim", type=_positive_int, default=256)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("generate", help="generate item descriptions from histories")
    p.add_argument("--samples", type=manifest.InputPath, required=True)
    p.add_argument("--catalog", type=manifest.InputPath, required=True)
    p.add_argument("--generator", default="oracle", choices=["oracle", "pop", "ngram"])
    p.add_argument("--train", type=manifest.InputPath, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ngram-order", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("collab-fit", help="fit the co-occurrence scorer")
    p.add_argument("--train", type=manifest.InputPath, required=True)
    p.add_argument("--catalog", type=manifest.InputPath, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collab_fit)

    p = sub.add_parser("ground", help="rank the catalog against generated text")
    p.add_argument("--emb", type=manifest.InputPath, required=True)
    p.add_argument("--gen", type=manifest.InputPath, required=True)
    p.add_argument("--catalog", type=manifest.InputPath, required=True)
    p.add_argument("--samples", type=manifest.InputPath, default=None)
    p.add_argument("--inject", default="none", choices=["collab", "none", "pop"])
    p.add_argument("--popularity", type=manifest.InputPath, default=None)
    p.add_argument("--scorer", type=manifest.InputPath, default=None)
    p.add_argument("--gamma", type=_nonnegative, default=0.0)
    p.add_argument("--topk", type=_positive_int, default=20)
    p.add_argument("--strategy", default="l2", choices=["l2", "bm25"])
    p.add_argument("--bm25-k1", type=_nonnegative, default=1.5)
    p.add_argument("--bm25-b", type=_unit_interval, default=0.75)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("eval", help="all-ranking HR/NDCG evaluation")
    _add_pipeline_flags(p, "--test", ["oracle", "pop", "ngram", "most-pop"])
    p.add_argument("--gamma", type=_nonnegative, default=0.0)
    p.add_argument("--dump-ranks", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune-gamma", help="gamma grid search on validation")
    _add_pipeline_flags(p, "--valid", ["oracle", "pop", "ngram"])
    p.add_argument("--metric", default="ndcg@20", choices=metric_names())
    p.set_defaults(func=cmd_tune_gamma)

    p = sub.add_parser("report", help="compare metric reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--mode", default="compare", choices=["compare", "improve2lv"])
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    _check_flags(args)
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
