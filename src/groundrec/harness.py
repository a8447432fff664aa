"""All-ranking evaluation: run generator -> embedder -> grounding over samples
and aggregate HR@K / NDCG@K, plus the Most-Pop baseline and the relative
improvement of a combined model over the better of its two parts.

Pipeline is the one grounding path. ground ranks the top k for the text it
is given through Pipeline.distances, weights and reweighted. eval and
tune-gamma take each sample's gamma-independent part from Pipeline.prepare;
eval divides by (1 + w)^gamma at one gamma, tune-gamma at every point of the
grid. Pipeline.candidates is the one skip/target/exclusion step, which
Most-Pop shares. fan_out runs a per-sample or per-gamma step on threads.

Every item the user has not interacted with is a candidate; there is no
negative sampling. NDCG uses the single-relevant-item convention (IDCG = 1),
so per sample it is 1/log2(rank+1) when the target lands within K, else 0.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, open_input
from .ground import (
    check_weights,
    exclusion_mask,
    inject,
    l2_distances,
    normalize_distances,
    target_position,
)
from .ingest import ItemCatalog, SequenceSample

DEFAULT_KS = (1, 3, 5, 10, 20)


@dataclass
class MetricsReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_samples: int
    skipped: int = 0
    fingerprint: dict[str, str] = field(default_factory=dict)

    @property
    def ks(self):
        return tuple(sorted(self.hr))

    def metric(self, name):
        """Look up 'hr@K' or 'ndcg@K'."""
        kind, _, k = name.partition("@")
        table = {"hr": self.hr, "ndcg": self.ndcg}.get(kind)
        if table is None or int(k) not in table:
            raise KeyError(name)
        return table[int(k)]


def hr_from_rank(position, k):
    return 1.0 if position <= k else 0.0


def ndcg_from_rank(position, k):
    return 1.0 / math.log2(position + 1) if position <= k else 0.0


class Pipeline:
    """The one grounding path of the ground, eval and tune-gamma commands:
    query text -> normalized L2 distances -> checked weights -> division by
    (1 + w)^gamma -> exclusion of the items seen before the target.

    The generator turns a sample into query text; ground passes its text in
    directly and has no generator. The weight source, if any, is a
    PopularityTable or a CoScorer: source.sample_weights(sample, catalog).
    """

    def __init__(self, generator, provider, matrix, catalog: ItemCatalog,
                 gamma=0.0, source=None):
        self.generator = generator
        self.provider = provider
        self.matrix = matrix
        self.catalog = catalog
        self.gamma = gamma
        self.source = source

    def distances(self, text) -> np.ndarray:
        """Min-max normalized L2 distances from the embedded text to every item."""
        return normalize_distances(l2_distances(self.matrix, self.provider.embed(text)))

    def normalized_distances(self, sample: SequenceSample) -> np.ndarray:
        return self.distances(self.generator.generate(sample).text())

    def weights(self, sample: SequenceSample):
        """Per-item injection weights in [0,1], or None without a source."""
        source = self.source
        return None if source is None else source.sample_weights(sample, self.catalog)

    def exclusions(self, sample: SequenceSample):
        return self.catalog.index_set(sample.known_items)

    def reweighted(self, norm, weights, gamma=None) -> np.ndarray:
        """norm divided by (1 + w)^gamma; norm itself without weights or at
        gamma 0. gamma defaults to the pipeline's."""
        gamma = self.gamma if gamma is None else gamma
        return inject(norm, weights, gamma) if (weights is not None and gamma > 0) else norm

    def candidates(self, sample: SequenceSample):
        """(keep mask, target index): every item not seen before the target.
        None skips a repeat consumption, whose target is its own exclusion."""
        if sample.target in sample.known_items:
            return None
        target = self.catalog.index_of.get(sample.target)
        if target is None:
            raise DataError(f"sample target {sample.target!r} not in catalog")
        return exclusion_mask(len(self.catalog), self.exclusions(sample)), target

    def prepare(self, sample: SequenceSample):
        """(normalized distances, checked weights or None, keep mask, target
        index), all gamma-independent; None where candidates skips."""
        found = self.candidates(sample)
        if found is None:
            return None
        norm = self.normalized_distances(sample)
        weights = self.weights(sample)
        if weights is not None:
            norm, weights = check_weights(norm, weights)
        return (norm, weights, *found)


def fan_out(fn, items, threads=1):
    """[fn(item) for item in items], on a pool of threads when threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _target_position(pipeline, sample):
    """1-based rank of the target, or None when the sample is skipped."""
    prepared = pipeline.prepare(sample)
    if prepared is None:
        return None
    norm, weights, keep, target = prepared
    return target_position(pipeline.reweighted(norm, weights), keep, target)


def evaluate(samples, pipeline: Pipeline, ks=DEFAULT_KS, threads=1,
             fingerprint=None, collect_positions=False):
    """Mean HR@K / NDCG@K over samples; order- and thread-count-independent."""
    positions = fan_out(lambda s: _target_position(pipeline, s), samples, threads)
    report = aggregate(positions, ks, fingerprint)
    if collect_positions:
        return report, positions
    return report


def aggregate(positions, ks=DEFAULT_KS, fingerprint=None) -> MetricsReport:
    kept = [p for p in positions if p is not None]
    n = max(len(kept), 1)  # no kept sample: every metric is 0.0
    return MetricsReport(
        hr={k: sum(hr_from_rank(p, k) for p in kept) / n for k in ks},
        ndcg={k: sum(ndcg_from_rank(p, k) for p in kept) / n for k in ks},
        n_samples=len(kept), skipped=len(positions) - len(kept),
        fingerprint=dict(fingerprint or {}),
    )


def most_pop_baseline(table, samples, catalog: ItemCatalog, ks=DEFAULT_KS,
                      fingerprint=None) -> MetricsReport:
    """Rank by global training popularity (count desc, index asc), minus the
    exclusions of Pipeline.candidates; an item's place stands in for its value."""
    n = len(catalog)
    place = np.empty(n, dtype=np.int64)
    place[np.lexsort((np.arange(n), -table.counts))] = np.arange(n)
    pipeline = Pipeline(None, None, None, catalog)
    positions = []
    for sample in samples:
        found = pipeline.candidates(sample)
        positions.append(None if found is None else target_position(place, *found))
    return aggregate(positions, ks, fingerprint)


def improve2lv(report_a: MetricsReport, report_b: MetricsReport,
               report_combined: MetricsReport):
    """(combined - max(a, b)) / max(a, b) per metric; None where max is 0."""
    if not (report_a.ks == report_b.ks == report_combined.ks):
        raise DataError("reports have mismatched K sets")
    out = {}
    for kind in ("hr", "ndcg"):
        for k in report_a.ks:
            a = getattr(report_a, kind)[k]
            b = getattr(report_b, kind)[k]
            c = getattr(report_combined, kind)[k]
            best = max(a, b)
            out[f"{kind}@{k}"] = None if best == 0 else (c - best) / best
    return out


def write_report(path, report: MetricsReport, as_json=False):
    if as_json:
        payload = {
            "fingerprint": report.fingerprint,
            "hr": {str(k): v for k, v in report.hr.items()},
            "ndcg": {str(k): v for k, v in report.ndcg.items()},
            "n_samples": report.n_samples,
            "skipped": report.skipped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(report.fingerprint):
            fh.write(f"# fingerprint: {key}={report.fingerprint[key]}\n")
        for k in report.ks:
            fh.write(f"hr@{k}\t{report.hr[k]:.10g}\n")
        for k in report.ks:
            fh.write(f"ndcg@{k}\t{report.ndcg[k]:.10g}\n")
        fh.write(f"n_samples\t{report.n_samples}\n")
        fh.write(f"skipped\t{report.skipped}\n")


def read_report(path) -> MetricsReport:
    """A report as write_report writes it, text or JSON. Anything else is a
    DataError naming the file, and the line where there is one."""
    with open_input(path, "report") as fh:
        content = fh.read()
    if content.lstrip().startswith("{"):
        return _json_report(content, path)
    hr = {}
    ndcg = {}
    fingerprint = {}
    counts = {"n_samples": 0, "skipped": 0}
    for lineno, line in enumerate(content.splitlines(), 1):
        if line.startswith("# fingerprint: "):
            key, _, val = line[len("# fingerprint: "):].partition("=")
            fingerprint[key] = val
            continue
        if not line or line.startswith("#"):
            continue
        name, _, val = line.partition("\t")
        where = f"at line {lineno} in report file {path}"
        kind, _, k = name.partition("@")
        if name in counts:
            counts[name] = _report_number(val, int, name, where)
        elif kind in ("hr", "ndcg") and k:
            table = hr if kind == "hr" else ndcg
            table[_report_number(k, int, "K", where)] = _report_number(val, float, name,
                                                                        where)
        else:
            raise DataError(f"unrecognized report line {line!r} {where}")
    return MetricsReport(hr=hr, ndcg=ndcg, fingerprint=fingerprint, **counts)


def _json_report(content, path) -> MetricsReport:
    try:
        payload = json.loads(content)
    except json.JSONDecodeError as e:
        raise DataError(f"report file {path} is not valid JSON: {e.msg} "
                        f"at line {e.lineno}") from None
    except RecursionError:
        raise DataError(f"report file {path} nests JSON too deeply") from None
    where = f"in report file {path}"
    tables = {}
    for kind in ("hr", "ndcg"):
        table = payload.get(kind)
        if not isinstance(table, dict):
            raise DataError(f"{kind!r} must map K to a metric value {where}")
        tables[kind] = {_report_number(k, int, f"{kind} K", where):
                        _report_number(v, float, f"{kind}@{k}", where)
                        for k, v in table.items()}
    fingerprint = payload.get("fingerprint", {})
    if not (isinstance(fingerprint, dict)
            and all(isinstance(v, str) for v in fingerprint.values())):
        raise DataError(f"'fingerprint' must map names to strings {where}")
    if "n_samples" not in payload:
        raise DataError(f"no 'n_samples' {where}")
    return MetricsReport(
        **tables,
        n_samples=_report_number(payload["n_samples"], int, "n_samples", where),
        skipped=_report_number(payload.get("skipped", 0), int, "skipped", where),
        fingerprint=fingerprint,
    )


def _report_number(value, kind, what, where):
    """value, a str from a text report or a JSON value, as an int (kind int)
    or a finite float (kind float); a DataError otherwise."""
    if type(value) in ((str, int) if kind is int else (str, int, float)):
        try:
            number = kind(value)
        except (ValueError, OverflowError):
            number = None
        if number is not None and (kind is int or math.isfinite(number)):
            return number
    noun = "an integer" if kind is int else "a finite number"
    raise DataError(f"{what} {value!r} is not {noun} {where}")
