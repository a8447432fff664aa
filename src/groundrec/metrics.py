"""Metric reports: HR@K / NDCG@K from target positions, the Improve2LV score,
and the report file, which has one format: the text that eval writes and
report reads strictly. Every ranking path gives target positions; aggregate
is the one place they become a report, metric_names the one place the
metric names are built, and check_comparable the one place reports are
checked before they are compared.

NDCG uses the single-relevant-item convention (IDCG = 1), so per sample it is
1/log2(rank+1) when the target lands within K, else 0. This module imports
no numpy, so the report command and argument parsing do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataError, open_input

DEFAULT_KS = (1, 3, 5, 10, 20)


def metric_names(ks=DEFAULT_KS):
    return [f"hr@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]


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


def aggregate(positions, ks=DEFAULT_KS, fingerprint=None) -> MetricsReport:
    """Mean HR@K / NDCG@K over the 1-based positions; None marks a skipped
    sample. Each gain is computed once; each K sums its hits in sample order."""
    kept = [p for p in positions if p is not None]
    n = max(len(kept), 1)  # no kept sample: every metric is 0.0
    top = max(ks, default=0)
    hits = [(p, ndcg_from_rank(p, top)) for p in kept if p <= top]
    return MetricsReport(
        hr={k: sum(1.0 for p, _ in hits if p <= k) / n for k in ks},
        ndcg={k: sum(gain for p, gain in hits if p <= k) / n for k in ks},
        n_samples=len(kept), skipped=len(positions) - len(kept),
        fingerprint=dict(fingerprint or {}),
    )


def improve2lv(report_a: MetricsReport, report_b: MetricsReport,
               report_combined: MetricsReport):
    """(combined - max(a, b)) / max(a, b) per metric; None where max is 0."""
    check_comparable(["a", "b", "combined"], [report_a, report_b, report_combined],
                     force=True)
    out = {}
    for name in metric_names(report_a.ks):
        best = max(report_a.metric(name), report_b.metric(name))
        out[name] = None if best == 0 else (report_combined.metric(name) - best) / best
    return out


def _first_difference(named):
    """The first name of (name, value) pairs and the first name whose value
    differs from the first's; None if every value is the same."""
    for name, value in named:
        if value != named[0][1]:
            return named[0][0], name
    return None


def check_comparable(names, reports, force=False):
    """Refuse reports that cannot be compared, with a DataError naming the
    first report and the first that differs from it: reports whose K sets
    differ and, unless force, reports computed on different sample sets,
    catalogs or embedding files. Most-Pop reads no --emb, so a report
    without a catalog or emb digest conflicts with none."""
    named = list(zip(names, reports))
    pair = _first_difference([(name, r.ks) for name, r in named])
    if pair:
        raise DataError("reports have mismatched K sets: {} and {}".format(*pair))
    for key, inputs in (("sha256.test", "sample sets"), ("sha256.catalog", "catalogs"),
                        ("sha256.emb", "embedding files")):
        pair = _first_difference([(name, r.fingerprint.get(key)) for name, r in named
                                  if key == "sha256.test" or r.fingerprint.get(key)])
        if pair and not force:
            raise DataError(f"reports were computed on different {inputs}: {pair[0]} "
                            f"and {pair[1]}; pass --force to compare")


def write_report(path, report: MetricsReport):
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(report.fingerprint):
            fh.write(f"# fingerprint: {key}={report.fingerprint[key]}\n")
        for name in metric_names(report.ks):
            fh.write(f"{name}\t{report.metric(name):.10g}\n")
        fh.write(f"n_samples\t{report.n_samples}\n")
        fh.write(f"skipped\t{report.skipped}\n")


def read_report(path) -> MetricsReport:
    """A report as write_report writes it. Anything else is a DataError
    naming the file, and the line where there is one: a line that is not a
    fingerprint, a metric or a count, a key given twice, a missing n_samples
    or skipped, or hr@K and ndcg@K lines that do not give the same K set.
    Counts are integers >= 0, each K an integer >= 1, both in plain decimal
    (no sign, leading zero or underscore), and metric values lie in [0, 1]."""
    with open_input(path, "report") as fh:
        content = fh.read()
    tables = {"hr": {}, "ndcg": {}}
    fingerprint = {}
    counts = {}
    first_line = {}  # each key read -> the line that gave it
    for lineno, line in enumerate(content.splitlines(), 1):
        where = f"at line {lineno} in report file {path}"
        if line.startswith("# fingerprint: "):
            key, _, value = line[len("# fingerprint: "):].partition("=")
            table, name, k = fingerprint, f"fingerprint {key}", ""
        elif not line or line.startswith("#"):
            continue
        else:
            name, _, text = line.partition("\t")
            kind, _, k = name.partition("@")
            if name in ("n_samples", "skipped"):
                table, key, value = counts, name, _report_count(text, name, 0, where)
            elif kind in tables and k:
                key = _report_number(k, int, "K", where)
                table, name = tables[kind], f"{kind}@{key}"
                value = _report_number(text, float, name, where)
                if not 0 <= value <= 1:
                    raise DataError(f"{name} {text!r} is not between 0 and 1 {where}")
            else:
                raise DataError(f"unrecognized report line {line[:80]!r} {where}")
        if name in first_line:
            raise DataError(f"{name} is given twice, at lines {first_line[name]} "
                            f"and {lineno} in report file {path}")
        if k:  # a metric's K as written, after the repeat check: hr@05 after hr@5 repeats
            _report_count(k, "K", 1, where)
        first_line[name] = lineno
        table[key] = value
    for name in ("n_samples", "skipped"):
        if name not in counts:
            raise DataError(f"report file {path} has no {name} line")
    hr, ndcg = tables["hr"], tables["ndcg"]
    if not hr or hr.keys() != ndcg.keys():
        raise DataError(f"report file {path} gives hr@K for K in {sorted(hr)} but "
                        f"ndcg@K for K in {sorted(ndcg)}; both need the same K, at least one")
    return MetricsReport(hr=hr, ndcg=ndcg, fingerprint=fingerprint, **counts)


def _report_count(text, what, least, where):
    """text as an int >= least, written as str() writes it; a DataError
    otherwise."""
    number = _report_number(text, int, what, where)
    if number < least or str(number) != text:
        raise DataError(f"{what} {text!r} is not an integer >= {least} in plain "
                        f"decimal {where}")
    return number


def _report_number(text, kind, what, where):
    """text from a report line as an int (kind int) or a finite float (kind
    float); a DataError otherwise."""
    try:
        number = kind(text)
    except ValueError:
        pass
    else:
        if kind is int or math.isfinite(number):
            return number
    noun = "an integer" if kind is int else "a finite number"
    raise DataError(f"{what} {text!r} is not {noun} {where}")
