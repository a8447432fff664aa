"""Metric reports: HR@K / NDCG@K from target positions, the Improve2LV score,
and the report file format that eval writes and report reads. Every ranking
path gives target positions; aggregate is the one place they become a
report, and metric_names the one place the metric names are built.

NDCG uses the single-relevant-item convention (IDCG = 1), so per sample it is
1/log2(rank+1) when the target lands within K, else 0. This module imports
no numpy, so the report command and argument parsing do not load it.
"""

from __future__ import annotations

import json
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
    """Mean HR@K / NDCG@K over the 1-based positions; None marks a skipped sample."""
    kept = [p for p in positions if p is not None]
    n = max(len(kept), 1)  # no kept sample: every metric is 0.0
    return MetricsReport(
        hr={k: sum(hr_from_rank(p, k) for p in kept) / n for k in ks},
        ndcg={k: sum(ndcg_from_rank(p, k) for p in kept) / n for k in ks},
        n_samples=len(kept), skipped=len(positions) - len(kept),
        fingerprint=dict(fingerprint or {}),
    )


def improve2lv(report_a: MetricsReport, report_b: MetricsReport,
               report_combined: MetricsReport):
    """(combined - max(a, b)) / max(a, b) per metric; None where max is 0."""
    if not (report_a.ks == report_b.ks == report_combined.ks):
        raise DataError("reports have mismatched K sets")
    out = {}
    for name in metric_names(report_a.ks):
        best = max(report_a.metric(name), report_b.metric(name))
        out[name] = None if best == 0 else (report_combined.metric(name) - best) / best
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
        for name in metric_names(report.ks):
            fh.write(f"{name}\t{report.metric(name):.10g}\n")
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
