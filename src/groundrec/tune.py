"""Gamma grid search on the validation partition.

The grid is 0.00 to 1.00 in steps of 0.01 plus the integers 2 through 100:
exactly 200 strictly increasing values. Distances are gamma-independent, so
Pipeline.prepare computes each sample's values (normalized distances, +inf
at its exclusions), checked weights and target once, and the sweep only
redoes harness.target_positions, the divide-and-count step eval runs at its
one gamma. Samples that share one weight array (popularity injection) share
its divisor (1 + w)^gamma, computed once per gamma and chunk.

Samples are prepared and swept CHUNK_SAMPLES at a time, so memory holds one
chunk's values and weights (popularity's one shared array, or each other
sample's nonzero weights), plus one position per kept sample and gamma,
however many samples there are. Each gamma's positions keep sample order,
so the sums, and the sweep, equal those of one pass over all samples.
metrics.aggregate turns each gamma's positions into a MetricsReport, as it
does eval's; best and write_sweep read the reports by metric name.
"""

from __future__ import annotations

from array import array

from .errors import DataError
from .harness import Pipeline, target_positions
from .metrics import aggregate, metric_names

CHUNK_SAMPLES = 256


def gamma_grid():
    fine = [round(i / 100.0, 2) for i in range(101)]
    coarse = [float(g) for g in range(2, 101)]
    return fine + coarse


def tune_gamma(samples, pipeline: Pipeline, metric="ndcg@20", grid=None, source=None):
    """Returns (best gamma, sweep table of (gamma, MetricsReport) rows). Ties
    pick the smallest gamma. Refuses a sweep of no kept sample: an empty
    list, or one where every sample skips (a repeat consumption); source,
    the samples' file, is named in the error."""
    where = "" if source is None else f" in {source}"
    if not samples:
        raise DataError(f"validation set{where} is empty; cannot tune gamma")
    grid = gamma_grid() if grid is None else list(grid)

    kept = [array("q") for _ in grid]  # per gamma, the kept samples' positions
    n_kept = 0
    for start in range(0, len(samples), CHUNK_SAMPLES):
        chunk = samples[start:start + CHUNK_SAMPLES]
        prepared = [p for p in map(pipeline.prepare, chunk) if p is not None]
        n_kept += len(prepared)
        for positions, gamma in zip(kept, grid):
            positions.extend(target_positions(prepared, gamma))
    if not n_kept:
        raise DataError(f"no drawn validation sample{where} was kept: each one is "
                        "a repeat consumption, whose target is in its history; "
                        "cannot tune gamma")

    # skipped samples change no mean
    table = [(gamma, aggregate(positions)) for gamma, positions in zip(grid, kept)]
    best, _ = max(table, key=lambda row: (row[1].metric(metric), -row[0]))
    return best, table


def write_sweep(path, table):
    names = metric_names()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gamma\t" + "\t".join(names) + "\n")
        for gamma, report in table:
            vals = "\t".join(f"{report.metric(n):.10g}" for n in names)
            fh.write(f"{gamma:.10g}\t{vals}\n")
