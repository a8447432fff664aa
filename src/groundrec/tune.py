"""Gamma grid search on the validation partition.

The grid is 0.00 to 1.00 in steps of 0.01 plus the integers 2 through 100:
exactly 200 strictly increasing values. Distances are gamma-independent, so
Pipeline.prepare computes each sample's normalized distances, checked
weights, keep mask and target once, and the sweep only redoes the cheap
divide-and-count step.
Samples that share one weight array (popularity injection) share its divisor
(1 + w)^gamma, computed once per gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .ground import target_position
from .harness import Pipeline, fan_out
from .metrics import DEFAULT_KS, aggregate, metric_names


def gamma_grid():
    fine = [round(i / 100.0, 2) for i in range(101)]
    coarse = [float(g) for g in range(2, 101)]
    return fine + coarse


@dataclass
class SweepRow:
    gamma: float
    metrics: dict[str, float]  # metric name -> value, e.g. "ndcg@20"


def tune_gamma(samples, pipeline: Pipeline, metric="ndcg@20", ks=DEFAULT_KS,
               grid=None, threads=1):
    """Returns (best gamma, sweep table). Ties pick the smallest gamma."""
    if not samples:
        raise DataError("validation set is empty; cannot tune gamma")
    grid = gamma_grid() if grid is None else list(grid)

    prepared = fan_out(pipeline.prepare, samples, threads)

    def sweep_point(gamma):
        positions = []
        shared = divisor = None  # the last weight array and its divisor
        for entry in prepared:
            if entry is None:
                positions.append(None)
                continue
            norm, weights, keep, target = entry
            if weights is not None and gamma > 0:
                if weights is not shared:
                    shared, divisor = weights, (1.0 + weights) ** gamma
                adjusted = norm / divisor
            else:
                adjusted = norm
            positions.append(target_position(adjusted, keep, target))
        report = aggregate(positions, ks)
        metrics = {f"hr@{k}": report.hr[k] for k in ks}
        metrics.update({f"ndcg@{k}": report.ndcg[k] for k in ks})
        return SweepRow(gamma=gamma, metrics=metrics)

    table = fan_out(sweep_point, grid, threads)

    best = max(table, key=lambda row: (row.metrics[metric], -row.gamma))
    return best.gamma, table


def write_sweep(path, table, ks=DEFAULT_KS):
    names = metric_names(ks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gamma\t" + "\t".join(names) + "\n")
        for row in table:
            vals = "\t".join(f"{row.metrics[n]:.10g}" for n in names)
            fh.write(f"{row.gamma:.10g}\t{vals}\n")
