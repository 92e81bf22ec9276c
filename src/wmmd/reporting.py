"""Experiment reporting: log-log slope fits and CSV/JSON report emission."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import stream_rng

__all__ = ["SlopeFit", "DegenerateZero", "scaling_exponent", "sampling_rate", "Report", "emit_report"]


class DegenerateZero(ValueError):
    """All measurements vanish; a log-log slope is undefined."""


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares fit of log(measurement) against log(scale)."""

    slope: float
    stderr: float
    r2: float
    grid: tuple  # ((log x, log y), ...) pairs the fit is recomputable from

    def __post_init__(self):
        assert self.stderr >= 0.0


def scaling_exponent(values):
    """Fit a power law y = c * x^slope through (scale, measurement) pairs.

    values: iterable of (x, y), both strictly positive, at least 4 pairs.
    Returns a SlopeFit with the OLS slope, its standard error and r^2.
    """
    pairs = [(float(x), float(y)) for x, y in values]
    if len(pairs) < 4:
        raise ValueError("need at least 4 (scale, measurement) pairs")
    if all(abs(y) <= 1e-300 for _, y in pairs):
        raise DegenerateZero("all measurements are zero")
    if any(x <= 0 or y <= 0 for x, y in pairs):
        raise ValueError("scales and measurements must be positive")
    lx = np.log([x for x, _ in pairs])
    ly = np.log([y for _, y in pairs])
    n = len(pairs)
    A = np.vstack([lx, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = coef
    resid = ly - A @ coef
    sxx = np.sum((lx - lx.mean()) ** 2)
    dof = max(n - 2, 1)
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if sxx > 0 else 0.0
    syy = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - float(resid @ resid) / float(syy) if syy > 0 else 1.0
    return SlopeFit(
        slope=float(slope),
        stderr=float(stderr),
        r2=float(r2),
        grid=tuple(zip(lx.tolist(), ly.tolist())),
    )


def sampling_rate(distance, n_grid, trials, seed):
    """scaling_exponent of the mean of distance(n, rng) over `trials` draws, against n.

    Trial t at grid point gi draws from stream_rng(seed, gi, t); the grid
    needs at least 5 sizes.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 5:
        raise ValueError("n_grid needs at least 5 points")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = []
    for gi, n in enumerate(n_grid):
        acc = 0.0
        for t in range(trials):
            acc += distance(n, stream_rng(seed, gi, t))
        pairs.append((n, acc / trials))
    return scaling_exponent(pairs)


@dataclass
class Report:
    """Tabular experiment output plus a machine-readable summary."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_row(self, *vals):
        if len(vals) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append(list(vals))

    @property
    def passed(self):
        return bool(self.summary.get("pass", True))


def _fmt_val(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_report(report, path):
    """Write the report as CSV plus a `<path>.summary.json` sidecar."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(report.columns)
        for row in report.rows:
            w.writerow([_fmt_val(v) for v in row])
    summary = dict(report.summary)
    summary.setdefault("experiment", report.name)
    from . import __version__

    summary.setdefault("version", f"wmmd-{__version__}")
    with open(str(path) + ".summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=float)
        f.write("\n")
