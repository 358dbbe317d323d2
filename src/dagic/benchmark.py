"""Sequence-similarity benchmark: relative reciprocal BLAST scores
(RRBS) joined with SimMax, sorted, binned, and summarized with a
closed-form OLS fit over bin means."""

import logging
import math
from dataclasses import dataclass

from .errors import (
    DegenerateRegression,
    MalformedLine,
    MissingScore,
    NegativeScore,
    TooFewBins,
    ZeroDenominator,
    require_fields,
)

log = logging.getLogger(__name__)

IDENTICAL_TOL = 1e-12


def load_bitscores(stream):
    """Load directed bit scores from TSV lines `a<TAB>b<TAB>score`.

    Self lines (a == b) supply the denominators for RRBS. Duplicate
    (a, b) entries keep the maximum score, with a warning."""
    scores = {}
    duplicates = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise MalformedLine(lineno, f"expected 3 tab-separated columns, got {len(cols)}")
        require_fields(lineno, cols, (1, 2, 3))
        try:
            score = float(cols[2])
        except ValueError:
            raise MalformedLine(lineno, f"bad score {cols[2]!r}") from None
        if not math.isfinite(score):
            raise MalformedLine(lineno, f"non-finite score {cols[2]!r}")
        if score < 0:
            raise NegativeScore(lineno, score)
        key = (cols[0], cols[1])
        if key in scores:
            duplicates += 1
            scores[key] = max(scores[key], score)
        else:
            scores[key] = score
    if duplicates:
        log.warning("kept maximum score for %d duplicate (a, b) entries", duplicates)
    return scores


def rrbs(scores, a, b):
    """(bits(a,b) + bits(b,a)) / (bits(a,a) + bits(b,b))."""
    vals = []
    for key in ((a, b), (b, a), (a, a), (b, b)):
        if key not in scores:
            raise MissingScore(*key)
        vals.append(scores[key])
    denom = vals[2] + vals[3]
    if denom <= 0:
        raise ZeroDenominator(a, b)
    return (vals[0] + vals[1]) / denom


@dataclass
class Bin:
    index: int
    count: int
    mean_rrbs: float
    mean_simmax: float


@dataclass
class BenchmarkReport:
    bins: list
    sim_range: float    # max - min
    sim_min: float      # mean SimMax of the minimum-RRBS bin
    sim_max: float      # mean SimMax of the maximum-RRBS bin
    r2: float
    excluded_identical: int

    def to_dict(self, metric):
        return {
            "metric": metric,
            "range": self.sim_range,
            "min": self.sim_min,
            "max": self.sim_max,
            "r2": self.r2,
            "bins": len(self.bins),
            "excluded_identical": self.excluded_identical,
        }


def _make_bins(points, bin_size):
    bins = []
    for i in range(0, len(points), bin_size):
        chunk = points[i:i + bin_size]
        bins.append(Bin(
            index=len(bins),
            count=len(chunk),
            mean_rrbs=sum(p[1] for p in chunk) / len(chunk),
            mean_simmax=sum(p[2] for p in chunk) / len(chunk),
        ))
    return bins


def ols_r2(xs, ys):
    """Coefficient of determination of the closed-form least-squares line."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise DegenerateRegression()
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def run_benchmark(pairs, bin_size, exclude_identical=True, regress_on_bins=True):
    """pairs: iterable of ((id_a, id_b), simmax, rrbs).

    Sorts by (rrbs, simmax, pair id), bins in fixed chunks (final
    partial bin kept), and reports range/min/max over the unfiltered
    bins. The regression drops raw pairs with rrbs == 1 first (when
    exclude_identical) and re-bins before fitting; set
    regress_on_bins=False to fit raw pairs instead of bin means."""
    points = sorted(((tuple(pid), float(rr), float(sm)) for pid, sm, rr in pairs),
                    key=lambda p: (p[1], p[2], p[0]))
    if len(points) < 2:
        raise TooFewBins(0 if not points else 1)

    bins = _make_bins(points, bin_size)
    sim_min = bins[0].mean_simmax   # sorted ascending: first bin holds min RRBS
    sim_max = bins[-1].mean_simmax

    if exclude_identical:
        retained = [p for p in points if abs(p[1] - 1.0) > IDENTICAL_TOL]
        excluded = len(points) - len(retained)
    else:
        retained = points
        excluded = 0

    if regress_on_bins:
        reg_bins = _make_bins(retained, bin_size)
        if len(reg_bins) < 2:
            raise TooFewBins(len(reg_bins))
        xs = [b.mean_rrbs for b in reg_bins]
        ys = [b.mean_simmax for b in reg_bins]
    else:
        if len(retained) < 2:
            raise TooFewBins(len(retained))
        xs = [p[1] for p in retained]
        ys = [p[2] for p in retained]

    return BenchmarkReport(
        bins=bins,
        sim_range=sim_max - sim_min,
        sim_min=sim_min,
        sim_max=sim_max,
        r2=ols_r2(xs, ys),
        excluded_identical=excluded,
    )
