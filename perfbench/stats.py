"""Summary statistics shared by every part of the benchmark.

A timing is reported as its median and its tail: the highest percentile of
a fixed ladder that still has at least MIN_BEYOND samples beyond it, so
the tail never rests on one or two outliers.  Every summary carries its
sample count.  Quartiles are those of statistics.quantiles(values, n=4),
the definition the benchmark's steadiness rules are judged by.
"""

import math
import statistics
from dataclasses import dataclass

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(values, p):
    """Linearly interpolated percentile (p in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it.

    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


@dataclass
class SampleStats:
    n: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    tail_p: float  # None when too few samples for any tail
    tail: float

    @classmethod
    def of(cls, values):
        tail_p = tail_percentile(len(values))
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return cls(
            n=len(values),
            min=min(values),
            q1=q1,
            median=q2,
            q3=q3,
            max=max(values),
            tail_p=tail_p,
            tail=percentile(values, tail_p) if tail_p is not None else None,
        )


def median(values):
    return percentile(values, 50.0)


def quartile_spread(values):
    """(q3 - q1) / median of the samples."""
    s = SampleStats.of(values)
    return (s.q3 - s.q1) / s.median if s.median else 0.0


@dataclass
class Bucket:
    lo_us: float  # bucket covers [lo_us, 2 * lo_us)
    count: int
    min: float
    avg: float
    max: float


def log2_histogram(values_us):
    """Power-of-two buckets of microsecond samples with per-bucket min/avg/max.

    Samples below 1 us share the first bucket.  Empty buckets between the
    lowest and highest occupied ones are kept, so gaps in a tail show.
    """
    groups = {}
    for v in values_us:
        k = max(0, math.floor(math.log2(v))) if v >= 1.0 else 0
        groups.setdefault(k, []).append(v)
    if not groups:
        return []
    out = []
    for k in range(min(groups), max(groups) + 1):
        g = groups.get(k, [])
        out.append(
            Bucket(
                lo_us=float(2**k),
                count=len(g),
                min=min(g) if g else 0.0,
                avg=sum(g) / len(g) if g else 0.0,
                max=max(g) if g else 0.0,
            )
        )
    return out


def render_histogram(buckets):
    lines = ["  bucket (us)            count        min        avg        max"]
    for b in buckets:
        lines.append(
            "  [%8.0f, %8.0f) %9d %10.1f %10.1f %10.1f"
            % (b.lo_us, 2 * b.lo_us, b.count, b.min, b.avg, b.max)
        )
    return "\n".join(lines)
