"""Arithmetic of the benchmark report: percentiles, the tail rule, ratios
with their base, and self time from span intervals."""
from __future__ import annotations

import math
from collections import defaultdict

# Candidate tail percentiles, highest first.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (numpy's default 'linear' rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the interpolation position of the q-quantile."""
    return n - 1 - math.floor(q * (n - 1))


def tail_quantile(n: int) -> float:
    """Highest ladder quantile with at least MIN_BEYOND samples beyond it.

    With too few samples for any ladder entry the tail falls back to the
    median, and the report says so next to the sample count.
    """
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 0.5


def latency_summary(values) -> dict:
    """Median and tail of a list of latencies, with the rule's bookkeeping."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    q = tail_quantile(n)
    return {
        "n": n,
        "p50": percentile(values, 0.5),
        "tail": percentile(values, q),
        "tail_q": q,
        "beyond": samples_beyond(n, q),
    }


def ratio(num: float, base: float) -> float:
    """num / base for a base that must be positive (a count of attempts)."""
    if base <= 0:
        raise ValueError(f"ratio needs a positive base, got {base}")
    return num / base


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans, primitive_self) -> dict:
    """Self time of each span.

    `spans` holds (span_id, parent_id, t0, t1); `primitive_self` maps a span
    id to the summed self time of the primitive calls made directly under
    it. A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once) minus the
    primitive time under it.
    """
    children = defaultdict(list)
    for sid, parent, t0, t1 in spans:
        children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - covered_length(children[sid], t0, t1) - primitive_self.get(sid, 0.0)
        for sid, _, t0, t1 in spans
    }
