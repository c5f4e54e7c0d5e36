"""The benchmark's arithmetic, kept apart so test_stats.py can pin it."""

import statistics

# Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def samples_beyond(count, percentile):
    """Samples above the given percentile of `count` samples. The share is
    rounded to 1e-6 first, so 99.9 leaves exactly a thousandth."""
    return count * round((100.0 - percentile) * 10_000) / 1_000_000


def highest_percentile(count, beyond=10, candidates=PERCENTILES):
    """The highest candidate percentile with at least `beyond` samples above
    it, or None when even the lowest has fewer."""
    best = None
    for percentile in candidates:
        if samples_beyond(count, percentile) >= beyond:
            best = percentile
    return best


def histogram_quantile(hist, q):
    """The q-quantile (0 < q <= 1) of a fixed-bucket histogram, interpolated
    linearly inside the bucket that holds it.

    `hist` is a RunResult histogram snapshot: ascending inclusive upper
    `edges`, `counts` with one overflow bucket last, and the observed
    `count`, `min` and `max`. The interpolation range is clamped to
    [min, max], so the estimate never leaves the observed span.
    """
    count = hist["count"]
    if count == 0:
        raise ValueError("quantile of an empty histogram")
    edges, counts = hist["edges"], hist["counts"]
    rank = q * count
    below = 0
    for bucket, in_bucket in enumerate(counts):
        if in_bucket and below + in_bucket >= rank:
            lower = edges[bucket - 1] if bucket > 0 else 0
            upper = edges[bucket] if bucket < len(edges) else hist["max"]
            lower = max(lower, hist["min"])
            upper = min(upper, hist["max"])
            return lower + (upper - lower) * (rank - below) / in_bucket
        below += in_bucket
    return float(hist["max"])


def commit_pct(sent, committed):
    """Committed as a percentage of sent; the rest count as failed."""
    if committed > sent:
        raise ValueError("committed exceeds sent")
    return 100.0 * committed / sent


def failure_share(sent, committed):
    """(sent - committed) / sent."""
    return 1.0 - commit_pct(sent, committed) / 100.0


def ratio(value, base):
    """value per unit of base; the base must be non-zero."""
    if base == 0:
        raise ValueError("ratio with a zero base")
    return value / base


def overhead_pct(traced, untraced):
    """How much longer the traced run took, in percent of the untraced one."""
    return 100.0 * ratio(traced - untraced, untraced)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
