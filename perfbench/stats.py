"""Order statistics, the tail-percentile rule and run fingerprints."""

from __future__ import annotations

import hashlib
import math
import typing

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, its value is one or two outliers.
MIN_SAMPLES_BEYOND = 10

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_FRACTIONS = (0.95, 0.90, 0.75, 0.50)


def percentile(values: typing.Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count))


def tail_percentile(values: typing.Sequence[float]
                    ) -> tuple[float, float]:
    """The highest of :data:`TAIL_FRACTIONS` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, as ``(fraction,
    value)``.

    p95 needs 200 samples; a run with fewer reports a lower percentile
    and says which.  Below 21 samples even the median has fewer than
    ten beyond it, and the median is returned regardless.
    """
    for fraction in TAIL_FRACTIONS:
        if samples_beyond(len(values), fraction) >= MIN_SAMPLES_BEYOND:
            return fraction, percentile(values, fraction)
    return 0.50, percentile(values, 0.50)


def row_digest(rows: typing.Iterable[tuple]) -> str:
    """Order-independent digest of a row multiset."""
    encoded = sorted(repr(row) for row in rows)
    digest = hashlib.sha256()
    for item in encoded:
        digest.update(item.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def fingerprint(items: typing.Iterable[typing.Any]) -> str:
    """Short hash of a sequence of simulated outcomes (reprs)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]
