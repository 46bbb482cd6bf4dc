"""Order statistics used by the benchmark.

Percentiles interpolate linearly between order statistics (the same rule
as numpy's default and `statistics.quantiles(..., method="inclusive")`).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 <= q <= 1) of `values`, linearly interpolated at
    position q * (len - 1) of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 1:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` sorted samples lie strictly above the position
    of the q-quantile, i.e. take no part in its interpolation."""
    if count < 1:
        raise ValueError("need at least one sample")
    return count - 1 - math.floor(q * (count - 1))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles as `statistics.quantiles(values, n=4)`
    gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
