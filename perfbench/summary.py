"""Order statistics for benchmark samples.

Timings are reported as a median plus the highest percentile that still
has at least :data:`TAIL_MARGIN` samples beyond it, so a tail is never
read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples required beyond a percentile before it may be reported.
TAIL_MARGIN = 10

#: Percentiles the tail helper may choose from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """The highest percentile of ``ladder`` with >= TAIL_MARGIN samples beyond it.

    ``None`` when even the lowest rung lacks the margin.
    """
    for q in sorted(ladder, reverse=True):
        if round(count * (100.0 - q) / 100.0, 6) >= TAIL_MARGIN:
            return q
    return None


def timing(samples: Sequence[float], want: float) -> Dict[str, object]:
    """Summary of one timing series at the wanted percentile.

    A tail (``want`` above 50) is reported only with the required
    samples beyond it; otherwise ``value`` falls back to the highest
    percentile that has them (the median at worst), ``percentile``
    names it and ``supported`` is false.
    """
    count = len(samples)
    if not count:
        return {"value": None, "samples": 0, "percentile": want, "supported": False}
    used = want
    if want > 50.0:
        best = tail_percentile(count, [q for q in TAIL_LADDER if q <= want])
        used = best if best is not None else 50.0
    return {
        "value": percentile(samples, used),
        "samples": count,
        "percentile": used,
        "supported": used == want,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))

