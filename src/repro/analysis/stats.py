"""Statistical primitives used by the analyses.

The paper's headline metric is the *median* RTT (robust to probe
outliers); last-mile stability uses the coefficient of variation; and the
campaign sizing uses the standard proportion-estimate sample-size formula
(section 3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used for the paper's boxplots."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @property
    def iqr(self) -> float:
        """Interquartile range -- the "box height" the paper reads as
        latency variation (Fig. 13b)."""
        return self.q3 - self.q1

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxStats":
        values = np.asarray(list(samples), dtype=float)
        if values.size == 0:
            raise ValueError("cannot summarize an empty sample set")
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        return cls(
            count=int(values.size),
            minimum=float(values.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(values.max()),
        )

    def render(self) -> str:
        return (
            f"n={self.count} min={self.minimum:.1f} q1={self.q1:.1f} "
            f"med={self.median:.1f} q3={self.q3:.1f} max={self.maximum:.1f}"
        )


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of a sample set."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    return float(np.percentile(values, q))


def median(samples: Sequence[float]) -> float:
    """Median of a sample set."""
    return percentile(samples, 50.0)


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """Cv = sigma / mu, the paper's last-mile stability metric (Fig. 8).

    Uses the population standard deviation, as is conventional for Cv.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size < 2:
        raise ValueError("Cv needs at least two samples")
    mean = float(values.mean())
    if mean <= 0:
        raise ValueError(f"Cv requires a positive mean, got {mean}")
    return float(values.std()) / mean


def group_ids(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the groups of equal value tuples in ``columns``.

    Returns each row's group and each group's first row.  Groups are
    numbered in the order they first occur, the order in which a dict
    filled row by row would hold their keys.
    """
    size = len(columns[0])
    if size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    combined = np.zeros(size, np.int64)
    for column in columns:
        _, codes = np.unique(column, return_inverse=True)
        combined = combined * (int(codes.max()) + 1) + codes
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    rank = np.empty(len(first), np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], np.sort(first)


def group_rows(*columns: np.ndarray) -> List[Tuple[Tuple[Any, ...], np.ndarray]]:
    """Group row indices by the tuple of their values in ``columns``.

    Returns ``(key, rows)`` pairs in the order each key first occurs,
    with each group's rows ascending: the groups, and the order of their
    values, that a dict of lists filled row by row would hold.  Key
    parts are Python scalars.
    """
    labels, heads = group_ids(*columns)
    groups = np.split(
        np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1]
    )
    return [
        (tuple(column[head].item() for column in columns), rows)
        for head, rows in zip(heads.tolist(), groups)
    ]


def last_rows(labels: np.ndarray) -> np.ndarray:
    """Each group's last row: the row that wins a dict filled row by
    row, for the groups numbered by ``labels``."""
    last = np.zeros(int(labels.max(initial=-1)) + 1, np.int64)
    np.maximum.at(last, labels, np.arange(len(labels)))
    return last


def fraction_below(samples: Sequence[float], threshold: float) -> float:
    """Share of samples strictly below ``threshold``."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot compute a fraction of an empty sample set")
    return float((values < threshold).mean())


def required_sample_size(
    confidence: float = 0.95,
    margin_of_error: float = 0.02,
    population_proportion: float = 0.5,
) -> int:
    """Minimum sample size n = z^2 p (1-p) / e^2 (paper section 3.3).

    With the paper's parameters (95% confidence, 2% margin, worst-case
    p = 0.5) this returns 2401, matching the ">2400 measurements per
    country" requirement.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 < margin_of_error < 1.0:
        raise ValueError(
            f"margin of error must be in (0, 1), got {margin_of_error}"
        )
    if not 0.0 < population_proportion < 1.0:
        raise ValueError(
            f"population proportion must be in (0, 1), got {population_proportion}"
        )
    z = _z_score(confidence)
    n = (z**2) * population_proportion * (1.0 - population_proportion) / (
        margin_of_error**2
    )
    return math.ceil(n)


def _z_score(confidence: float) -> float:
    """Two-sided z-score: the standard normal's ``(1 + confidence) / 2``
    quantile."""
    return NormalDist().inv_cdf((1.0 + confidence) / 2.0)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |ECDF_a - ECDF_b|.

    Used by the batch-engine equivalence tests to bound how far the
    vectorized samplers drift from their per-sample scalar reference.
    """
    xs = np.asarray(sorted(float(v) for v in a), dtype=np.float64)
    ys = np.asarray(sorted(float(v) for v in b), dtype=np.float64)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("cannot compute a KS distance of an empty sample set")
    grid = np.concatenate([xs, ys])
    cdf_a = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_b = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def cdf_points(samples: Sequence[float]) -> List[tuple]:
    """(value, cumulative fraction) pairs for an empirical CDF."""
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("cannot build a CDF of an empty sample set")
    n = len(values)
    return [(value, (index + 1) / n) for index, value in enumerate(values)]
