"""Last-mile abstractions.

The paper decomposes the "last mile" -- probe to first hop inside the
serving ISP's AS -- into segments it can observe in traceroutes
(section 5):

- ``SC home (USR-ISP)``: user device -> ISP edge, over a home router.
  This is the *air* segment (WiFi) plus the *wire* segment (DSL/cable).
- ``SC home (RTR-ISP)``: home router -> ISP edge; the wire segment only.
- ``SC cell``: device -> first cellular hop; a single radio+RAN segment.
- ``Atlas``: a managed wired connection.

A :class:`LastMileDraw` carries both segments so the analysis layer can
reproduce all four series of the paper's Fig. 7.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np


class AccessKind(str, Enum):
    """How a probe reaches its serving ISP."""

    HOME_WIFI = "home_wifi"
    CELLULAR = "cellular"
    WIRED = "wired"

    @property
    def is_wireless(self) -> bool:
        return self in (AccessKind.HOME_WIFI, AccessKind.CELLULAR)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class LastMileDraw:
    """One latency sample of the last mile, decomposed by segment.

    ``air_ms`` is the wireless leg (zero for wired access); ``wire_ms``
    is the fixed leg between the home router / base-station aggregation
    and the ISP edge (zero for cellular, where the radio access network
    is folded into ``air_ms`` as in the paper's inference).
    """

    air_ms: float
    wire_ms: float

    @property
    def total_ms(self) -> float:
        """Probe-to-ISP latency (the paper's USR-ISP segment)."""
        return self.air_ms + self.wire_ms

    def __post_init__(self) -> None:
        if self.air_ms < 0 or self.wire_ms < 0:
            raise ValueError(
                f"last-mile segments must be non-negative: {self.air_ms}, {self.wire_ms}"
            )


#: Parameter vector describing a last-mile model for batched sampling:
#: ``(air_median, air_sigma, wire_median, wire_sigma,
#: bufferbloat_probability, bufferbloat_inflation)``.  A zero median
#: means the segment is absent and always draws exactly zero.
LastMileParams = Tuple[float, float, float, float, float, float]


class LastMileModel(ABC):
    """A distribution over last-mile latency draws."""

    kind: AccessKind

    @abstractmethod
    def draw(self, rng: np.random.Generator) -> LastMileDraw:
        """One last-mile latency sample."""

    @abstractmethod
    def batch_params(self) -> LastMileParams:
        """The model's :data:`LastMileParams` row for
        :func:`sample_lastmile_block`."""

    def median_total_ms(self) -> float:
        """Median of the USR-ISP total (analytic, for calibration tests)."""
        raise NotImplementedError


def lognormal_ms(
    median: float, sigma: float, rng: np.random.Generator
) -> float:
    """A lognormal latency draw parameterised by its median.

    Latency distributions at the access link are right-skewed with a
    hard floor; the lognormal is the standard fit in last-mile studies.
    """
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return float(median * np.exp(sigma * rng.standard_normal()))


def sample_lastmile_block(
    params: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One last-mile draw per row of ``params``, as ``(air_ms, wire_ms)``.

    ``params`` stacks one :data:`LastMileParams` row per draw.  Every row
    is drawn at once, in a fixed order -- air noise, bufferbloat
    uniforms, wire noise -- so a given seed always produces the same
    arrays.  A zero median is an absent segment and draws exactly zero.
    """
    n = params.shape[0]
    z_air = rng.standard_normal(n)
    u_bloat = rng.random(n)
    z_wire = rng.standard_normal(n)
    air_median, air_sigma, wire_median, wire_sigma, bloat_p, bloat_x = params.T
    air = np.where(air_median > 0.0, air_median * np.exp(air_sigma * z_air), 0.0)
    air = np.where(u_bloat < bloat_p, air * bloat_x, air)
    wire = np.where(
        wire_median > 0.0, wire_median * np.exp(wire_sigma * z_wire), 0.0
    )
    return air, wire
