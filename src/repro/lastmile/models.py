"""Concrete last-mile models calibrated to the paper's Figs. 7-9.

Targets: wireless USR-ISP medians around 20-25 ms with per-probe
coefficient of variation near 0.5 for both WiFi and cellular; wired
last-mile near 10 ms with low variation, matching both RIPE Atlas probes
and the Speedchecker home RTR-ISP segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LastMileConfig
from repro.lastmile.base import (
    AccessKind,
    LastMileDraw,
    LastMileModel,
    LastMileParams,
    lognormal_ms,
)


@dataclass
class HomeWifiLastMile(LastMileModel):
    """Home probe: WiFi air segment plus a wired access segment.

    ``quality`` scales the wireless median per country (see
    :attr:`repro.core.config.LastMileConfig.country_quality`).
    """

    config: LastMileConfig
    quality: float = 1.0
    kind = AccessKind.HOME_WIFI

    def draw(self, rng: np.random.Generator) -> LastMileDraw:
        air = lognormal_ms(
            self.config.wifi_air_median_ms * self.quality,
            self.config.wifi_air_sigma,
            rng,
        )
        if rng.random() < self.config.bufferbloat_probability:
            air *= self.config.bufferbloat_inflation
        wire = lognormal_ms(
            self.config.home_wire_median_ms * self.quality,
            self.config.home_wire_sigma,
            rng,
        )
        return LastMileDraw(air_ms=air, wire_ms=wire)

    def batch_params(self) -> LastMileParams:
        return (
            self.config.wifi_air_median_ms * self.quality,
            self.config.wifi_air_sigma,
            self.config.home_wire_median_ms * self.quality,
            self.config.home_wire_sigma,
            self.config.bufferbloat_probability,
            self.config.bufferbloat_inflation,
        )

    def median_total_ms(self) -> float:
        return (
            self.config.wifi_air_median_ms + self.config.home_wire_median_ms
        ) * self.quality


@dataclass
class CellularLastMile(LastMileModel):
    """Cellular probe: one radio+RAN segment straight into the ISP."""

    config: LastMileConfig
    quality: float = 1.0
    kind = AccessKind.CELLULAR

    def draw(self, rng: np.random.Generator) -> LastMileDraw:
        air = lognormal_ms(
            self.config.cellular_median_ms * self.quality,
            self.config.cellular_sigma,
            rng,
        )
        if rng.random() < self.config.bufferbloat_probability:
            air *= self.config.bufferbloat_inflation
        return LastMileDraw(air_ms=air, wire_ms=0.0)

    def batch_params(self) -> LastMileParams:
        return (
            self.config.cellular_median_ms * self.quality,
            self.config.cellular_sigma,
            0.0,
            0.0,
            self.config.bufferbloat_probability,
            self.config.bufferbloat_inflation,
        )

    def median_total_ms(self) -> float:
        return self.config.cellular_median_ms * self.quality


@dataclass
class WiredLastMile(LastMileModel):
    """Managed wired connection (RIPE Atlas style)."""

    config: LastMileConfig
    quality: float = 1.0
    kind = AccessKind.WIRED

    def draw(self, rng: np.random.Generator) -> LastMileDraw:
        wire = lognormal_ms(
            self.config.wired_median_ms,
            self.config.wired_sigma,
            rng,
        )
        return LastMileDraw(air_ms=0.0, wire_ms=wire)

    def batch_params(self) -> LastMileParams:
        return (
            0.0,
            0.0,
            self.config.wired_median_ms,
            self.config.wired_sigma,
            0.0,
            1.0,
        )

    def median_total_ms(self) -> float:
        return self.config.wired_median_ms
