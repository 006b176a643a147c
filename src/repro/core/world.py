"""The :class:`World` facade: everything a campaign needs, wired together."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.cloud.providers import CloudProvider
from repro.cloud.regions import CloudRegion, RegionCatalog
from repro.cloud.wan import PrivateWAN
from repro.core.config import SimulationConfig
from repro.core.rng import RngStreams
from repro.core.topology import Topology
from repro.geo.countries import CountryRegistry
from repro.measure.engine import MeasurementEngine
from repro.measure.path import PathPlanner
from repro.measure.targets import RegionTargeter
from repro.platforms.atlas import AtlasPlatform
from repro.platforms.speedchecker import SpeedcheckerPlatform


@dataclass
class World:
    """A fully-built synthetic Internet plus its measurement platforms.

    Use :func:`repro.core.scenario.build_world` to construct one; the
    constructor only wires pre-built components together.
    """

    config: SimulationConfig
    rngs: RngStreams
    countries: CountryRegistry
    topology: Topology
    catalog: RegionCatalog
    providers: Tuple[CloudProvider, ...]
    wans: Dict[str, PrivateWAN]
    speedchecker: SpeedcheckerPlatform
    atlas: AtlasPlatform
    region_addresses: Dict[Tuple[str, str], int]
    planner: PathPlanner = field(init=False)
    engine: MeasurementEngine = field(init=False)
    targeter: RegionTargeter = field(init=False)

    def __post_init__(self) -> None:
        self.targeter = RegionTargeter(self.catalog)
        self.planner = PathPlanner(
            topology=self.topology,
            wans=self.wans,
            region_addresses=self.region_addresses,
            config=self.config,
            countries=self.countries,
            pair_entropy=self.rngs.seed,
        )
        self.engine = MeasurementEngine(
            planner=self.planner,
            config=self.config,
            rng=self.rngs.stream("engine"),
        )

    # -- convenience lookups ------------------------------------------------

    def provider(self, code: str) -> CloudProvider:
        for provider in self.providers:
            if provider.code == code:
                return provider
        raise KeyError(f"unknown provider code {code!r}")

    def region(self, provider_code: str, region_id: str) -> CloudRegion:
        for region in self.catalog.for_provider(provider_code):
            if region.region_id == region_id:
                return region
        raise KeyError(f"unknown region {provider_code}:{region_id}")

    def region_address(self, region: CloudRegion) -> int:
        return self.region_addresses[(region.provider_code, region.region_id)]

    def summary(self) -> str:
        """One-paragraph inventory, useful in example scripts."""
        return (
            f"World(seed={self.config.seed}, scale={self.config.scale}): "
            f"{len(self.countries)} countries, "
            f"{len(self.topology.registry)} ASes, "
            f"{len(self.catalog)} cloud regions over "
            f"{len(self.providers)} providers, "
            f"{len(self.speedchecker)} Speedchecker probes, "
            f"{len(self.atlas)} Atlas probes"
        )
