"""Per-pair reference for :class:`repro.measure.path.PathPlanner`.

This is path preparation as it ran before the planner cached route
metadata per (ISP, country, region) and derived a batch's draws in array
passes: every new pair routes, classifies and stretches its path from
scratch, then draws its hop counts and its hop addresses from its own
``default_rng(SeedSequence(entropy, spawn_key=(digest,)))``, the digest
folded over the full pair name.  It overrides the planner's preparation
only, so its paths go into a :class:`~repro.measure.path.PathTable` the
same way; parity tests assert that the planner's ``path(row)`` views
equal this reference's in every :class:`~repro.measure.path.PlannedPath`
slot.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.cloud.wan import PrivateWAN
from repro.core.config import SimulationConfig
from repro.core.rng import name_digest
from repro.core.topology import Topology
from repro.core.units import one_way_fiber_ms
from repro.geo.continents import Continent
from repro.geo.countries import CountryRegistry
from repro.measure.path import (
    _CLOUD_GEO_SHARE,
    InterconnectKind,
    PathPlanner,
    _Prepared,
    _RouteMeta,
    classify_interconnect,
    effective_stretch,
)
from repro.measure.pathpolicy import PathSelectionPolicy
from repro.net.asn import AS, ASKind
from repro.platforms.probe import Probe


def effective_jitter_sigma(
    interconnect: InterconnectKind,
    distance_km: float,
    wan: PrivateWAN,
    source_continent: Continent,
    config: SimulationConfig,
) -> float:
    """Multiplicative RTT jitter sigma for an interconnect class.

    Public paths accumulate queueing variance with distance; private WANs
    keep it flat.
    """
    path_config = config.path_model
    on_net = config.private_wan_advantage and wan.covers(source_continent)
    if interconnect.is_direct and on_net:
        return path_config.private_jitter_sigma
    if interconnect is InterconnectKind.PRIVATE and on_net:
        return 0.5 * (
            path_config.private_jitter_sigma + path_config.public_jitter_sigma
        )
    return (
        path_config.public_jitter_sigma
        + (distance_km / 1000.0) * path_config.public_jitter_sigma_per_1000km
    )


def _hop_counts(
    systems: Sequence[AS], cloud_share: float, rng: np.random.Generator
) -> List[int]:
    """Routers exposed by each AS on a path, one uniform draw per AS:
    ``lo + floor(u * (hi - lo))`` reproduces ``rng.integers(lo, hi)``."""
    other_share = (1.0 - cloud_share) / max(1, len(systems) - 1)
    draws = rng.random(len(systems)).tolist()
    counts: List[int] = []
    for draw, autonomous_system in zip(draws, systems):
        if autonomous_system.kind is ASKind.CLOUD:
            share = max(0.0, min(1.0, cloud_share))
            base = 2 + int(draw * 3.0)
            extra = int(round(5 * share))
        elif autonomous_system.kind is ASKind.ACCESS:
            share = max(0.0, min(1.0, other_share))
            base = 2 + int(draw * 2.0)
            extra = int(round(3 * share))
        else:
            share = max(0.0, min(1.0, other_share))
            base = 2 + int(draw * 3.0)
            extra = int(round(3 * share))
        counts.append(base + extra)
    return counts


class ReferencePlanner(PathPlanner):
    """Prepares each new pair on its own, from uncached routing.

    Takes the arguments of ``PathPlanner``.  A pair whose scope token is
    not ``None`` routes through ``route_policy``, as the planner does;
    every pair registers a route meta of its own.
    """

    def __init__(
        self,
        topology: Topology,
        wans: Dict[str, PrivateWAN],
        region_addresses: Dict[Tuple[str, str], int],
        config: SimulationConfig,
        countries: CountryRegistry,
        pair_entropy: int,
        route_policy: Optional[PathSelectionPolicy] = None,
    ) -> None:
        super().__init__(
            topology,
            wans,
            region_addresses,
            config,
            countries,
            pair_entropy,
            route_policy=route_policy,
        )
        self._entropy = pair_entropy

    def _prepare_many(
        self,
        pairs: Sequence[Tuple[Probe, CloudRegion]],
        tokens: Sequence[Optional[Hashable]],
    ) -> _Prepared:
        metas: List[_RouteMeta] = []
        distances: List[float] = []
        sigmas: List[float] = []
        fibers: List[float] = []
        counts: List[int] = []
        address_draws: List[np.ndarray] = []
        for (probe, region), token in zip(pairs, tokens):
            meta, distance, sigma, pair_counts, generator = self._prepare_pair(
                probe, region, token
            )
            metas.append(meta)
            distances.append(distance)
            sigmas.append(sigma)
            fibers.append(2.0 * one_way_fiber_ms(distance, meta.stretch))
            counts.extend(pair_counts)
            address_draws.append(generator.random(sum(pair_counts)))
        return _Prepared(
            metas=metas,
            distances=distances,
            sigmas=np.array(sigmas),
            fibers=fibers,
            counts=np.array(counts, dtype=np.int64),
            address_draws=np.concatenate(address_draws),
        )

    def _prepare_pair(
        self, probe: Probe, region: CloudRegion, token: Optional[Hashable]
    ) -> Tuple[_RouteMeta, float, float, List[int], np.random.Generator]:
        """One pair's route meta, distance, jitter sigma and hop counts,
        with the generator that continues its draws."""
        topology = self._topology
        provider_code = region.provider_code
        network = topology.network_code(provider_code)
        if token is None:
            as_path = topology.as_path(
                probe.isp_asn, provider_code, probe.continent
            )
        else:
            as_path = self._route_policy.as_path(
                topology, probe.isp_asn, provider_code, probe.continent
            )
        if as_path is None:
            raise RuntimeError(
                f"no route from AS{probe.isp_asn} to provider {provider_code}"
            )
        interconnect = classify_interconnect(as_path, topology, provider_code)
        wan = self._wans[network]
        distance = probe.location.distance_km(region.location)
        stretch = effective_stretch(
            interconnect, len(as_path) - 2, wan, probe.continent, self._config
        )
        stretch = self._adjust_stretch_for_geography(stretch, probe, region, wan)
        sigma = effective_jitter_sigma(
            interconnect, distance, wan, probe.continent, self._config
        )
        path_config = self._config.path_model
        intermediates = max(0, len(as_path) - 2)
        # Fixed (distance-independent) overheads: the serving ISP's
        # aggregation core, plus detours at every inter-domain handoff.
        fixed_rtt = (
            path_config.isp_core_rtt_ms
            + intermediates * path_config.per_intermediate_as_rtt_ms
        )
        # The meta is this pair's alone, so its sigma is a constant.
        meta = self._add_route_meta(
            region,
            as_path,
            interconnect,
            stretch,
            fixed_rtt,
            sigma_base=sigma,
            sigma_per_1000km=0.0,
        )
        systems = [topology.registry.get(asn) for asn in as_path]
        digest = name_digest(
            f"path.{probe.probe_id}.{provider_code}.{region.region_id}"
        )
        pair_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self._entropy, spawn_key=(digest,))
        )
        counts = _hop_counts(systems, _CLOUD_GEO_SHARE[interconnect], pair_rng)
        return meta, distance, sigma, counts, pair_rng
