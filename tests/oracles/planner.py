"""Per-pair reference for :class:`repro.measure.path.PathPlanner`.

This is path planning as it ran before the planner cached route
metadata per (ISP, country, region), derived a batch's draws in array
passes and kept its paths as rows of a
:class:`~repro.measure.path.PathTable`:

- every pair probes its own cache entry, and every new pair routes,
  classifies and stretches its path from scratch;
- it draws its hop counts and then its hop addresses from its own
  ``default_rng(SeedSequence(entropy, spawn_key=(digest,)))``, the digest
  folded over the full pair name;
- its hops are placed, and its :class:`~repro.measure.path.PlannedPath`
  assembled hop list by hop list, as the planner did before it kept
  its paths in a table (``_place_hops``, ``_hop_columns`` and
  ``_finalize``).

- every pair routes eagerly under the policy's state, through
  :class:`~oracles.routing.EpochRoutes` (a full sweep of the epoch's
  scope graph), and its row is keyed by (pair, AS path) instead of a
  cache token.

It shares none of ``plan_many``, ``_pair_token``, ``_prepare_many``,
``_route_meta``, ``_pair_digest`` and ``_add_paths`` with the planner it
checks, and no route token or per-route shortcut of the epoch views:
only the geography correction of the stretch.  Parity tests assert that
the planner's ``path(row)`` views equal this reference's paths in every
slot, at full float64 bits.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from oracles.routing import EpochRoutes

from repro.cloud.regions import CloudRegion
from repro.cloud.wan import PrivateWAN
from repro.core.config import SimulationConfig
from repro.core.rng import name_digest
from repro.core.topology import Topology
from repro.core.units import one_way_fiber_ms
from repro.geo.continents import Continent
from repro.geo.coords import EARTH_RADIUS_KM
from repro.geo.countries import CountryRegistry
from repro.measure.path import (
    _CLOUD_GEO_SHARE,
    InterconnectKind,
    PathPlanner,
    PlannedPath,
    classify_interconnect,
    effective_stretch,
)
from repro.measure.pathpolicy import PathSelectionPolicy
from repro.net.asn import AS, ASKind
from repro.platforms.probe import Probe

#: Pre-rendered AS-kind labels.
_KIND_LABELS = {kind: str(kind) for kind in ASKind}


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


class PathPrep(NamedTuple):
    """Everything about one pair's path that is decided before hop
    placement, with the address draw of each of its routers."""

    probe: Probe
    region: CloudRegion
    as_path: Tuple[int, ...]
    interconnect: InterconnectKind
    distance: float
    stretch: float
    sigma: float
    systems: Tuple[AS, ...]
    counts: List[int]
    fixed_rtt: float
    total_hops: int
    two_way_fiber: float
    dest_address: int
    address_draws: np.ndarray


def request_pairs(requests: object) -> List[Tuple[Probe, CloudRegion]]:
    """The (probe, region) pair of every row of a request batch: a list
    of pairs, or columns with probe and region tables and code arrays."""
    if isinstance(requests, (list, tuple)):
        return list(requests)
    probes = requests.probes  # type: ignore[attr-defined]
    regions = requests.regions  # type: ignore[attr-defined]
    return [
        (probes[p], regions[r])
        for p, r in zip(
            requests.probe_codes.tolist(),  # type: ignore[attr-defined]
            requests.region_codes.tolist(),  # type: ignore[attr-defined]
        )
    ]


class ReferencePlanner(PathPlanner):
    """Plans each pair on its own, from uncached routing.

    Takes the arguments of ``PathPlanner``.  Every pair takes the route
    ``route_policy`` selects in its current state, from
    :class:`~oracles.routing.EpochRoutes`; a pair planned before under
    the same AS path returns its row.  Rows index the reference's own
    list of :class:`PlannedPath` objects, and :meth:`path` returns them;
    the planner's path table stays empty.
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
        self._routes = EpochRoutes(topology)
        self._paths: List[PlannedPath] = []
        self._rows: Dict[Tuple[Hashable, ...], int] = {}

    def plan_many(self, requests: object) -> List[int]:  # type: ignore[override]
        """One row per pair; each new pair is prepared on its own, and
        the call's new pairs are placed together."""
        rows: List[int] = []
        preps: List[PathPrep] = []
        for probe, region in request_pairs(requests):
            as_path = self._routes.as_path(
                self._route_policy,
                probe.isp_asn,
                region.provider_code,
                probe.continent,
            )
            if as_path is None:
                raise RuntimeError(
                    f"no route from AS{probe.isp_asn} to provider "
                    f"{region.provider_code}"
                )
            key = (
                probe.probe_id,
                region.provider_code,
                region.region_id,
                tuple(as_path),
            )
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = len(self._paths) + len(preps)
                preps.append(self._prepare_pair(probe, region, as_path))
            rows.append(row)
        if preps:
            self._paths.extend(self._assemble(preps))
        return rows

    def path(self, row: int) -> PlannedPath:
        return self._paths[row]

    def _prepare_pair(
        self, probe: Probe, region: CloudRegion, as_path: List[int]
    ) -> PathPrep:
        """One pair's distance, jitter sigma, hop counts and address
        draws along ``as_path``."""
        topology = self._topology
        provider_code = region.provider_code
        network = topology.network_code(provider_code)
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
        systems = tuple(topology.registry.get(asn) for asn in as_path)
        digest = name_digest(
            f"path.{probe.probe_id}.{provider_code}.{region.region_id}"
        )
        pair_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self._entropy, spawn_key=(digest,))
        )
        counts = _hop_counts(systems, _CLOUD_GEO_SHARE[interconnect], pair_rng)
        total = sum(counts)
        return PathPrep(
            probe=probe,
            region=region,
            as_path=tuple(as_path),
            interconnect=interconnect,
            distance=distance,
            stretch=stretch,
            sigma=sigma,
            systems=systems,
            counts=counts,
            fixed_rtt=fixed_rtt,
            total_hops=total,
            two_way_fiber=2.0 * one_way_fiber_ms(distance, stretch),
            dest_address=self._region_addresses[
                (provider_code, region.region_id)
            ],
            address_draws=pair_rng.random(total),
        )

    def _assemble(self, preps: Sequence[PathPrep]) -> List[PlannedPath]:
        """Place every prep's routers in one pass, then build each path."""
        lat_list, lon_list, rtt_list, addr_list, offsets = self._place_hops(preps)
        return [
            self._finalize(
                prep,
                *self._hop_columns(
                    prep, lat_list, lon_list, rtt_list, addr_list, start
                ),
            )
            for prep, start in zip(preps, offsets)
        ]

    def _place_hops(
        self, preps: Sequence[PathPrep]
    ) -> Tuple[List[float], List[float], List[float], List[int], List[int]]:
        """Place every router of every prep in one vectorized pass.

        Returns per-router lat/lon/RTT/address lists plus the per-prep
        start offsets into them.
        """
        path_config = self._config.path_model
        n_hops = np.array([prep.total_hops for prep in preps], dtype=np.int64)
        offsets = np.zeros(len(preps) + 1, dtype=np.int64)
        np.cumsum(n_hops, out=offsets[1:])
        total = int(offsets[-1])
        path_of = np.repeat(np.arange(len(preps)), n_hops)
        ordinals = (
            np.arange(1, total + 1, dtype=np.float64) - offsets[:-1][path_of]
        )
        fractions = ordinals / (n_hops + 1.0)[path_of]

        # Spherical interpolation; the common 1/sin(delta) factor cancels
        # inside atan2, and delta is floored at 1e-9 rad.
        lat1 = np.radians([prep.probe.location.lat for prep in preps])
        lon1 = np.radians([prep.probe.location.lon for prep in preps])
        lat2 = np.radians([prep.region.location.lat for prep in preps])
        lon2 = np.radians([prep.region.location.lon for prep in preps])
        delta = np.maximum(
            np.array([prep.distance for prep in preps]) / EARTH_RADIUS_KM,
            1e-9,
        )
        cos1 = np.cos(lat1)
        cos2 = np.cos(lat2)
        scaled = fractions * delta[path_of]
        s1 = np.sin(delta[path_of] - scaled)
        s2 = np.sin(scaled)
        x = s1 * (cos1 * np.cos(lon1))[path_of] + s2 * (cos2 * np.cos(lon2))[path_of]
        y = s1 * (cos1 * np.sin(lon1))[path_of] + s2 * (cos2 * np.sin(lon2))[path_of]
        z = s1 * np.sin(lat1)[path_of] + s2 * np.sin(lat2)[path_of]
        lats = np.degrees(np.arctan2(z, np.hypot(x, y)))
        lons = np.degrees(np.arctan2(y, x))

        # Noise-free RTT profile: linear in the path fraction plus per-hop
        # processing, shared minimum, and the fixed overheads.
        grows = np.array([prep.two_way_fiber + prep.fixed_rtt for prep in preps])
        base_rtts = (
            grows[path_of] * fractions
            + ordinals * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
        )

        # Each router's address offset maps onto [16, prefix.size - 16)
        # inside its owner's prefix.
        as_counts: List[int] = []
        as_bases: List[int] = []
        as_spans: List[int] = []
        for prep in preps:
            for autonomous_system, count in zip(prep.systems, prep.counts):
                prefix = autonomous_system.prefixes[0]
                as_counts.append(count)
                as_bases.append(prefix.base)
                as_spans.append(prefix.size - 32)
        spans = np.repeat(np.array(as_spans, dtype=np.float64), as_counts)
        bases = np.repeat(np.array(as_bases, dtype=np.int64), as_counts)
        draws = np.concatenate([prep.address_draws for prep in preps])
        addresses = bases + 16 + (draws * spans).astype(np.int64)

        return (
            lats.tolist(),
            lons.tolist(),
            base_rtts.tolist(),
            addresses.tolist(),
            offsets.tolist(),
        )

    def _hop_columns(
        self,
        prep: PathPrep,
        lat_list: List[float],
        lon_list: List[float],
        rtt_list: List[float],
        addr_list: List[int],
        start: int,
    ) -> Tuple[tuple, float]:
        """One prep's hop columns from the placed routers, with its IXP
        port and its endpoint hop; and the endpoint's RTT."""
        path_config = self._config.path_model
        total = prep.total_hops
        end = start + total
        addresses: List[int] = addr_list[start:end]
        lats = lat_list[start:end]
        lons = lon_list[start:end]
        rtts = rtt_list[start:end]
        asns: List[Optional[int]] = []
        kinds: List[str] = []
        for autonomous_system, count in zip(prep.systems, prep.counts):
            asns.extend((autonomous_system.asn,) * count)
            kinds.extend((_KIND_LABELS[autonomous_system.kind],) * count)
        ixp_ids: List[Optional[int]] = [None] * total
        # IXP port hop between the ISP hops and the cloud hops for direct
        # sessions over a public exchange fabric.
        if prep.interconnect is InterconnectKind.DIRECT_IXP:
            peering = self._topology.peering_for(prep.region.provider_code)
            ixp_id = peering.direct_isps.get(prep.as_path[0])
            if ixp_id is not None:
                ixp = self._topology.ixps.get(ixp_id)
                insert_at = prep.counts[0]
                neighbor_rtt = rtts[min(insert_at, total - 1)]
                addresses.insert(insert_at, ixp.lan_address_for(peering.cloud_asn))
                asns.insert(insert_at, None)
                kinds.insert(insert_at, "ixp")
                lats.insert(insert_at, ixp.location.lat)
                lons.insert(insert_at, ixp.location.lon)
                rtts.insert(insert_at, neighbor_rtt)
                ixp_ids.insert(insert_at, ixp_id)

        # Destination endpoint hop (the VM).
        base_path_rtt = (
            prep.two_way_fiber
            + (total + 1) * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
            + prep.fixed_rtt
        )
        location = prep.region.location
        addresses.append(prep.dest_address)
        asns.append(prep.as_path[-1])
        kinds.append(_KIND_LABELS[ASKind.CLOUD])
        lats.append(location.lat)
        lons.append(location.lon)
        rtts.append(base_path_rtt)
        ixp_ids.append(None)
        columns = (
            tuple(addresses),
            tuple(asns),
            tuple(kinds),
            tuple(lats),
            tuple(lons),
            tuple(rtts),
            tuple(ixp_ids),
        )
        return columns, base_path_rtt

    def _finalize(
        self, prep: PathPrep, columns: tuple, base_rtt: float
    ) -> PlannedPath:
        path_config = self._config.path_model
        congestion = (
            path_config.congestion_probability
            if prep.interconnect is InterconnectKind.PUBLIC
            else path_config.congestion_probability * 0.25
        )
        return PlannedPath(
            probe_id=prep.probe.probe_id,
            region_id=prep.region.region_id,
            provider_code=prep.region.provider_code,
            as_path=prep.as_path,
            interconnect=prep.interconnect,
            distance_km=prep.distance,
            stretch=prep.stretch,
            jitter_sigma=prep.sigma,
            congestion_probability=congestion,
            base_path_rtt_ms=base_rtt,
            hop_columns=columns,
            dest_address=prep.dest_address,
        )
