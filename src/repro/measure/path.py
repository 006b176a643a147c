"""Forwarding-path planning.

For a (probe, region) pair the planner resolves the AS-level route from
the probe's serving ISP to the provider's network (scoped policy
routing), classifies the interconnect, expands the route into router-level
hops with addresses and geographic positions, and precomputes the base
(noise-free) RTT profile that the ping and traceroute engines sample
around.
"""

from __future__ import annotations

from enum import Enum
from typing import (
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.cloud.wan import PrivateWAN
from repro.core.config import SimulationConfig
from repro.core.rng import DerivedStreams, name_digest
from repro.core.topology import Topology
from repro.core.units import FIBER_PATH_MS_PER_KM
from repro.geo.continents import Continent
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint
from repro.geo.countries import CountryRegistry
from repro.measure.pathpolicy import BASELINE_TOKEN, PathSelectionPolicy
from repro.measure.requests import pair_requests
from repro.measure.results import Block, first_seen
from repro.net.asn import AS, ASKind
from repro.net.ip import parse_ip
from repro.platforms.probe import Probe

#: Home-router LAN-side address seen as the first traceroute hop of a
#: home probe.
HOME_ROUTER_ADDRESS = parse_ip("192.168.1.1")

#: Columnar hop storage: parallel per-hop tuples of (addresses, ASNs,
#: owner kinds, latitudes, longitudes, base RTTs, IXP ids) -- the same
#: field order as :class:`PlannedHop`.
HopColumns = Tuple[
    Tuple[int, ...],
    Tuple[Optional[int], ...],
    Tuple[str, ...],
    Tuple[float, ...],
    Tuple[float, ...],
    Tuple[float, ...],
    Tuple[Optional[int], ...],
]


class InterconnectKind(str, Enum):
    """Ground-truth interconnect class of a forwarding path.

    Matches the categories of the paper's section 6.1: direct peering
    (optionally over a public IXP fabric), private peering via a single
    carrier, and the public Internet (2+ intermediate ASes).
    """

    DIRECT = "direct"
    DIRECT_IXP = "direct_ixp"
    PRIVATE = "private"
    PUBLIC = "public"

    @property
    def is_direct(self) -> bool:
        return self in (InterconnectKind.DIRECT, InterconnectKind.DIRECT_IXP)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class PlannedHop(NamedTuple):
    """A router (or IXP port) hop with its noise-free RTT from the ISP edge.

    One row of a :class:`PlannedPath`'s hop columns, built on demand by
    :attr:`PlannedPath.hops` for analysis code.
    """

    address: int
    asn: Optional[int]
    owner_kind: str
    lat: float
    lon: float
    base_rtt_ms: float
    ixp_id: Optional[int] = None

    @property
    def position(self) -> GeoPoint:
        """The hop's location as a :class:`GeoPoint` (built on demand)."""
        return GeoPoint(self.lat, self.lon)


class PlannedPath:
    """The planned forwarding path between a probe and a region endpoint.

    A view of one :class:`PathTable` row, built on demand by
    :meth:`PathPlanner.path` (and :meth:`PathPlanner.plan`) for analysis
    code and tests; the planner itself keeps no ``PlannedPath``.  Hops are parallel tuples of atomic values, and
    :attr:`hops` materializes the classic :class:`PlannedHop` rows.
    """

    __slots__ = (
        "probe_id",
        "region_id",
        "provider_code",
        "as_path",
        "interconnect",
        "distance_km",
        "stretch",
        "jitter_sigma",
        "congestion_probability",
        "base_path_rtt_ms",
        "hop_addresses",
        "hop_asns",
        "hop_kinds",
        "hop_lats",
        "hop_lons",
        "hop_base_rtts",
        "hop_ixp_ids",
        "dest_address",
    )

    def __init__(
        self,
        *,
        probe_id: str,
        region_id: str,
        provider_code: str,
        as_path: Tuple[int, ...],
        interconnect: InterconnectKind,
        distance_km: float,
        stretch: float,
        jitter_sigma: float,
        congestion_probability: float,
        base_path_rtt_ms: float,
        dest_address: int,
        hops: Sequence[PlannedHop] = (),
        hop_columns: Optional[HopColumns] = None,
    ) -> None:
        self.probe_id = probe_id
        self.region_id = region_id
        self.provider_code = provider_code
        self.as_path = as_path
        self.interconnect = interconnect
        self.distance_km = distance_km
        self.stretch = stretch
        self.jitter_sigma = jitter_sigma
        self.congestion_probability = congestion_probability
        #: Noise-free RTT from the ISP edge to the endpoint (no last mile).
        self.base_path_rtt_ms = base_path_rtt_ms
        if hop_columns is None:
            hop_columns = tuple(zip(*hops)) if hops else ((),) * 7
        #: Columnar hop storage, ISP edge first, endpoint last.
        (
            self.hop_addresses,
            self.hop_asns,
            self.hop_kinds,
            self.hop_lats,
            self.hop_lons,
            self.hop_base_rtts,
            self.hop_ixp_ids,
        ) = hop_columns
        self.dest_address = dest_address

    @property
    def hops(self) -> Tuple[PlannedHop, ...]:
        """Hops beyond the last mile as :class:`PlannedHop` views."""
        return tuple(
            PlannedHop(*row)
            for row in zip(
                self.hop_addresses,
                self.hop_asns,
                self.hop_kinds,
                self.hop_lats,
                self.hop_lons,
                self.hop_base_rtts,
                self.hop_ixp_ids,
            )
        )

    @property
    def hop_count(self) -> int:
        return len(self.hop_addresses)

    @property
    def intermediate_as_count(self) -> int:
        return max(0, len(self.as_path) - 2)

    def __repr__(self) -> str:
        return (
            f"PlannedPath(probe_id={self.probe_id!r}, "
            f"region_id={self.region_id!r}, hops={self.hop_count})"
        )


#: Sentinel of the hop ASN column where a :class:`PlannedHop` has no ASN
#: (an IXP port).
NO_ASN = -1

#: Sentinel of the hop IXP-id column off an exchange fabric.
NO_IXP = -1

#: Labels of the hop kind column's codes: the AS kinds, then IXP ports.
HOP_KINDS: Tuple[str, ...] = tuple(str(kind) for kind in ASKind) + ("ixp",)
_KIND_CODES = {kind: code for code, kind in enumerate(ASKind)}
_IXP_KIND = len(ASKind)

#: (name, dtype) of the per-path and the per-hop columns of a PathTable.
_PATH_COLUMNS = (
    ("base_rtt", np.float64),
    ("sigma", np.float64),
    ("congestion", np.float64),
    ("dest", np.int64),
    ("hop_start", np.int64),
    ("hop_count", np.int32),
    ("distance", np.float64),
    ("meta", np.int32),
)
_HOP_COLUMNS = (
    ("hop_address", np.int64),
    ("hop_asn", np.int64),
    ("hop_kind", np.uint8),
    ("hop_lat", np.float64),
    ("hop_lon", np.float64),
    ("hop_rtt", np.float64),
    ("hop_ixp", np.int32),
)


class PathTable:
    """Append-only columnar storage of planned paths, one row per path.

    Per path: the noise-free RTT to the endpoint (``base_rtt``), the
    jitter sigma, the congestion probability, the destination address,
    the path's first hop and hop count in the per-hop columns, the
    great-circle distance, and the index of its route meta in the
    planner (``meta``), plus the probe id in :attr:`probe_ids`.  Per
    hop, ISP edge first and endpoint last: address, ASN (:data:`NO_ASN`
    for an IXP port), kind code (into :data:`HOP_KINDS`), latitude,
    longitude, noise-free RTT, and IXP id (:data:`NO_IXP` off an
    exchange).  The batch engines gather these columns by row.

    Appends grow the columns by reallocation, so an append may replace
    every column array: read ``table.<column>`` after the append that
    made the rows and do not hold it across a later one.  Nothing here
    locks; a table, like the planner that owns it, serves one thread.
    """

    base_rtt: np.ndarray
    sigma: np.ndarray
    congestion: np.ndarray
    dest: np.ndarray
    hop_start: np.ndarray
    hop_count: np.ndarray
    distance: np.ndarray
    meta: np.ndarray
    hop_address: np.ndarray
    hop_asn: np.ndarray
    hop_kind: np.ndarray
    hop_lat: np.ndarray
    hop_lon: np.ndarray
    hop_rtt: np.ndarray
    hop_ixp: np.ndarray

    def __init__(self) -> None:
        self.rows = 0
        self.hops = 0
        self.probe_ids: List[str] = []
        for name, dtype in _PATH_COLUMNS + _HOP_COLUMNS:
            setattr(self, name, np.empty(0, dtype))

    def append(
        self,
        probe_ids: Sequence[str],
        paths: Dict[str, np.ndarray],
        hops: Dict[str, np.ndarray],
    ) -> int:
        """Append a batch of paths; returns the first new row.

        ``paths`` holds every per-path column but ``hop_start``, which
        follows from the hop counts; ``hops`` every per-hop column, the
        batch's paths back to back.
        """
        first, hop_first = self.rows, self.hops
        count = len(probe_ids)
        hop_total = len(hops["hop_address"])
        starts = np.cumsum(paths["hop_count"], dtype=np.int64)
        paths = dict(paths, hop_start=hop_first + starts - paths["hop_count"])
        self._grow(_PATH_COLUMNS, first, count)
        self._grow(_HOP_COLUMNS, hop_first, hop_total)
        for name, _ in _PATH_COLUMNS:
            getattr(self, name)[first : first + count] = paths[name]
        for name, _ in _HOP_COLUMNS:
            getattr(self, name)[hop_first : hop_first + hop_total] = hops[name]
        self.probe_ids.extend(probe_ids)
        self.rows += count
        self.hops += hop_total
        return first

    def _grow(
        self, columns: Tuple[Tuple[str, type], ...], used: int, extra: int
    ) -> None:
        """Make room for ``extra`` more entries in a column group."""
        capacity = len(getattr(self, columns[0][0]))
        if used + extra <= capacity:
            return
        capacity = max(used + extra, capacity + capacity // 2, 1024)
        for name, dtype in columns:
            grown = np.empty(capacity, dtype)
            grown[:used] = getattr(self, name)[:used]
            setattr(self, name, grown)


def classify_interconnect(
    as_path: Sequence[int], topology: Topology, provider_code: str
) -> InterconnectKind:
    """Ground-truth interconnect class of an AS path (ISP first)."""
    intermediates = len(as_path) - 2
    if intermediates < 0:
        raise ValueError("AS path must contain at least the ISP and the cloud")
    if intermediates == 0:
        peering = topology.peering_for(provider_code)
        if peering.direct_isps.get(as_path[0]) is not None:
            return InterconnectKind.DIRECT_IXP
        return InterconnectKind.DIRECT
    if intermediates == 1:
        return InterconnectKind.PRIVATE
    return InterconnectKind.PUBLIC


def effective_stretch(
    interconnect: InterconnectKind,
    intermediates: int,
    wan: PrivateWAN,
    source_continent: Continent,
    config: SimulationConfig,
) -> float:
    """Fibre path stretch for an interconnect class.

    Private-WAN engineering only applies when the provider's backbone
    covers the probe's continent and the advantage is enabled (ablation
    knob ``private_wan_advantage``).
    """
    path_config = config.path_model
    on_net = config.private_wan_advantage and wan.covers(source_continent)
    if interconnect.is_direct and on_net:
        return path_config.private_wan_stretch
    if interconnect is InterconnectKind.PRIVATE and on_net:
        return path_config.private_peering_stretch
    extra = max(0, intermediates - 1)
    return path_config.public_stretch + extra * path_config.public_stretch_per_extra_as


#: Geographic share of the end-to-end path carried by the cloud AS, by
#: interconnect class (ingress locality: direct paths enter the WAN near
#: the user; public paths only near the datacenter).
_CLOUD_GEO_SHARE = {
    InterconnectKind.DIRECT: 0.70,
    InterconnectKind.DIRECT_IXP: 0.70,
    InterconnectKind.PRIVATE: 0.50,
    InterconnectKind.PUBLIC: 0.15,
}

class _PathASes(NamedTuple):
    """An AS path with its per-AS planning terms.

    ``count_scales``/``count_bases`` give each AS's hop count as
    ``base + int(u * scale)`` for its uniform draw ``u``
    (:func:`_hop_count_terms`); ``asns``, ``kind_codes``,
    ``prefix_bases`` and ``prefix_spans`` are the per-AS terms of hop
    placement.  The planner interns one per (AS path, interconnect
    class), which many route metas share.
    """

    as_path: Tuple[int, ...]
    systems: Tuple[AS, ...]
    count_scales: Tuple[float, ...]
    count_bases: Tuple[int, ...]
    asns: Tuple[int, ...]
    kind_codes: Tuple[int, ...]
    prefix_bases: Tuple[int, ...]
    prefix_spans: Tuple[int, ...]


class _RouteMeta(NamedTuple):
    """The probe-location-independent prefix of path preparation.

    Every field is a pure function of (serving ISP, probe country and
    continent, region) -- many probes share one entry, so the planner
    computes routing, interconnect classification, stretch geography and
    the fixed RTT overheads once per (ISP, country, region) instead of
    once per (probe, region) pair.  The jitter sigma is
    ``sigma_base + distance / 1000 * sigma_per_1000km``, so the only
    per-probe terms left are the great-circle distance and the RNG
    draws.  ``ixp_hop`` is the (IXP id, LAN address, latitude,
    longitude) of a direct session's exchange port, and ``index`` the
    meta's position in the planner, which a table row refers to.
    """

    index: int
    region: CloudRegion
    ases: _PathASes
    interconnect: InterconnectKind
    stretch: float
    sigma_base: float
    sigma_per_1000km: float
    fixed_rtt: float
    dest_address: int
    ixp_hop: Optional[Tuple[int, int, float, float]]


class _Prepared(NamedTuple):
    """A batch of new pairs, prepared for hop placement.

    The batch's route metas (``metas``, first-seen order) and each
    pair's meta (``meta_of``); per pair its AS count, great-circle
    distance, jitter sigma and two-way fibre RTT; per AS of each path,
    flat in path order, its row among the metas' AS terms (``as_rows``)
    and its router count; and one address uniform per router, flat in
    hop order.
    """

    metas: List[_RouteMeta]
    meta_of: np.ndarray
    n_systems: np.ndarray
    as_rows: np.ndarray
    distances: np.ndarray
    sigmas: np.ndarray
    fibers: np.ndarray
    counts: np.ndarray
    address_draws: np.ndarray


class PathPlanner:
    """Plans forwarding paths into a :class:`PathTable`, one row per pair.

    Planning is pair-deterministic: every (probe, region) pair draws
    from its own stream, the generator derived from ``pair_entropy`` and
    a stable digest of the pair key, so a planned path is a pure
    function of (entropy, probe, region) whatever was planned before it.
    This is what makes checkpointed campaigns resumable -- a resumed
    process replans only the remaining units yet produces bit-identical
    paths -- and experiments independent of which ran first.  A batch
    derives the draws of all its new pairs in array passes
    (:class:`~repro.core.rng.DerivedStreams`).

    A planner serves one thread: its caches are plain dicts and its
    table's appends reallocate the columns a concurrent reader would be
    gathering from.  Concurrent campaigns each plan with their own (see
    :func:`repro.measure.campaign._checkpoint_engine`).
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
        self._topology = topology
        self._wans = wans
        self._region_addresses = region_addresses
        self._config = config
        self._pair_streams = DerivedStreams(pair_entropy)
        self._countries = countries
        #: Pluggable path selection.  ``None`` (and a policy sitting at
        #: its baseline token) plans exactly like the historical planner
        #: and shares the same cache entries; any other policy state
        #: namespaces the caches by the policy's token, so no entry is
        #: ever invalidated -- planned paths are pure functions of
        #: (pair, token).
        self._route_policy = route_policy
        #: Planned paths; ``_cache`` maps a pair key (plus its route
        #: token, if any) to the ``int`` row built for it.
        self.table = PathTable()
        self._cache: Dict[Tuple[Hashable, ...], int] = {}
        self._metas: List[_RouteMeta] = []
        self._path_ases: Dict[Tuple[Tuple[int, ...], InterconnectKind], _PathASes] = {}
        self._meta_cache: Dict[Tuple[Hashable, ...], _RouteMeta] = {}
        #: Rolling-hash caches for the pair digest: ``name_digest`` is a
        #: linear fold, so the digest of ``"path.<probe>.<prov>.<region>"``
        #: combines a per-probe prefix digest with a per-region suffix in
        #: O(1) instead of re-folding the whole name per pair.
        self._probe_digest: Dict[str, int] = {}
        self._region_digest: Dict[Tuple[str, str], Tuple[int, int]] = {}

    # -- path selection policy ---------------------------------------------

    @property
    def route_policy(self) -> Optional[PathSelectionPolicy]:
        return self._route_policy

    def _policy_token(self) -> Optional[Hashable]:
        """The cache namespace of the current policy state.

        ``None`` -- no policy, or a policy at its baseline token -- means
        "plan exactly like the policy-free planner" and uses the bare
        historical cache keys, so static runs and event-free epochs share
        one cache population.
        """
        if self._route_policy is None:
            return None
        token = self._route_policy.cache_token()
        if token is BASELINE_TOKEN or token == BASELINE_TOKEN:
            return None
        return token

    def _pair_token(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> Optional[Hashable]:
        """The cache namespace of one (ISP, provider, source continent)
        route.

        Finer-grained than :meth:`_policy_token`: a policy that knows an
        epoch's events never touched this route (see
        :meth:`~repro.measure.pathpolicy.PathSelectionPolicy.pair_token`)
        returns ``None``, and the pair plans against -- and shares cache
        entries with -- the bare policy-free keys.  Cached entries are
        interchangeable because a ``None`` token certifies the route
        *is* the baseline route.
        """
        policy = self._route_policy
        if policy is None:
            return None
        return policy.pair_token(
            self._topology, isp_asn, provider_code, source_continent
        )

    def _ensure_policy(self) -> PathSelectionPolicy:
        if self._route_policy is None:
            self._route_policy = PathSelectionPolicy()
        return self._route_policy

    def mark_path_down(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> None:
        """Mark one (ISP, provider network, continent) path down.

        Installs the default policy on first use; subsequent plans for
        the affected triple select the policy's alternate (or fail) and
        every other plan is untouched -- caches are namespaced by the
        policy token, never invalidated.
        """
        policy = self._ensure_policy()
        policy.mark_path_down(
            policy.path_key(
                self._topology, isp_asn, provider_code, source_continent
            )
        )

    def mark_path_up(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> None:
        """Restore a path marked down via :meth:`mark_path_down`."""
        policy = self._ensure_policy()
        policy.mark_path_up(
            policy.path_key(
                self._topology, isp_asn, provider_code, source_continent
            )
        )

    def plan(self, probe: Probe, region: CloudRegion) -> PlannedPath:
        """The planned path for a (probe, region) pair, as a view."""
        return self.path(self.plan_many(pair_requests([(probe, region)]))[0])

    def path(self, row: int) -> PlannedPath:
        """A :class:`PlannedPath` view of one table row.

        The view copies the row's values, so later appends never change
        it.
        """
        table = self.table
        meta = self._metas[table.meta[row]]
        start = int(table.hop_start[row])
        end = start + int(table.hop_count[row])
        asns = table.hop_asn[start:end].tolist()
        kinds = table.hop_kind[start:end].tolist()
        ixp_ids = table.hop_ixp[start:end].tolist()
        return PlannedPath(
            probe_id=table.probe_ids[row],
            region_id=meta.region.region_id,
            provider_code=meta.region.provider_code,
            as_path=meta.ases.as_path,
            interconnect=meta.interconnect,
            distance_km=table.distance[row].item(),
            stretch=meta.stretch,
            jitter_sigma=table.sigma[row].item(),
            congestion_probability=table.congestion[row].item(),
            base_path_rtt_ms=table.base_rtt[row].item(),
            dest_address=table.dest[row].item(),
            hop_columns=(
                tuple(table.hop_address[start:end].tolist()),
                tuple(None if asn == NO_ASN else asn for asn in asns),
                tuple(HOP_KINDS[code] for code in kinds),
                tuple(table.hop_lat[start:end].tolist()),
                tuple(table.hop_lon[start:end].tolist()),
                tuple(table.hop_rtt[start:end].tolist()),
                tuple(None if ixp == NO_IXP else ixp for ixp in ixp_ids),
            ),
        )

    def plan_many(self, requests: Block) -> List[int]:
        """Table rows of the planned paths of a request block, one per row.

        One ``np.unique`` pass dedups the block's (probe, region) pairs in
        first-seen order, and the pair cache is probed once per distinct
        pair.  A pair planned before returns the same ``int`` object its
        row was built with, and so do a pair's repeats in the block.
        Every new pair shares one pass of draws (:meth:`_prepare_many`)
        and one vectorized append (:meth:`_add_paths`), so a cold
        campaign day pays array setup once rather than per pair.
        """
        if not len(requests):
            return []
        probes, regions = requests.probes, requests.regions
        firsts, pair_of = first_seen(
            requests.probe_codes.astype(np.int64) * len(regions)
            + requests.region_codes
        )
        pair_probes = requests.probe_codes[firsts].astype(np.int64)
        pair_regions = requests.region_codes[firsts].astype(np.int64)
        probe_ids = [probe.probe_id for probe in probes]
        region_keys = [
            (region.provider_code, region.region_id) for region in regions
        ]
        keys: List[Tuple[Hashable, ...]] = [
            (probe_ids[p],) + region_keys[r]
            for p, r in zip(pair_probes.tolist(), pair_regions.tolist())
        ]
        tokens: List[Optional[Hashable]] = [None] * len(keys)
        if self._route_policy is not None:
            routes = [
                (probes[p].isp_asn, region_keys[r][0], probes[p].continent)
                for p, r in zip(pair_probes.tolist(), pair_regions.tolist())
            ]
            token_of = {
                route: self._pair_token(*route) for route in dict.fromkeys(routes)
            }
            tokens = [token_of[route] for route in routes]
            keys = [
                key if token is None else key + (token,)
                for key, token in zip(keys, tokens)
            ]
        cache = self._cache
        found: List[Optional[int]] = [cache.get(key) for key in keys]
        misses = [j for j, row in enumerate(found) if row is None]
        rows = np.array(found, dtype=object)
        if misses:
            miss = np.array(misses, np.int64)
            prepared = self._prepare_many(
                probes,
                regions,
                pair_probes[miss],
                pair_regions[miss],
                [tokens[j] for j in misses],
            )
            first = self._add_paths(probes, pair_probes[miss], prepared)
            built = list(range(first, first + len(misses)))
            cache.update(zip([keys[j] for j in misses], built))
            rows[miss] = built
        return rows[pair_of].tolist()

    def _route_meta(
        self,
        probe: Probe,
        region: CloudRegion,
        token: Optional[Hashable],
    ) -> _RouteMeta:
        """The shared (ISP, country, region) prefix of preparation, cached.

        ``token`` is the pair's route token (see :meth:`_pair_token`),
        already resolved by the caller so the hot path never re-derives
        it per pair.
        """
        key: Tuple[Hashable, ...] = (
            probe.isp_asn,
            probe.continent,
            probe.country,
            region.provider_code,
            region.region_id,
        )
        if token is not None:
            key = key + (token,)
        meta = self._meta_cache.get(key)
        if meta is not None:
            return meta
        topology = self._topology
        provider_code = region.provider_code
        network = topology.network_code(provider_code)
        if token is None:
            as_path = topology.as_path(
                probe.isp_asn, provider_code, probe.continent
            )
        else:
            assert self._route_policy is not None
            as_path = self._route_policy.as_path(
                topology, probe.isp_asn, provider_code, probe.continent
            )
        if as_path is None:
            raise RuntimeError(
                f"no route from AS{probe.isp_asn} to provider {provider_code}"
            )
        interconnect = classify_interconnect(as_path, topology, provider_code)
        wan = self._wans[network]
        stretch = effective_stretch(
            interconnect, len(as_path) - 2, wan, probe.continent, self._config
        )
        stretch = self._adjust_stretch_for_geography(stretch, probe, region, wan)
        path_config = self._config.path_model
        # Jitter sigma: base + (distance/1000) * slope.  Public paths
        # accumulate queueing variance with distance; private WANs keep
        # it flat (slope 0, and x + 0.0 == x).  This asymmetry reproduces
        # the paper's Fig. 13b (direct peering shrinks latency variation
        # over long Asian paths) without materially moving the EU
        # medians of Fig. 12b.
        on_net = self._config.private_wan_advantage and wan.covers(
            probe.continent
        )
        if interconnect.is_direct and on_net:
            sigma_base, sigma_slope = path_config.private_jitter_sigma, 0.0
        elif interconnect is InterconnectKind.PRIVATE and on_net:
            sigma_base = 0.5 * (
                path_config.private_jitter_sigma
                + path_config.public_jitter_sigma
            )
            sigma_slope = 0.0
        else:
            sigma_base = path_config.public_jitter_sigma
            sigma_slope = path_config.public_jitter_sigma_per_1000km
        intermediates = max(0, len(as_path) - 2)
        meta = self._add_route_meta(
            region,
            as_path,
            interconnect,
            stretch,
            fixed_rtt=(
                path_config.isp_core_rtt_ms
                + intermediates * path_config.per_intermediate_as_rtt_ms
            ),
            sigma_base=sigma_base,
            sigma_per_1000km=sigma_slope,
        )
        self._meta_cache[key] = meta
        return meta

    def _add_route_meta(
        self,
        region: CloudRegion,
        as_path: Sequence[int],
        interconnect: InterconnectKind,
        stretch: float,
        fixed_rtt: float,
        sigma_base: float,
        sigma_per_1000km: float,
    ) -> _RouteMeta:
        """Register a route meta from its routing decisions; derives the
        per-AS terms, the destination and the IXP port."""
        topology = self._topology
        ases_key = (tuple(as_path), interconnect)
        ases = self._path_ases.get(ases_key)
        if ases is None:
            systems = tuple(topology.registry.get(asn) for asn in as_path)
            ases = _PathASes(
                ases_key[0],
                systems,
                *_hop_count_terms(systems, _CLOUD_GEO_SHARE[interconnect]),
                asns=tuple(system.asn for system in systems),
                kind_codes=tuple(_KIND_CODES[system.kind] for system in systems),
                prefix_bases=tuple(system.prefixes[0].base for system in systems),
                prefix_spans=tuple(
                    system.prefixes[0].size - 32 for system in systems
                ),
            )
            self._path_ases[ases_key] = ases
        # IXP port hop between the ISP hops and the cloud hops for direct
        # sessions over a public exchange fabric.
        ixp_hop = None
        if interconnect is InterconnectKind.DIRECT_IXP:
            peering = topology.peering_for(region.provider_code)
            ixp_id = peering.direct_isps.get(as_path[0])
            if ixp_id is not None:
                ixp = topology.ixps.get(ixp_id)
                ixp_hop = (
                    ixp_id,
                    ixp.lan_address_for(peering.cloud_asn),
                    ixp.location.lat,
                    ixp.location.lon,
                )
        meta = _RouteMeta(
            index=len(self._metas),
            region=region,
            ases=ases,
            interconnect=interconnect,
            stretch=stretch,
            sigma_base=sigma_base,
            sigma_per_1000km=sigma_per_1000km,
            fixed_rtt=fixed_rtt,
            dest_address=self._region_addresses[
                (region.provider_code, region.region_id)
            ],
            ixp_hop=ixp_hop,
        )
        self._metas.append(meta)
        return meta

    def _prepare_many(
        self,
        probes: Sequence[Probe],
        regions: Sequence[CloudRegion],
        pair_probes: np.ndarray,
        pair_regions: np.ndarray,
        tokens: Sequence[Optional[Hashable]],
    ) -> _Prepared:
        """The per-pair prefix of path building for a batch of new pairs,
        plus the address draw of every hop, in hop order.

        ``pair_probes``/``pair_regions`` index ``probes``/``regions``;
        ``tokens`` are the pairs' route tokens (``None`` for baseline
        planning).  Routing, classification, stretch geography, fixed
        overheads and the hop-count terms come from the
        :meth:`_route_meta` cache, resolved once per distinct (ISP,
        continent, country, region, token) key in first-seen order; the
        pairs gather their meta's terms from arrays.  Only the
        great-circle distance stays a per-pair call.  Each pair draws one
        uniform per AS for its hop counts, then one per hop for its
        addresses, as the first draws of its own stream; every pair's
        draws come from two array passes.
        """
        groups: Dict[Tuple[Hashable, ...], int] = {}
        probe_groups = np.array(
            [
                groups.setdefault(
                    (probe.isp_asn, probe.continent, probe.country), len(groups)
                )
                for probe in probes
            ],
            np.int64,
        )
        meta_keys = probe_groups[pair_probes] * len(regions) + pair_regions
        if self._route_policy is not None:
            token_codes: Dict[Optional[Hashable], int] = {}
            token_of = [
                token_codes.setdefault(token, len(token_codes)) for token in tokens
            ]
            meta_keys = meta_keys * len(token_codes) + np.array(token_of, np.int64)
        meta_firsts, meta_of = first_seen(meta_keys)
        metas = [
            self._route_meta(probes[p], regions[r], tokens[j])
            for j, p, r in zip(
                meta_firsts.tolist(),
                pair_probes[meta_firsts].tolist(),
                pair_regions[meta_firsts].tolist(),
            )
        ]
        meta_systems = np.array([len(meta.ases.systems) for meta in metas])
        n_systems = meta_systems[meta_of]
        as_rows = _ragged_rows(
            (np.cumsum(meta_systems) - meta_systems)[meta_of], n_systems
        )

        lanes = self._pair_streams.lanes(
            self._pair_digests(probes, regions, pair_probes, pair_regions)
        )
        count_draws = lanes.random(np.zeros_like(n_systems), n_systems)
        scales = _as_terms(metas, "count_scales", np.float64)[as_rows]
        bases = _as_terms(metas, "count_bases", np.int64)[as_rows]
        counts = bases + (count_draws * scales).astype(np.int64)
        total_hops = np.add.reduceat(counts, np.cumsum(n_systems) - n_systems)
        address_draws = lanes.random(n_systems, total_hops)

        probe_points = [probe.location for probe in probes]
        region_points = [region.location for region in regions]
        distances = np.array(
            [
                probe_points[p].distance_km(region_points[r])
                for p, r in zip(pair_probes.tolist(), pair_regions.tolist())
            ]
        )
        sigma_base = np.array([meta.sigma_base for meta in metas])[meta_of]
        sigma_slope = np.array([meta.sigma_per_1000km for meta in metas])[meta_of]
        sigmas = sigma_base + (distances / 1000.0) * sigma_slope
        # Two-way one_way_fiber_ms: the same products in the same order.
        stretches = np.array([meta.stretch for meta in metas])[meta_of]
        fibers = 2.0 * (distances * stretches * FIBER_PATH_MS_PER_KM)
        return _Prepared(
            metas,
            meta_of,
            n_systems,
            as_rows,
            distances,
            sigmas,
            fibers,
            counts,
            address_draws,
        )

    def _pair_digests(
        self,
        probes: Sequence[Probe],
        regions: Sequence[CloudRegion],
        pair_probes: np.ndarray,
        pair_regions: np.ndarray,
    ) -> np.ndarray:
        """The spawn key of every pair's planning stream.

        Equals ``name_digest(f"path.{probe_id}.{provider}.{region}")``.
        The digest is a linear fold, so a pair's digest is its probe's
        prefix fold times the region suffix's power plus the suffix
        fold, modulo 2**63: computed in wrapping ``uint64`` arithmetic
        and masked to 63 bits, which is exact because 2**63 divides
        2**64.  Prefix and suffix folds are cached per probe and region.
        """
        prefixes = np.zeros(len(probes), np.uint64)
        for code in np.unique(pair_probes).tolist():
            probe_id = probes[code].probe_id
            prefix = self._probe_digest.get(probe_id)
            if prefix is None:
                prefix = self._probe_digest[probe_id] = name_digest(
                    f"path.{probe_id}."
                )
            prefixes[code] = prefix
        suffixes = np.zeros((len(regions), 2), np.uint64)
        for code in np.unique(pair_regions).tolist():
            region = regions[code]
            region_key = (region.provider_code, region.region_id)
            suffix = self._region_digest.get(region_key)
            if suffix is None:
                tail = f"{region.provider_code}.{region.region_id}"
                suffix = (name_digest(tail), pow(1_000_003, len(tail), 2**63))
                self._region_digest[region_key] = suffix
            suffixes[code] = suffix
        return (
            prefixes[pair_probes] * suffixes[pair_regions, 1]
            + suffixes[pair_regions, 0]
        ) & np.uint64(2**63 - 1)

    def _add_paths(
        self,
        probes: Sequence[Probe],
        pair_probes: np.ndarray,
        prepared: _Prepared,
    ) -> int:
        """Place every hop of a prepared batch and append the batch's
        paths to the table; returns the first new row.

        Fractions along each great circle, spherical interpolation, the
        linear noise-free RTT profile, and router addresses are plain
        array expressions over the batch's concatenated routers, with
        per-meta and per-AS terms gathered from arrays; then each path's
        IXP port and destination hop go in at their offsets.
        """
        path_config = self._config.path_model
        metas = prepared.metas
        meta_of = prepared.meta_of
        counts = prepared.counts
        n_paths = len(meta_of)
        first_as = np.cumsum(prepared.n_systems) - prepared.n_systems
        routers = np.add.reduceat(counts, first_as)
        router_offsets = np.zeros(n_paths + 1, dtype=np.int64)
        np.cumsum(routers, out=router_offsets[1:])
        total = int(router_offsets[-1])
        path_of = np.repeat(np.arange(n_paths), routers)
        local = np.arange(total) - router_offsets[:-1][path_of]
        ordinals = local + 1.0
        fractions = ordinals / (routers + 1.0)[path_of]

        def per_meta(values: List[object], dtype: type = np.float64) -> np.ndarray:
            return np.array(values, dtype=dtype)[meta_of]

        # Spherical interpolation across all paths at once.  The common
        # 1/sin(delta) slerp factor cancels inside atan2 and is skipped;
        # delta is floored at 1e-9 rad so coincident endpoints degrade to
        # the endpoint itself instead of 0/0.
        region_lats = per_meta([meta.region.location.lat for meta in metas])
        region_lons = per_meta([meta.region.location.lon for meta in metas])
        probe_lats = np.array([probe.location.lat for probe in probes])
        probe_lons = np.array([probe.location.lon for probe in probes])
        lat1 = np.radians(probe_lats[pair_probes])
        lon1 = np.radians(probe_lons[pair_probes])
        lat2 = np.radians(region_lats)
        lon2 = np.radians(region_lons)
        delta = np.maximum(prepared.distances / EARTH_RADIUS_KM, 1e-9)
        cos1 = np.cos(lat1)
        cos2 = np.cos(lat2)
        scaled = fractions * delta[path_of]
        s1 = np.sin(delta[path_of] - scaled)
        s2 = np.sin(scaled)
        x = s1 * (cos1 * np.cos(lon1))[path_of] + s2 * (cos2 * np.cos(lon2))[path_of]
        y = s1 * (cos1 * np.sin(lon1))[path_of] + s2 * (cos2 * np.sin(lon2))[path_of]
        z = s1 * np.sin(lat1)[path_of] + s2 * np.sin(lat2)[path_of]

        # Noise-free RTT profile: linear in the path fraction plus per-hop
        # processing, shared minimum, and the fixed overheads.
        fibers = prepared.fibers
        fixed = per_meta([meta.fixed_rtt for meta in metas])
        grows = fibers + fixed
        router_rtts = (
            grows[path_of] * fractions
            + ordinals * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
        )
        # The endpoint's RTT sums its terms left to right.
        base_rtts = (
            fibers
            + (routers + 1) * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
            + fixed
        )

        # One uniform draw covers every router's address offset; each
        # offset maps onto [16, prefix.size - 16) inside its owner's
        # prefix, matching the old per-AS integer draws in distribution.
        def per_as(field: str, dtype: type) -> np.ndarray:
            terms = _as_terms(metas, field, dtype)
            return np.repeat(terms[prepared.as_rows], counts)

        spans = per_as("prefix_spans", np.float64)
        addresses = (
            per_as("prefix_bases", np.int64)
            + 16
            + (prepared.address_draws * spans).astype(np.int64)
        )

        # Where every hop goes: routers in order, shifted past the IXP
        # port that follows the ISP's routers; the endpoint last.
        ixp_hops = [meta.ixp_hop or (NO_IXP, 0, 0.0, 0.0) for meta in metas]
        has_ixp = per_meta([meta.ixp_hop is not None for meta in metas], bool)
        hop_counts = routers + has_ixp + 1
        hop_offsets = np.zeros(n_paths + 1, dtype=np.int64)
        np.cumsum(hop_counts, out=hop_offsets[1:])
        isp_routers = counts[first_as]
        at = (
            hop_offsets[:-1][path_of]
            + local
            + (has_ixp[path_of] & (local >= isp_routers[path_of]))
        )
        ixp_paths = np.flatnonzero(has_ixp)
        ixp_at = hop_offsets[ixp_paths] + isp_routers[ixp_paths]
        # An IXP port reports the RTT of the router after it.
        ixp_neighbor = router_offsets[ixp_paths] + np.minimum(
            isp_routers[ixp_paths], routers[ixp_paths] - 1
        )
        ixp_ids, ixp_addresses, ixp_lats, ixp_lons = (
            per_meta([hop[field] for hop in ixp_hops], dtype)[ixp_paths]
            for field, dtype in enumerate(
                (np.int64, np.int64, np.float64, np.float64)
            )
        )
        end_at = hop_offsets[1:] - 1
        dests = per_meta([meta.dest_address for meta in metas], np.int64)
        cloud_asns = per_meta([meta.ases.as_path[-1] for meta in metas], np.int64)
        router_lats = np.degrees(np.arctan2(z, np.hypot(x, y)))
        router_lons = np.degrees(np.arctan2(y, x))
        # Each hop column's (router, IXP port, endpoint) values.
        parts = {
            "hop_address": (addresses, ixp_addresses, dests),
            "hop_asn": (per_as("asns", np.int64), NO_ASN, cloud_asns),
            "hop_kind": (
                per_as("kind_codes", np.uint8),
                _IXP_KIND,
                _KIND_CODES[ASKind.CLOUD],
            ),
            "hop_lat": (router_lats, ixp_lats, region_lats),
            "hop_lon": (router_lons, ixp_lons, region_lons),
            "hop_rtt": (router_rtts, router_rtts[ixp_neighbor], base_rtts),
            "hop_ixp": (NO_IXP, ixp_ids, NO_IXP),
        }
        hops: Dict[str, np.ndarray] = {}
        for name, dtype in _HOP_COLUMNS:
            router, ixp, end = parts[name]
            column = np.empty(int(hop_offsets[-1]), dtype)
            column[at] = router
            column[ixp_at] = ixp
            column[end_at] = end
            hops[name] = column

        public = per_meta(
            [meta.interconnect is InterconnectKind.PUBLIC for meta in metas], bool
        )
        congestion = path_config.congestion_probability
        return self.table.append(
            np.array([probe.probe_id for probe in probes], dtype=object)[
                pair_probes
            ].tolist(),
            {
                "base_rtt": base_rtts,
                "sigma": prepared.sigmas,
                "congestion": np.where(public, congestion, congestion * 0.25),
                "dest": dests,
                "hop_count": hop_counts,
                "distance": prepared.distances,
                "meta": per_meta([meta.index for meta in metas], np.int64),
            },
            hops,
        )

    def _adjust_stretch_for_geography(
        self, stretch: float, probe: Probe, region: CloudRegion, wan: PrivateWAN
    ) -> float:
        """Geography corrections to the interconnect-class stretch.

        Submarine-constrained routes (island endpoint or cross-continent)
        cap the private-WAN advantage: everyone rides the same cables.
        Cross-country paths inside under-provisioned continents pick up a
        terrestrial backhaul penalty (intra-African detours via Europe).
        """
        path_config = self._config.path_model
        src = self._countries.find(probe.country)
        dst = self._countries.find(region.country)
        src_island = src.island if src else False
        dst_island = dst.island if dst else False
        submarine = (
            src_island
            or dst_island
            or probe.continent is not region.continent
        )
        if submarine:
            stretch = max(stretch, path_config.submarine_private_stretch_floor)
        if (
            probe.continent is region.continent
            and probe.country != region.country
        ):
            stretch *= path_config.continent_backhaul_stretch.get(
                probe.continent.value, 1.0
            )
        return stretch


def _hop_count_terms(
    systems: Sequence[AS], cloud_share: float
) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """Per-AS ``(scale, base)`` of the routers each AS on a path exposes:
    ``base + int(u * scale)`` for the AS's uniform draw ``u``.

    An AS exposes more routers when it carries more of the geographic
    distance: the cloud AS carries ``cloud_share`` and the others split
    the remainder evenly.  Cloud WANs that ingress near the user expose
    their internal backbone routers along most of the path, which is
    what drives the >60% pervasiveness of hypergiants in the paper's
    Fig. 11.  ``int(u * scale)`` is distributed like an integer draw
    from ``[0, scale)``.
    """
    other_share = (1.0 - cloud_share) / max(1, len(systems) - 1)
    cloud_base = 2 + int(round(5 * max(0.0, min(1.0, cloud_share))))
    other_base = 2 + int(round(3 * max(0.0, min(1.0, other_share))))
    scales = tuple(
        2.0 if system.kind is ASKind.ACCESS else 3.0 for system in systems
    )
    bases = tuple(
        cloud_base if system.kind is ASKind.CLOUD else other_base
        for system in systems
    )
    return scales, bases


def _as_terms(metas: Sequence[_RouteMeta], field: str, dtype: type) -> np.ndarray:
    """One per-AS term of every meta's AS path, flat in meta order."""
    return np.array(
        [value for meta in metas for value in getattr(meta.ases, field)], dtype=dtype
    )


def _ragged_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i], ..., starts[i] + lengths[i] - 1``, for
    every ``i`` in turn."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(
        int(ends[-1]) if len(ends) else 0
    )
