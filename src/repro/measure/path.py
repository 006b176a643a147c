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
from repro.core.units import one_way_fiber_ms
from repro.geo.continents import Continent
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint
from repro.geo.countries import CountryRegistry
from repro.measure.pathpolicy import BASELINE_TOKEN, PathSelectionPolicy
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

    A named tuple of atomic fields rather than a dataclass: the planner
    allocates one per router of every planned path, tuple construction
    is several times cheaper, and tuples whose items are all atomic are
    untracked by the garbage collector -- keeping the (large, permanent)
    planner cache out of every gen-2 collection.
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

    Hops are stored columnar -- parallel tuples of atomic values rather
    than one object per hop.  Exact tuples of atomics are untracked by
    the garbage collector, which keeps the planner's (large, permanent)
    path cache out of every gen-2 collection; the hot batch engines read
    the columns directly and :attr:`hops` materializes the classic
    :class:`PlannedHop` view on demand for analysis code.
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
        self._set_columns(hop_columns)
        self.dest_address = dest_address

    def _set_columns(self, columns: HopColumns) -> None:
        #: Columnar hop storage, ISP edge first, endpoint last.
        self.hop_addresses = columns[0]
        self.hop_asns = columns[1]
        self.hop_kinds = columns[2]
        self.hop_lats = columns[3]
        self.hop_lons = columns[4]
        self.hop_base_rtts = columns[5]
        self.hop_ixp_ids = columns[6]

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

#: Pre-rendered AS-kind labels so hop assembly never re-stringifies enums.
_KIND_LABELS = {kind: str(kind) for kind in ASKind}


class _PathPrep(NamedTuple):
    """Everything about a path that is decided before hop placement.

    The scalar prefix of path building (routing, interconnect class,
    stretch/jitter) stays per-pair Python; the hop-count draws and hop
    placement itself (fractions, spherical interpolation, base RTTs,
    addresses) run as array passes over every prep in a batch.
    """

    probe: Probe
    region: CloudRegion
    as_path: Sequence[int]
    interconnect: InterconnectKind
    distance: float
    stretch: float
    sigma: float
    systems: Sequence[AS]
    counts: List[int]
    fixed_rtt: float
    total_hops: int
    two_way_fiber: float
    dest_address: int


class _RouteMeta(NamedTuple):
    """The probe-location-independent prefix of path preparation.

    Every field is a pure function of (serving ISP, probe country and
    continent, region) -- many probes share one entry, so the planner
    computes routing, interconnect classification, stretch geography and
    the fixed RTT overheads once per (ISP, country, region) instead of
    once per (probe, region) pair.  The jitter sigma is
    ``sigma_base + distance / 1000 * sigma_per_1000km``, so the only
    per-probe terms left are the great-circle distance and the RNG
    draws.  ``count_scales``/``count_bases`` give each AS's hop count as
    ``base + int(u * scale)`` for its uniform draw ``u``
    (:func:`_hop_count_terms`).
    """

    as_path: Tuple[int, ...]
    interconnect: InterconnectKind
    stretch: float
    sigma_base: float
    sigma_per_1000km: float
    systems: Tuple[AS, ...]
    count_scales: Tuple[float, ...]
    count_bases: Tuple[int, ...]
    fixed_rtt: float
    dest_address: int


class PathPlanner:
    """Builds and caches :class:`PlannedPath` objects.

    Planning is pair-deterministic: every (probe, region) pair draws
    from its own stream, the generator derived from ``pair_entropy`` and
    a stable digest of the pair key, so a planned path is a pure
    function of (entropy, probe, region) whatever was planned before it.
    This is what makes checkpointed campaigns resumable -- a resumed
    process replans only the remaining units yet produces bit-identical
    paths -- and experiments independent of which ran first.  A batch
    derives the draws of all its new pairs in array passes
    (:class:`~repro.core.rng.DerivedStreams`).
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
        self._cache: Dict[Tuple[Hashable, ...], PlannedPath] = {}
        self._meta_cache: Dict[Tuple[Hashable, ...], _RouteMeta] = {}
        #: Per-scope token memo for the *current* policy state: pair
        #: tokens are pure given (policy token, scope), so the memo is
        #: dropped whenever the policy's cache token changes (epoch view
        #: installed, path marked down/up) and hit on every plan
        #: otherwise.
        self._pair_token_state: Optional[Hashable] = None
        self._pair_token_cache: Dict[
            Tuple[str, Continent], Optional[Hashable]
        ] = {}
        #: Rolling-hash caches for the pair digest: ``name_digest`` is a
        #: linear fold, so the digest of ``"path.<probe>.<prov>.<region>"``
        #: combines a per-probe prefix digest with a per-region suffix in
        #: O(1) instead of re-folding the whole name per pair.
        self._probe_digest: Dict[str, int] = {}
        self._region_digest: Dict[Tuple[str, str], Tuple[int, int]] = {}

    def _pair_digest(self, probe: Probe, region: CloudRegion) -> int:
        """The spawn key of one pair's planning stream.

        Equals ``name_digest(f"path.{probe_id}.{provider}.{region}")``,
        assembled from cached prefix/suffix folds.
        """
        prefix = self._probe_digest.get(probe.probe_id)
        if prefix is None:
            prefix = name_digest(f"path.{probe.probe_id}.")
            self._probe_digest[probe.probe_id] = prefix
        region_key = (region.provider_code, region.region_id)
        suffix = self._region_digest.get(region_key)
        if suffix is None:
            tail = f"{region.provider_code}.{region.region_id}"
            suffix = (name_digest(tail), pow(1_000_003, len(tail), 2**63))
            self._region_digest[region_key] = suffix
        return (prefix * suffix[1] + suffix[0]) % 2**63

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
        self, provider_code: str, source_continent: Continent
    ) -> Optional[Hashable]:
        """The cache namespace of one (provider, source continent) scope.

        Finer-grained than :meth:`_policy_token`: a policy that knows an
        epoch's events never touched this scope's routes (see
        :meth:`~repro.measure.pathpolicy.PathSelectionPolicy.pair_token`)
        returns ``None``, and the pair plans against -- and shares cache
        entries with -- the bare policy-free keys.  Cached entries are
        interchangeable because a ``None`` token certifies the scope's
        routing table *is* the baseline table.
        """
        policy = self._route_policy
        if policy is None:
            return None
        state = policy.cache_token()
        if state is not self._pair_token_state:
            if state != self._pair_token_state:
                self._pair_token_cache = {}
            self._pair_token_state = state
        scope = (provider_code, source_continent)
        try:
            return self._pair_token_cache[scope]
        except KeyError:
            token = policy.pair_token(
                self._topology, provider_code, source_continent
            )
            self._pair_token_cache[scope] = token
            return token

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
        """The planned path for a (probe, region) pair, cached."""
        return self.plan_many([(probe, region)])[0]

    def plan_many(
        self, pairs: Sequence[Tuple[Probe, CloudRegion]]
    ) -> List[PlannedPath]:
        """Planned paths for many (probe, region) pairs at once.

        Cache hits return directly; every miss in the batch shares one
        pass of draws (:meth:`_prepare_many`) and one vectorized
        hop-placement pass (fractions, spherical interpolation, base
        RTTs, and hop addresses are single array expressions across all
        new paths), so a cold campaign day pays array setup once rather
        than per pair.
        """
        results: List[Optional[PlannedPath]] = [None] * len(pairs)
        keys: List[Optional[tuple]] = [None] * len(pairs)
        tokens: List[Optional[Hashable]] = [None] * len(pairs)
        misses: List[int] = []
        cache = self._cache
        policy = self._route_policy
        scope_tokens: Dict[Tuple[str, Continent], Optional[Hashable]] = {}
        # Cache probing is per-pair by design: dict hits cost ~100ns.
        for i, (probe, region) in enumerate(pairs):  # repro-lint: disable=PERF001
            key: Tuple[Hashable, ...] = (
                probe.probe_id,
                region.provider_code,
                region.region_id,
            )
            if policy is not None:
                scope = (region.provider_code, probe.continent)
                try:
                    token = scope_tokens[scope]
                except KeyError:
                    token = self._pair_token(*scope)
                    scope_tokens[scope] = token
                if token is not None:
                    key = key + (token,)
                    tokens[i] = token
            cached = cache.get(key)
            if cached is not None:
                results[i] = cached
            else:
                keys[i] = key
                misses.append(i)
        if not misses:
            return results
        # Dedup repeats inside the batch, preserving first-seen order so
        # the RNG draw sequence depends only on the request sequence.
        first_seen: dict = {}
        unique: List[int] = []
        for i in misses:
            if keys[i] not in first_seen:
                first_seen[keys[i]] = len(unique)
                unique.append(i)
        preps, address_draws = self._prepare_many(
            [pairs[i] for i in unique], [tokens[i] for i in unique]
        )
        placed = self._place_hops(preps, address_draws)
        lat_list, lon_list, rtt_list, addr_list, offsets = placed
        built: List[PlannedPath] = []
        # Final assembly slices the vectorized hop columns back into
        # ragged per-path tuples; the arithmetic already ran above.
        for j, prep in enumerate(preps):  # repro-lint: disable=PERF001
            columns, base_rtt = self._hop_columns(
                prep, lat_list, lon_list, rtt_list, addr_list, offsets[j]
            )
            path = self._finalize(prep, columns, base_rtt)
            cache[keys[unique[j]]] = path
            built.append(path)
        for i in misses:
            results[i] = built[first_seen[keys[i]]]
        return results

    def _route_meta(
        self,
        probe: Probe,
        region: CloudRegion,
        token: Optional[Hashable],
    ) -> _RouteMeta:
        """The shared (ISP, country, region) prefix of preparation, cached.

        ``token`` is the pair's scope token (see :meth:`_pair_token`),
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
        registry = topology.registry
        systems = tuple(registry.get(asn) for asn in as_path)
        count_scales, count_bases = _hop_count_terms(
            systems, _CLOUD_GEO_SHARE[interconnect]
        )
        meta = _RouteMeta(
            as_path=tuple(as_path),
            interconnect=interconnect,
            stretch=stretch,
            sigma_base=sigma_base,
            sigma_per_1000km=sigma_slope,
            systems=systems,
            count_scales=count_scales,
            count_bases=count_bases,
            fixed_rtt=(
                path_config.isp_core_rtt_ms
                + intermediates * path_config.per_intermediate_as_rtt_ms
            ),
            dest_address=self._region_addresses[
                (provider_code, region.region_id)
            ],
        )
        self._meta_cache[key] = meta
        return meta

    def _prepare_many(
        self,
        pairs: Sequence[Tuple[Probe, CloudRegion]],
        tokens: Sequence[Optional[Hashable]],
    ) -> Tuple[List[_PathPrep], np.ndarray]:
        """The per-pair prefix of path building for a batch of new pairs,
        plus the address draw of every hop, in hop order.

        Routing, classification, stretch geography, fixed overheads and
        the hop-count terms come from the :meth:`_route_meta` cache; only
        the great-circle distance and the distance-dependent jitter sigma
        remain per pair.  ``tokens`` are the caller-resolved scope tokens
        (``None`` for baseline planning).  Each pair draws one uniform per
        AS for its hop counts, then one per hop for its addresses, as the
        first draws of its own stream; every pair's draws come from two
        array passes.  The per-pair reference in
        ``tests/oracles/planner.py`` produces bit-identical preps and draws.
        """
        metas = [
            self._route_meta(probe, region, token)
            for (probe, region), token in zip(pairs, tokens)
        ]
        n_systems = np.array([len(meta.systems) for meta in metas])
        digests = [self._pair_digest(probe, region) for probe, region in pairs]
        lanes = self._pair_streams.lanes(np.array(digests, dtype=np.uint64))
        count_draws = lanes.random(np.zeros_like(n_systems), n_systems)
        scales = np.array([scale for meta in metas for scale in meta.count_scales])
        bases = np.array([base for meta in metas for base in meta.count_bases])
        counts = bases + (count_draws * scales).astype(np.int64)
        total_hops = np.add.reduceat(counts, np.cumsum(n_systems) - n_systems)
        address_draws = lanes.random(n_systems, total_hops)
        count_list = counts.tolist()
        preps: List[_PathPrep] = []
        start = 0
        # Per-pair record assembly; every draw above is one array pass.
        for (probe, region), meta, total in zip(  # repro-lint: disable=PERF001
            pairs, metas, total_hops.tolist()
        ):
            end = start + len(meta.systems)
            distance = probe.location.distance_km(region.location)
            preps.append(
                _PathPrep(
                    probe=probe,
                    region=region,
                    as_path=meta.as_path,
                    interconnect=meta.interconnect,
                    distance=distance,
                    stretch=meta.stretch,
                    sigma=(
                        meta.sigma_base
                        + (distance / 1000.0) * meta.sigma_per_1000km
                    ),
                    systems=meta.systems,
                    counts=count_list[start:end],
                    fixed_rtt=meta.fixed_rtt,
                    total_hops=total,
                    two_way_fiber=2.0 * one_way_fiber_ms(distance, meta.stretch),
                    dest_address=meta.dest_address,
                )
            )
            start = end
        return preps, address_draws

    def _place_hops(
        self, preps: Sequence[_PathPrep], draws: np.ndarray
    ) -> Tuple[
        List[float], List[float], List[float], List[int], List[int]
    ]:
        """Place every hop of every prep in one vectorized pass.

        Fractions along each great circle, spherical interpolation, the
        linear noise-free RTT profile, and hop addresses are all plain
        array expressions over the concatenated hops of the whole batch;
        ``draws`` holds one uniform per hop for its address.  Returns
        per-hop lat/lon/RTT/address lists plus the per-prep start offsets
        into them.
        """
        path_config = self._config.path_model
        n_hops = np.array([prep.total_hops for prep in preps], dtype=np.int64)
        offsets = np.zeros(len(preps) + 1, dtype=np.int64)
        np.cumsum(n_hops, out=offsets[1:])
        total = int(offsets[-1])
        path_of = np.repeat(np.arange(len(preps)), n_hops)
        ordinals = (
            np.arange(1, total + 1, dtype=np.float64)
            - offsets[:-1][path_of]
        )
        fractions = ordinals / (n_hops + 1.0)[path_of]

        # Spherical interpolation across all paths at once.  The common
        # 1/sin(delta) slerp factor cancels inside atan2 and is skipped;
        # delta is floored at 1e-9 rad so coincident endpoints degrade to
        # the endpoint itself instead of 0/0.
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
        grows = np.array(
            [prep.two_way_fiber + prep.fixed_rtt for prep in preps]
        )
        base_rtts = (
            grows[path_of] * fractions
            + ordinals * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
        )

        # One uniform draw covers every hop's address offset; each hop's
        # offset maps onto [16, prefix.size - 16) inside its owner's
        # prefix, matching the old per-AS integer draws in distribution.
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
        prep: _PathPrep,
        lat_list: List[float],
        lon_list: List[float],
        rtt_list: List[float],
        addr_list: List[int],
        start: int,
    ) -> Tuple[HopColumns, float]:
        """Build one prep's columnar hop storage from the placed arrays."""
        path_config = self._config.path_model
        total = prep.total_hops
        end = start + total
        addresses = addr_list[start:end]
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
                addresses.insert(
                    insert_at, ixp.lan_address_for(peering.cloud_asn)
                )
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
        self, prep: _PathPrep, columns: tuple, base_rtt: float
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
            as_path=tuple(prep.as_path),
            interconnect=prep.interconnect,
            distance_km=prep.distance,
            stretch=prep.stretch,
            jitter_sigma=prep.sigma,
            congestion_probability=congestion,
            base_path_rtt_ms=base_rtt,
            hop_columns=columns,
            dest_address=prep.dest_address,
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
