"""Per-node reference for :func:`repro.net.routing.compute_routes`.

This is the valley-free route computation as it ran before the sweep
became batched array passes over CSR adjacency: a BFS over provider
edges for customer routes, one peer hop, and a Dijkstra over customer
edges for provider routes, each visiting neighbours in ascending ASN
order.  Parity tests assert that ``compute_routes`` returns
entry-for-entry identical tables, and the full-scale benchmark times it
as the pre-optimization baseline.

:class:`EpochRoutes` is the eager route of a path policy under a
routing epoch, for the planner and netfault-engine oracles: every route
reads a full per-node sweep of its scope graph minus the epoch's downed
links.  It has none of the route tokens, baseline fast paths and
per-route shortcuts of ``repro.netfaults.view``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.topology import Topology
from repro.geo.continents import Continent
from repro.measure.pathpolicy import FailoverPathPolicy, PathSelectionPolicy
from repro.net.relationships import RelationshipGraph
from repro.net.routing import (
    RouteClass,
    RouteEntry,
    RoutePolicy,
    RoutingTable,
    _shortest_routes,
)


def compute_routes_reference(
    graph: RelationshipGraph,
    destination: int,
    policy: RoutePolicy = RoutePolicy.VALLEY_FREE,
) -> RoutingTable:
    """The original per-node Python sweep (uncached)."""
    if policy is RoutePolicy.SHORTEST:
        return _shortest_routes(graph, destination)
    return _valley_free_routes(graph, destination)


def _valley_free_routes(
    graph: RelationshipGraph, destination: int
) -> RoutingTable:
    entries: Dict[int, RouteEntry] = {}

    # Stage 1 -- customer routes: every AS whose customer cone contains the
    # destination hears the route from a customer.  These are the ancestors
    # of the destination along provider edges.
    customer_dist: Dict[int, int] = {destination: 0}
    queue = deque([destination])
    while queue:
        current = queue.popleft()
        for provider in sorted(graph.providers_of(current)):
            if provider in customer_dist:
                continue
            customer_dist[provider] = customer_dist[current] + 1
            entries[provider] = RouteEntry(
                current, customer_dist[provider], RouteClass.CUSTOMER
            )
            queue.append(provider)
    # Re-sweep stage 1 for shortest customer routes: BFS above already
    # yields shortest distances because all edges have unit weight, but an
    # AS may have several customers in the cone; pick the lowest-ASN
    # next hop among equally-short options for determinism.
    for asn in list(entries):
        best = entries[asn]
        for customer in sorted(graph.customers_of(asn)):
            dist = customer_dist.get(customer)
            if dist is None:
                continue
            if dist + 1 < best.distance or (
                dist + 1 == best.distance and customer < best.next_hop
            ):
                best = RouteEntry(customer, dist + 1, RouteClass.CUSTOMER)
        entries[asn] = best

    # Stage 2 -- peer routes: one settlement-free hop into the customer
    # cone.  Customer routes always win over peer routes at the same AS.
    for asn_with_route in sorted(customer_dist):
        for peer in sorted(graph.peers_of(asn_with_route)):
            if peer == destination or peer in customer_dist:
                continue
            candidate = RouteEntry(
                asn_with_route,
                customer_dist[asn_with_route] + 1,
                RouteClass.PEER,
            )
            existing = entries.get(peer)
            if (
                existing is None
                or candidate.distance < existing.distance
                or (
                    candidate.distance == existing.distance
                    and candidate.next_hop < existing.next_hop
                )
            ):
                entries[peer] = candidate

    # Stage 3 -- provider routes: any AS holding a route exports it to its
    # customers; distances accumulate.  Dijkstra over customer edges with
    # the stage-1/2 holders as multi-source seeds.
    seeds = []
    for asn, entry in entries.items():
        seeds.append((entry.distance, asn))
    seeds.append((0, destination))
    heap = [(dist, asn) for dist, asn in sorted(seeds)]
    settled_provider_dist: Dict[int, int] = {}
    while heap:
        dist, asn = heapq.heappop(heap)
        if settled_provider_dist.get(asn, dist + 1) <= dist:
            continue
        settled_provider_dist[asn] = dist
        for customer in sorted(graph.customers_of(asn)):
            candidate_dist = dist + 1
            existing = entries.get(customer)
            if existing is not None and existing.route_class in (
                RouteClass.CUSTOMER,
                RouteClass.PEER,
            ):
                # Customer/peer routes always beat provider routes, and the
                # AS will not switch -- but it still propagates its *best*
                # route downward, which is the existing one (already seeded).
                continue
            if customer == destination:
                continue
            if (
                existing is None
                or candidate_dist < existing.distance
                or (
                    candidate_dist == existing.distance
                    and asn < existing.next_hop
                )
            ):
                entries[customer] = RouteEntry(
                    asn, candidate_dist, RouteClass.PROVIDER
                )
                heapq.heappush(heap, (candidate_dist, customer))

    return RoutingTable(destination, entries)


class EpochRoutes:
    """The AS path a policy selects, from a full sweep per downed-link set.

    With no downed link a route reads the topology's baseline table
    (which ``TestRoutingParity`` holds to the per-node sweep).
    Otherwise it reads :func:`compute_routes_reference` over the scope
    graph without the downed links, one sweep per (network, continent,
    downed links), kept for the instance's lifetime.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._tables: Dict[
            Tuple[str, Continent, FrozenSet[Tuple[int, int]]], RoutingTable
        ] = {}

    def table(
        self,
        provider_code: str,
        continent: Continent,
        removed: FrozenSet[Tuple[int, int]],
    ) -> RoutingTable:
        """The scope's table with the unordered pairs ``removed`` down."""
        topology = self._topology
        if not removed:
            return topology.routes_for(provider_code, continent)
        network = topology.network_code(provider_code)
        key = (network, Continent(continent), removed)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = compute_routes_reference(
                topology.graph_for(network, key[1]).without_edges(sorted(removed)),
                topology.peerings[network].cloud_asn,
                topology.policy,
            )
        return table

    def as_path(
        self,
        policy: Optional[PathSelectionPolicy],
        isp_asn: int,
        provider_code: str,
        continent: Continent,
    ) -> Optional[List[int]]:
        """The route ``policy`` selects in its current state: the sweep
        under its epoch view's downed links and, for a path marked down,
        ``None`` or (failover) the sweep that also downs the path's
        first link."""
        view = getattr(policy, "view", None)
        removed: Set[Tuple[int, int]] = (
            set() if view is None else set(view.removed_edges)
        )
        path = self.table(provider_code, continent, frozenset(removed)).as_path(
            isp_asn
        )
        if (
            policy is None
            or path is None
            or not policy.is_down(
                policy.path_key(self._topology, isp_asn, provider_code, continent)
            )
        ):
            return path
        if not isinstance(policy, FailoverPathPolicy) or len(path) < 2:
            return None
        removed.add((min(path[0], path[1]), max(path[0], path[1])))
        return self.table(provider_code, continent, frozenset(removed)).as_path(
            isp_asn
        )
