"""Inter-domain route computation.

Implements Gao-Rexford valley-free policy routing: every AS prefers
routes learned from customers over routes learned from peers over routes
learned from providers, breaking ties on AS-path length and then on the
lowest next-hop ASN (determinism).  Export rules are the standard ones:

- routes learned from a customer are exported to everyone;
- routes learned from a peer or a provider are exported to customers only.

Routes are computed per destination with the classic three-stage sweep
(customer cone, one peer hop, provider propagation), which yields exactly
the set of valley-free best paths.  A plain shortest-path mode is provided
as an ablation (``RoutePolicy.SHORTEST``).

:func:`_valley_free_routes_arrays` (behind :func:`compute_routes`) runs
all three stages as batched NumPy passes over the graph's CSR adjacency
arrays -- level-synchronous BFS over provider edges, one vectorized
peer-edge relaxation, and a bucketed (Dial-style) BFS for provider
propagation.  The original per-node Python sweep is the parity oracle
in ``tests/oracles/routing.py``: parity tests assert the two produce
entry-for-entry identical tables, and the full-scale benchmark uses it
as the pre-optimization baseline.

Computed tables are also memoized in a process-wide cache keyed by
(adjacency digest, destination, policy), so every world built on the
same topology -- across campaign days, resumes, and benchmark repeats in
one process -- reuses the same immutable tables instead of recomputing
them per (provider network, continent) scope.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.net.relationships import (
    AdjacencyArrays,
    RelationshipGraph,
    adjacency_without_edges,
)


class RoutePolicy(str, Enum):
    """Route selection policy."""

    VALLEY_FREE = "valley_free"
    SHORTEST = "shortest"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RouteClass(str, Enum):
    """How the best route at an AS was learned."""

    SELF = "self"
    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class RouteEntry:
    """Best route from one AS towards the table's destination."""

    next_hop: int
    distance: int
    route_class: RouteClass


class RoutingTable:
    """All best routes towards a single destination AS."""

    def __init__(self, destination: int, entries: Dict[int, RouteEntry]):
        self._destination = destination
        self._entries = entries
        self._path_cache: Dict[int, Optional[Tuple[int, ...]]] = {}

    @property
    def destination(self) -> int:
        return self._destination

    def __contains__(self, asn: int) -> bool:
        return asn == self._destination or asn in self._entries

    def __len__(self) -> int:
        return len(self._entries) + 1

    def entry(self, source: int) -> Optional[RouteEntry]:
        """The best-route entry at ``source``, or ``None`` if unreachable."""
        if source == self._destination:
            return RouteEntry(source, 0, RouteClass.SELF)
        return self._entries.get(source)

    def distance(self, source: int) -> Optional[int]:
        """AS-hop count from ``source`` to the destination, or ``None``."""
        entry = self.entry(source)
        return None if entry is None else entry.distance

    def as_path(self, source: int) -> Optional[List[int]]:
        """The AS-level path [source, ..., destination], or ``None``.

        Paths are loop-free by construction; a defensive bound guards
        against corrupted tables.  Reconstructed paths are memoized per
        source (the planner asks for the same ISP paths tens of
        thousands of times per campaign day); callers receive a fresh
        list they may mutate.
        """
        if source in self._path_cache:
            cached = self._path_cache[source]
            return None if cached is None else list(cached)
        path = self._walk_path(source)
        self._path_cache[source] = None if path is None else tuple(path)
        return path

    def _walk_path(self, source: int) -> Optional[List[int]]:
        if source == self._destination:
            return [source]
        if source not in self._entries:
            return None
        path = [source]
        current = source
        for _ in range(len(self._entries) + 2):
            entry = self._entries.get(current)
            if entry is None:
                return None
            current = entry.next_hop
            path.append(current)
            if current == self._destination:
                return path
        raise RuntimeError(
            f"routing loop reconstructing path {source} -> {self._destination}"
        )


#: Integer route-class codes used by the array table (index = code).
_CLASS_BY_CODE = (RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER)


class ArrayRoutingTable(RoutingTable):
    """A routing table backed by the solver's flat arrays.

    Behaviourally identical to :class:`RoutingTable` (same entries, same
    tie-breaks) but entries stay columnar: no per-AS ``RouteEntry``
    objects are materialized unless :meth:`entry` is called, which keeps
    full-scale worlds -- hundreds of scoped tables -- cheap to build and
    cheap for forked workers to share.
    """

    def __init__(
        self,
        destination: int,
        asns: np.ndarray,
        index: Dict[int, int],
        next_hop: np.ndarray,
        distance: np.ndarray,
        class_code: np.ndarray,
    ) -> None:
        self._destination = destination
        self._asns = asns
        self._index = index
        self._next = next_hop
        self._dist = distance
        self._class = class_code
        self._reachable = int(np.count_nonzero(class_code >= 0))
        self._path_cache = {}

    def __contains__(self, asn: int) -> bool:
        if asn == self._destination:
            return True
        row = self._index.get(asn)
        return row is not None and self._class[row] >= 0

    def __len__(self) -> int:
        return self._reachable + 1

    def entry(self, source: int) -> Optional[RouteEntry]:
        if source == self._destination:
            return RouteEntry(source, 0, RouteClass.SELF)
        row = self._index.get(source)
        if row is None or self._class[row] < 0:
            return None
        return RouteEntry(
            int(self._asns[self._next[row]]),
            int(self._dist[row]),
            _CLASS_BY_CODE[self._class[row]],
        )

    def distance(self, source: int) -> Optional[int]:
        if source == self._destination:
            return 0
        row = self._index.get(source)
        if row is None or self._class[row] < 0:
            return None
        return int(self._dist[row])

    def _walk_path(self, source: int) -> Optional[List[int]]:
        if source == self._destination:
            return [source]
        row = self._index.get(source)
        if row is None or self._class[row] < 0:
            return None
        path = [source]
        for _ in range(len(self._asns) + 2):
            row = int(self._next[row])
            asn = int(self._asns[row])
            path.append(asn)
            if asn == self._destination:
                return path
            if self._class[row] < 0:
                return None
        raise RuntimeError(
            f"routing loop reconstructing path {source} -> {self._destination}"
        )


#: Process-wide memo of computed tables, keyed by (adjacency digest,
#: destination, policy).  Tables are immutable once built, so sharing
#: them across worlds (same seed/scale => same scoped graphs) is safe;
#: the bound is generous -- a full-scale world needs ~8 networks x 6
#: continents x 2 policies worth of entries.
#:
#: EXE101 (worker-purity) rightly observes that this is module-global
#: mutable state reachable from forked campaign workers.  It is exempt
#: by design: every entry is a pure function of its key, so whether a
#: worker hits the parent's COW-prewarmed entry (see
#: ``_prewarm_route_tables``) or recomputes it in its private copy, the
#: resulting table is byte-identical -- the memo can never make results
#: depend on execution order, only on how much work is repeated.
# repro-lint: disable-file=EXE101
_SHARED_ROUTE_CACHE: "OrderedDict[Tuple[str, int, RoutePolicy], RoutingTable]"
_SHARED_ROUTE_CACHE = OrderedDict()
_SHARED_ROUTE_CACHE_MAX = 512


def clear_route_cache() -> None:
    """Drop the process-wide route memo (benchmarks and tests)."""
    _SHARED_ROUTE_CACHE.clear()


def compute_routes(
    graph: RelationshipGraph,
    destination: int,
    policy: RoutePolicy = RoutePolicy.VALLEY_FREE,
) -> RoutingTable:
    """Best routes from every AS towards ``destination`` under ``policy``.

    Results are memoized process-wide by the graph's adjacency digest:
    two worlds built on byte-identical edge structures share one table
    object per (destination, policy).
    """
    adjacency = graph.adjacency()
    key = (adjacency.digest, destination, policy)
    cached = _SHARED_ROUTE_CACHE.get(key)
    if cached is not None:
        return cached
    if policy is RoutePolicy.SHORTEST:
        table: RoutingTable = _shortest_routes(graph, destination)
    else:
        table = _valley_free_routes_arrays(adjacency, destination)
    if len(_SHARED_ROUTE_CACHE) >= _SHARED_ROUTE_CACHE_MAX:
        _SHARED_ROUTE_CACHE.popitem(last=False)
    _SHARED_ROUTE_CACHE[key] = table
    return table


def compute_routes_without_edges(
    graph: RelationshipGraph,
    destination: int,
    policy: RoutePolicy = RoutePolicy.VALLEY_FREE,
    edges: Iterable[Tuple[int, int]] = (),
) -> RoutingTable:
    """Re-converged routes after removing the given unordered AS pairs.

    The epoch-transition entry point of the netfault subsystem: the
    valley-free sweep runs directly over the incrementally filtered CSR
    adjacency (:func:`~repro.net.relationships.adjacency_without_edges`),
    and results share the process-wide memo under the filtered
    structure's own digest -- epochs with identical downed-edge sets hit
    the same cached table across days, resumes, and workers.  With no
    effective removals this is exactly :func:`compute_routes`.
    """
    if policy is RoutePolicy.SHORTEST:
        return compute_routes(graph.without_edges(edges), destination, policy)
    adjacency = adjacency_without_edges(graph.adjacency(), edges)
    key = (adjacency.digest, destination, policy)
    cached = _SHARED_ROUTE_CACHE.get(key)
    if cached is not None:
        return cached
    table = _valley_free_routes_arrays(adjacency, destination)
    if len(_SHARED_ROUTE_CACHE) >= _SHARED_ROUTE_CACHE_MAX:
        _SHARED_ROUTE_CACHE.popitem(last=False)
    _SHARED_ROUTE_CACHE[key] = table
    return table


def table_uses_edges(
    table: RoutingTable, edges: Iterable[Tuple[int, int]]
) -> bool:
    """Whether any selected (source, next-hop) adjacency of ``table``
    rides one of the unordered AS pairs in ``edges``.

    Sound fast-path test for epoch re-convergence: removing edges only
    shrinks the candidate route set, so if no selected pair (and hence
    no edge of any selected path -- paths compose table entries) uses a
    removed pair, the re-converged table is identical to ``table`` and
    the sweep can be skipped.
    """
    pairs = {
        (min(int(a), int(b)), max(int(a), int(b))) for a, b in edges
    }
    if not pairs:
        return False
    if isinstance(table, ArrayRoutingTable):
        rows = np.nonzero(table._class >= 0)[0]
        if rows.size == 0:
            return False
        src_asns = table._asns[rows]
        next_asns = table._asns[table._next[rows]]
        packed = np.minimum(src_asns, next_asns) * np.int64(
            2**32
        ) + np.maximum(src_asns, next_asns)
        wanted = np.asarray(
            sorted(a * 2**32 + b for a, b in pairs), dtype=np.int64
        )
        return bool(np.isin(packed, wanted).any())
    return any(
        (min(source, entry.next_hop), max(source, entry.next_hop)) in pairs
        for source, entry in table._entries.items()
    )


def _gather(
    offsets: np.ndarray, targets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(source row, target row) pairs for every CSR edge out of ``rows``."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    sources = np.repeat(rows, counts)
    # Flat positions: each segment is a contiguous run starting at its
    # row's CSR offset.
    segment_starts = np.repeat(starts, counts)
    segment_bases = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.arange(total, dtype=np.int64) - segment_bases + segment_starts
    return sources, targets[flat]


def _valley_free_routes_arrays(
    adjacency: AdjacencyArrays, destination: int
) -> ArrayRoutingTable:
    """The three-stage valley-free sweep as batched array passes.

    Produces entries identical to the per-node reference sweep
    (``tests/oracles/routing.py``), including every tie-break: stage 1 keeps the lowest-ASN customer among
    equally-short cone routes, stage 2 takes the lexicographic minimum of
    (distance, neighbor ASN) over peer candidates, and stage 3 settles
    provider routes level-by-level keeping the lowest-ASN provider at the
    minimal distance.  Because rows are assigned in ascending ASN order,
    "lowest ASN" and "lowest row" coincide, so every tie-break is a
    plain ``minimum`` reduction over row indices.
    """
    n = len(adjacency)
    dest_row = adjacency.index.get(destination)
    if dest_row is None:
        raise KeyError(f"destination AS{destination} not in graph")

    # Stage 1 -- customer routes: level-synchronous BFS from the
    # destination along provider edges (the destination's transitive
    # providers are exactly the ASes whose customer cone contains it).
    cone_dist = np.full(n, -1, dtype=np.int64)
    cone_dist[dest_row] = 0
    frontier = np.array([dest_row], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        _, reached = _gather(
            adjacency.provider_offsets, adjacency.provider_targets, frontier
        )
        if reached.size == 0:
            break
        reached = np.unique(reached)
        frontier = reached[cone_dist[reached] < 0]
        cone_dist[frontier] = level

    # Stage-1 next hops: for every provider edge (x -> customer c) with
    # cone_dist[c] == cone_dist[x] - 1, keep the lowest customer row.
    customer_next = np.full(n, n, dtype=np.int64)
    edge_src, edge_dst = _gather(
        adjacency.customer_offsets,
        adjacency.customer_targets,
        np.arange(n, dtype=np.int64),
    )
    in_cone = (cone_dist[edge_src] > 0) & (cone_dist[edge_dst] >= 0)
    downhill = in_cone & (cone_dist[edge_src] == cone_dist[edge_dst] + 1)
    np.minimum.at(customer_next, edge_src[downhill], edge_dst[downhill])

    # Stage 2 -- peer routes: one settlement-free hop into the cone.
    # Candidates (a peers-with p, a in cone incl. the destination, p
    # outside the cone) relax to the lexicographic minimum of
    # (cone_dist[a] + 1, a); packing (distance, row) into one integer
    # key makes the reduction a single unbuffered minimum.
    no_peer = np.iinfo(np.int64).max
    peer_best = np.full(n, no_peer, dtype=np.int64)
    peer_src, peer_dst = _gather(
        adjacency.peer_offsets,
        adjacency.peer_targets,
        np.arange(n, dtype=np.int64),
    )
    usable = (cone_dist[peer_src] >= 0) & (cone_dist[peer_dst] < 0)
    key = (cone_dist[peer_src[usable]] + 1) * (n + 1) + peer_src[usable]
    np.minimum.at(peer_best, peer_dst[usable], key)
    has_peer = peer_best < no_peer
    peer_dist = np.where(has_peer, peer_best // (n + 1), -1)
    peer_next = np.where(has_peer, peer_best % (n + 1), n)

    # Stage 3 -- provider routes: every route holder exports its best
    # route to its customers; distances accumulate hop by hop.  All
    # edges have unit weight, so the Dijkstra of the reference sweep
    # degenerates to a bucketed BFS over distance levels: the frontier
    # at level L is every AS whose final distance is L, and an AS first
    # reached at level L+1 settles with the lowest-ASN exporter of that
    # level as its next hop.
    final_dist = np.where(cone_dist >= 0, cone_dist, peer_dist)
    provider_next = np.full(n, n, dtype=np.int64)
    is_provider_route = np.zeros(n, dtype=bool)
    level = 0
    # Assignments made at level L always land at L + 1, so the running
    # maximum of ``final_dist`` is a sound loop bound.
    while level <= int(final_dist.max()):
        frontier = np.nonzero(final_dist == level)[0]
        if frontier.size:
            src, dst = _gather(
                adjacency.customer_offsets, adjacency.customer_targets, frontier
            )
            fresh = final_dist[dst] < 0
            if np.any(fresh):
                src, dst = src[fresh], dst[fresh]
                np.minimum.at(provider_next, dst, src)
                final_dist[dst] = level + 1
                is_provider_route[dst] = True
        level += 1

    # Assemble the columnar table: class codes 0/1/2 = customer/peer/
    # provider, -1 = unreachable; the destination row stays -1 (SELF is
    # synthesized by ``entry``).
    class_code = np.full(n, -1, dtype=np.int8)
    next_row = np.full(n, n, dtype=np.int64)
    customer_mask = cone_dist > 0
    class_code[customer_mask] = 0
    next_row[customer_mask] = customer_next[customer_mask]
    class_code[has_peer] = 1
    next_row[has_peer] = peer_next[has_peer]
    class_code[is_provider_route] = 2
    next_row[is_provider_route] = provider_next[is_provider_route]
    return ArrayRoutingTable(
        destination=destination,
        asns=adjacency.asns,
        index=adjacency.index,
        next_hop=next_row,
        distance=final_dist,
        class_code=class_code,
    )


def _shortest_routes(graph: RelationshipGraph, destination: int) -> RoutingTable:
    """Policy-free shortest paths over the undirected adjacency (ablation)."""
    entries: Dict[int, RouteEntry] = {}
    dist: Dict[int, int] = {destination: 0}
    queue = deque([destination])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors_of(current)):
            if neighbor in dist:
                continue
            dist[neighbor] = dist[current] + 1
            entries[neighbor] = RouteEntry(
                current, dist[neighbor], RouteClass.PROVIDER
            )
            queue.append(neighbor)
    return RoutingTable(destination, entries)
