"""Epoch-versioned topology: the read side of route re-convergence.

An :class:`EpochTopologyView` is an immutable overlay on a
:class:`~repro.core.topology.Topology`: the same scoped graphs, minus a
fixed set of downed AS-pair links.

Routes are answered per (serving ISP, provider, source continent).
:meth:`~EpochTopologyView.route_token` asks whether the ISP's baseline
AS path rides a downed link, once per route and view.  A route whose
links all survive is still the one selected -- removing links never
improves a valley-free route -- so it keeps its baseline path, its
planned rows and its verdict without any sweep.  Only a route that
rides a downed link re-converges its (provider network, source
continent) scope, through :meth:`~EpochTopologyView.routes_for`:

1. no downed pair touches the scope's graph -> the baseline table;
2. :func:`~repro.net.routing.table_uses_edges` shows no selected route
   rides a downed pair -> the baseline table (the same argument, for
   the whole table);
3. otherwise the valley-free sweep re-runs over the incrementally
   filtered CSR arrays, memoized process-wide under the filtered
   structure's digest.

Views are the only legal way to read topology under network faults --
the FRZ002 lint rule flags direct relationship-graph mutation outside
the builder and this package.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.topology import Topology
from repro.geo.continents import Continent
from repro.net.routing import (
    RoutePolicy,
    RoutingTable,
    compute_routes_without_edges,
    table_uses_edges,
)

#: Process-wide memo of per-scope epoch tables, keyed by (scope
#: adjacency digest, destination ASN, policy, removed pair set).  The
#: epoch classification -- "does this scope's baseline table ride a
#: removed edge, and which table results" -- is a pure function of that
#: key, so campaigns re-building plans (benchmark rounds, resumes, unit
#: retries) skip both the edge filtering and the ``table_uses_edges``
#: scan after the first view over a given structure.
#:
#: EXE101 (worker-purity) rightly observes that this is module-global
#: mutable state reachable from forked campaign workers.  It is exempt
#: by design for the same reason as the route memo in
#: ``repro.net.routing``: every entry is a pure function of its key, so
#: a worker hitting the parent's COW-prewarmed entry and a worker
#: recomputing it privately produce byte-identical tables -- the memo
#: can never make results depend on execution order.
# repro-lint: disable-file=EXE101
_ScopeKey = Tuple[str, int, RoutePolicy, FrozenSet[Tuple[int, int]]]
_SCOPE_TABLE_MEMO: "OrderedDict[_ScopeKey, RoutingTable]" = OrderedDict()
_SCOPE_TABLE_MEMO_MAX = 2048


class EpochTopologyView:
    """A topology with a fixed set of downed links (one routing epoch)."""

    def __init__(
        self,
        topology: Topology,
        removed_edges: FrozenSet[Tuple[int, int]],
    ) -> None:
        self._topology = topology
        self._removed = frozenset(
            (min(int(a), int(b)), max(int(a), int(b)))
            for a, b in removed_edges
        )
        self._route_cache: Dict[Tuple[str, Continent], RoutingTable] = {}
        #: (ISP, provider code, continent) -> route token, keyed by the
        #: caller's raw arguments.
        self._route_tokens: Dict[
            Tuple[int, str, Continent], Optional[FrozenSet[Tuple[int, int]]]
        ] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def removed_edges(self) -> FrozenSet[Tuple[int, int]]:
        return self._removed

    def cache_token(self) -> FrozenSet[Tuple[int, int]]:
        """Hashable identity of this view's effective topology.

        The baseline (no downed links) token equals the default path
        policy's token, so event-free epochs share planner cache entries
        with static runs.
        """
        return self._removed

    def routes_for(
        self, provider_code: str, source_continent: Continent
    ) -> RoutingTable:
        """The re-converged table for one scope under this epoch."""
        topology = self._topology
        if not self._removed:
            return topology.routes_for(provider_code, source_continent)
        network = topology.network_code(provider_code)
        key = (network, Continent(source_continent))
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        graph = topology.graph_for(network, key[1])
        adjacency = graph.adjacency()
        memo_key: _ScopeKey = (
            adjacency.digest,
            topology.peerings[network].cloud_asn,
            topology.policy,
            self._removed,
        )
        table = _SCOPE_TABLE_MEMO.get(memo_key)
        if table is None:
            base = topology.routes_for(provider_code, source_continent)
            effective = [
                pair
                for pair in sorted(self._removed)
                if pair[0] in adjacency.index and pair[1] in adjacency.index
            ]
            if not effective or not table_uses_edges(base, effective):
                table = base
            else:
                table = compute_routes_without_edges(
                    graph,
                    topology.peerings[network].cloud_asn,
                    topology.policy,
                    effective,
                )
            if len(_SCOPE_TABLE_MEMO) >= _SCOPE_TABLE_MEMO_MAX:
                _SCOPE_TABLE_MEMO.popitem(last=False)
            _SCOPE_TABLE_MEMO[memo_key] = table
        self._route_cache[key] = table
        return table

    def route_token(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> Optional[FrozenSet[Tuple[int, int]]]:
        """Cache identity of one (ISP, provider, continent) route.

        ``None`` when the ISP's baseline AS path rides no downed link:
        the route is then the baseline route, so planners share cache
        entries with static runs and verdicts need no sweep.  The
        removed-edge set otherwise.  Memoized per view.
        """
        if not self._removed:
            return None
        key = (isp_asn, provider_code, source_continent)
        try:
            return self._route_tokens[key]
        except KeyError:
            pass
        path = (
            self._topology.as_path(isp_asn, provider_code, source_continent)
            or []
        )
        token = (
            self._removed
            if any(
                (min(a, b), max(a, b)) in self._removed
                for a, b in zip(path, path[1:])
            )
            else None
        )
        self._route_tokens[key] = token
        return token

    def as_path(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> Optional[List[int]]:
        """AS-level path under this epoch, or ``None`` if unreachable.

        Only a route that rides a downed link re-converges its scope.
        """
        if self.route_token(isp_asn, provider_code, source_continent) is None:
            return self._topology.as_path(
                isp_asn, provider_code, source_continent
            )
        return self.routes_for(provider_code, source_continent).as_path(
            isp_asn
        )

    def __repr__(self) -> str:
        return f"EpochTopologyView(removed={sorted(self._removed)})"
