"""Pluggable path-selection policies for the path planner.

A policy decides which AS-level route a (serving ISP, provider,
continent) triple resolves to, and carries ``mark_path_down`` /
``mark_path_up`` semantics in the style of path-store based selection
algorithms: paths marked down are excluded from selection, and the
:class:`FailoverPathPolicy` re-converges onto the best alternate route
that avoids the downed path's first inter-AS link.

Policies are *pure* given their :meth:`~PathSelectionPolicy.cache_token`:
the planner keys its path and route-meta caches by the token, so flipping
a path down and back up restores bit-identical planning without any
cache invalidation -- the property that keeps shared planners safe
across campaign units, workers, and resumes.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Optional, Protocol, Set, Tuple

from repro.core.topology import Topology
from repro.geo.continents import Continent
from repro.net.routing import compute_routes_without_edges

#: Identity of a selectable path: (serving ISP ASN, provider network
#: code, source continent) -- the granularity at which routes exist.
PathKey = Tuple[int, str, Continent]


class RouteView(Protocol):
    """A source of (possibly re-converged) routes.

    Structurally matched by
    :class:`repro.netfaults.view.EpochTopologyView`; the measure layer
    depends only on this surface so no import cycle forms.
    """

    @property
    def removed_edges(self) -> FrozenSet[Tuple[int, int]]: ...

    def cache_token(self) -> Hashable: ...

    def as_path(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> Optional[List[int]]: ...

    def route_token(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> Optional[Hashable]: ...


#: The token of a policy in its pristine state (no epoch view, nothing
#: marked down).  Planners treat this token as "behave exactly like no
#: policy at all" and share cache entries with policy-free planning.
BASELINE_TOKEN: Tuple[Hashable, FrozenSet[PathKey]] = (
    frozenset(),
    frozenset(),
)


class PathSelectionPolicy:
    """Base policy: the topology's converged route, with down marks.

    A path marked down is unavailable -- :meth:`as_path` returns ``None``
    for it until :meth:`mark_path_up`.  Subclasses override
    :meth:`as_path` (and usually :meth:`_view_token`) to add failover.
    """

    name = "static"

    def __init__(self) -> None:
        self._down: Set[PathKey] = set()
        self._token: Tuple[Hashable, FrozenSet[PathKey]] = BASELINE_TOKEN

    # -- down-path bookkeeping --------------------------------------------

    @property
    def down_paths(self) -> FrozenSet[PathKey]:
        return frozenset(self._down)

    def mark_path_down(self, key: PathKey) -> None:
        """Exclude a path from selection until marked up again."""
        self._down.add(key)
        self._refresh_token()

    def mark_path_up(self, key: PathKey) -> None:
        """Restore a previously downed path."""
        self._down.discard(key)
        self._refresh_token()

    def is_down(self, key: PathKey) -> bool:
        return key in self._down

    @staticmethod
    def path_key(
        topology: Topology,
        isp_asn: int,
        provider_code: str,
        source_continent: Continent,
    ) -> PathKey:
        return (
            int(isp_asn),
            topology.network_code(provider_code),
            Continent(source_continent),
        )

    # -- cache identity ----------------------------------------------------

    def _view_token(self) -> Hashable:
        return frozenset()

    def _refresh_token(self) -> None:
        if not self._down and self._view_token() == frozenset():
            self._token = BASELINE_TOKEN
        else:
            self._token = (self._view_token(), frozenset(self._down))

    def cache_token(self) -> Tuple[Hashable, FrozenSet[PathKey]]:
        """Hashable identity of the policy's current selection state.

        Paths planned under equal tokens are interchangeable; the
        planner namespaces its caches by this value.
        """
        return self._token

    def pair_token(
        self,
        topology: Topology,
        isp_asn: int,
        provider_code: str,
        source_continent: Continent,
    ) -> Optional[Hashable]:
        """Cache namespace for one (ISP, provider, source continent) route.

        ``None`` means "this route is exactly the baseline route" -- the
        planner may then share cache entries with policy-free planning.
        The base policy answers ``None`` only at its baseline token;
        subclasses that know which routes an event actually touched (see
        :class:`FailoverPathPolicy`) return ``None`` for every unaffected
        route, so a routing epoch pays re-planning costs only where
        routes really changed.
        """
        del topology, isp_asn, provider_code, source_continent
        if self._token is BASELINE_TOKEN or self._token == BASELINE_TOKEN:
            return None
        return self._token

    # -- selection ---------------------------------------------------------

    def as_path(
        self,
        topology: Topology,
        isp_asn: int,
        provider_code: str,
        source_continent: Continent,
    ) -> Optional[List[int]]:
        """The selected AS path, or ``None`` if no path is available."""
        key = self.path_key(topology, isp_asn, provider_code, source_continent)
        if self.is_down(key):
            return None
        return topology.as_path(isp_asn, provider_code, source_continent)


class FailoverPathPolicy(PathSelectionPolicy):
    """Epoch-aware selection with alternate-path failover.

    Routes resolve through the active epoch view (downed links already
    re-converged); a path additionally marked down fails over to the
    best route that avoids its first inter-AS link -- the classic
    next-best-path selection of a path store -- or ``None`` when no
    alternate survives.
    """

    name = "failover"

    def __init__(self) -> None:
        super().__init__()
        self._view: Optional[RouteView] = None

    @property
    def view(self) -> Optional[RouteView]:
        return self._view

    def set_view(self, view: Optional[RouteView]) -> None:
        """Install the epoch view routes resolve through (``None`` for
        the baseline topology)."""
        self._view = view
        self._refresh_token()

    def _view_token(self) -> Hashable:
        return frozenset() if self._view is None else self._view.cache_token()

    def pair_token(
        self,
        topology: Topology,
        isp_asn: int,
        provider_code: str,
        source_continent: Continent,
    ) -> Optional[Hashable]:
        """Route-grained cache namespace under the active epoch view.

        Any downed path forces the full token, as down marks change
        selection beyond the view; otherwise the view's route token
        (:meth:`RouteView.route_token`) is ``None`` exactly when the
        ISP's baseline route rides no downed link, and such a route
        plans (and caches) exactly like a static world.
        """
        del topology
        if self._down:
            return self._token
        if self._view is None:
            return None
        return self._view.route_token(isp_asn, provider_code, source_continent)

    def as_path(
        self,
        topology: Topology,
        isp_asn: int,
        provider_code: str,
        source_continent: Continent,
    ) -> Optional[List[int]]:
        if self._view is None:
            base = topology.as_path(isp_asn, provider_code, source_continent)
        else:
            base = self._view.as_path(isp_asn, provider_code, source_continent)
        if base is None or not self._down:
            return base
        key = self.path_key(topology, isp_asn, provider_code, source_continent)
        if not self.is_down(key):
            return base
        if len(base) < 2:
            return None
        removed: Set[Tuple[int, int]] = {(base[0], base[1])}
        if self._view is not None:
            removed.update(self._view.removed_edges)
        network = topology.network_code(provider_code)
        graph = topology.graph_for(network, Continent(source_continent))
        table = compute_routes_without_edges(
            graph,
            topology.peerings[network].cloud_asn,
            topology.policy,
            sorted(removed),
        )
        return table.as_path(isp_asn)
