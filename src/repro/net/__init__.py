"""Network substrate: IP prefixes, ASes, relationships, routing, IXPs."""

from repro.net.asn import AS, ASKind, ASRegistry
from repro.net.ip import IPv4Prefix, PrefixAllocator, format_ip, is_private_ip, parse_ip
from repro.net.ixp import IXP, IXPRegistry
from repro.net.relationships import AdjacencyArrays, Relationship, RelationshipGraph
from repro.net.routing import (
    ArrayRoutingTable,
    RoutePolicy,
    RoutingTable,
    clear_route_cache,
    compute_routes,
)

__all__ = [
    "AS",
    "ASKind",
    "ASRegistry",
    "AdjacencyArrays",
    "ArrayRoutingTable",
    "IPv4Prefix",
    "IXP",
    "IXPRegistry",
    "PrefixAllocator",
    "Relationship",
    "RelationshipGraph",
    "RoutePolicy",
    "RoutingTable",
    "clear_route_cache",
    "compute_routes",
    "format_ip",
    "is_private_ip",
    "parse_ip",
]
