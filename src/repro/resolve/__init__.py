"""Traceroute post-processing: IP->ASN, IXP tagging, enrichment, GeoIP."""

from repro.resolve.cymru import CymruResolver
from repro.resolve.geoip import GeoIPDatabase
from repro.resolve.peeringdb import PeeringDBRecord, SyntheticPeeringDB
from repro.resolve.pipeline import ResolvedTraceBlock, TracerouteResolver
from repro.resolve.pyasn import PrefixTrie, PyASNResolver

__all__ = [
    "CymruResolver",
    "GeoIPDatabase",
    "PeeringDBRecord",
    "PrefixTrie",
    "PyASNResolver",
    "ResolvedTraceBlock",
    "SyntheticPeeringDB",
    "TracerouteResolver",
]
