"""Parity of the batch traceroute resolver with its per-hop reference.

``TracerouteResolver.resolve_many`` classifies each distinct hop address
once with vectorized private-range, IXP and prefix lookups;
``oracles.resolver.ReferenceResolver`` resolves hop by hop with the
scalar lookups.  Both must produce equal traces and the same number of
Cymru queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_meta
from oracles.resolver import ReferenceResolver

from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.measure.results import Protocol, TraceHop, TracerouteMeasurement
from repro.net.ip import MAX_IPV4, IPv4Prefix, is_private_ip, private_mask
from repro.net.ixp import IXP, IXPRegistry
from repro.resolve.pipeline import TracerouteResolver

PRIVATE_RANGES = [
    IPv4Prefix.parse(text)
    for text in ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "100.64.0.0/10")
]

#: Peering LANs that overlap the world's own (12.0.0.0/24 ... 12.0.14.0/24),
#: registered after them, plus one overlap among themselves: the first
#: registered LAN must win.  The last lies in CGN space, where the
#: private range must win over the LAN.
OVERLAPPING_LANS = (
    "12.0.0.0/23",
    "12.0.3.128/25",
    "12.0.200.0/22",
    "12.0.201.0/24",
    "100.64.0.0/24",
)


def edges(prefix):
    """First and last address of a prefix and their outside neighbours."""
    last = prefix.base + prefix.size - 1
    return [a for a in (prefix.base - 1, prefix.base, last, last + 1) if 0 <= a <= MAX_IPV4]


def overlapping_ixps(world):
    """The world's IXPs followed by IXPs whose LANs overlap theirs."""
    registry = IXPRegistry()
    for ixp in world.topology.ixps:
        registry.add(ixp)
    for offset, lan in enumerate(OVERLAPPING_LANS):
        registry.add(
            IXP(
                ixp_id=100 + offset,
                name=f"overlap-{offset}",
                location=GeoPoint(50.0, 8.0),
                continent=Continent.EU,
                peering_lan=IPv4Prefix.parse(lan),
            )
        )
    return registry


@pytest.fixture(scope="module")
def ixps(world):
    return overlapping_ixps(world)


@pytest.fixture(scope="module")
def special_addresses(world, ixps):
    """Addresses on every boundary the classification depends on."""
    addresses = []
    for prefix in PRIVATE_RANGES:
        addresses += edges(prefix)
    for ixp in ixps:
        addresses += edges(ixp.peering_lan)
    for prefix, _ in world.topology.registry.prefix_table()[::7]:
        addresses += edges(prefix)
    # Public space no AS announces (the world allocates out of 11/8).
    addresses += [IPv4Prefix.parse("203.0.113.0/24").base + 9, MAX_IPV4, 0]
    return sorted(set(addresses))


def address_strategy(special):
    return st.one_of(
        st.sampled_from(special), st.integers(min_value=0, max_value=MAX_IPV4)
    )


def trace_strategy(special, isp_asns):
    hop = st.one_of(
        st.just(TraceHop(None, None)),
        st.builds(
            TraceHop,
            address_strategy(special),
            st.floats(min_value=0.1, max_value=400.0),
        ),
    )
    return st.builds(
        lambda isp_asn, hops: TracerouteMeasurement(
            meta=make_meta(isp_asn=isp_asn),
            protocol=Protocol.ICMP,
            source_address=1,
            dest_address=hops[-1].address if hops and hops[-1].address else 0,
            hops=tuple(hops),
        ),
        st.sampled_from(isp_asns),
        st.lists(hop, max_size=12),
    )


@pytest.fixture(scope="module")
def isp_asns(world):
    """ASNs whose prefixes the generated hops hit, so cell/USR-ISP fire."""
    return sorted({asn for _, asn in world.topology.registry.prefix_table()[::7]})


class TestBatchLookups:
    @given(data=st.data())
    @settings(max_examples=80)
    def test_private_mask_matches_is_private_ip(self, special_addresses, data):
        addresses = data.draw(st.lists(address_strategy(special_addresses), max_size=40))
        mask = private_mask(np.asarray(addresses, dtype=np.int64))
        assert mask.tolist() == [is_private_ip(a) for a in addresses]

    @given(data=st.data())
    @settings(max_examples=80)
    def test_ixp_ids_match_ixp_for_address(self, ixps, special_addresses, data):
        addresses = data.draw(st.lists(address_strategy(special_addresses), max_size=40))
        expected = []
        for address in addresses:
            ixp = ixps.ixp_for_address(address)
            expected.append(-1 if ixp is None else ixp.ixp_id)
        assert ixps.ixp_ids_for(addresses).tolist() == expected

    def test_first_registered_lan_wins(self, ixps):
        # 12.0.0.5 is in the world's first LAN and in the later /23.
        address = IPv4Prefix.parse("12.0.0.0/24").base + 5
        first = ixps.ixp_for_address(address)
        assert ixps.ixp_ids_for([address]).tolist() == [first.ixp_id]
        assert first.ixp_id < 100

    def test_empty_batch(self, ixps):
        assert private_mask([]).shape == (0,)
        assert ixps.ixp_ids_for([]).shape == (0,)


class TestResolverParity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_generated_traces_match_reference(
        self, world, ixps, special_addresses, isp_asns, data
    ):
        traces = trace_strategy(special_addresses, isp_asns)
        first = data.draw(st.lists(traces, max_size=6))
        # The second call repeats addresses of the first, which the
        # batch resolver then serves from its per-address cache.
        seen = [hop for trace in first for hop in trace.hops if hop.responded]
        repeat = st.sampled_from(seen) if seen else st.just(TraceHop(None, None))
        second = data.draw(st.lists(traces, max_size=6)) + [
            TracerouteMeasurement(
                meta=make_meta(isp_asn=data.draw(st.sampled_from(isp_asns))),
                protocol=Protocol.TCP,
                source_address=1,
                dest_address=0,
                hops=tuple(data.draw(st.lists(repeat, min_size=1, max_size=5))),
            )
        ]
        registry = world.topology.registry
        # Half the RIB missing: many public hops need the Cymru fallback.
        batch = TracerouteResolver(
            registry, ixps, rib_coverage=0.5, rng=np.random.default_rng(3)
        )
        reference = ReferenceResolver(
            registry, ixps, rib_coverage=0.5, rng=np.random.default_rng(3)
        )
        for traces_in_call in (first, second):
            assert batch.resolve_many(traces_in_call) == reference.resolve_many(
                traces_in_call
            )
            assert batch.cymru_query_count == reference.cymru_query_count

    def test_single_trace_resolve_is_a_batch_of_one(self, world, ixps):
        registry = world.topology.registry
        prefix, _ = registry.prefix_table()[0]
        trace = TracerouteMeasurement(
            meta=make_meta(),
            protocol=Protocol.ICMP,
            source_address=1,
            dest_address=prefix.base + 1,
            hops=(
                TraceHop(IPv4Prefix.parse("192.168.0.0/16").base + 1, 2.0),
                TraceHop(None, None),
                TraceHop(next(iter(ixps)).peering_lan.base + 3, 8.0),
                # CGN space inside a registered peering LAN.
                TraceHop(IPv4Prefix.parse("100.64.0.0/24").base + 7, 8.5),
                TraceHop(prefix.base + 1, 9.0),
            ),
        )
        batch = TracerouteResolver(registry, ixps, rib_coverage=1.0)
        reference = ReferenceResolver(registry, ixps, rib_coverage=1.0)
        assert batch.resolve(trace) == reference.resolve(trace)
        assert [hop.resolved_by for hop in batch.resolve(trace).hops] == [
            "private",
            "none",
            "ixp",
            "private",
            "pyasn",
        ]


class TestCampaignParity:
    def test_campaign_traces_match_reference(self, world, dataset):
        """A 2%-scale campaign, resolved as the experiments resolve it."""
        topology = world.topology
        traces = list(dataset.traceroutes())
        batch = TracerouteResolver(
            topology.registry,
            topology.ixps,
            rib_coverage=0.97,
            rng=world.rngs.fork("resolver-parity", 0),
        )
        reference = ReferenceResolver(
            topology.registry,
            topology.ixps,
            rib_coverage=0.97,
            rng=world.rngs.fork("resolver-parity", 0),
        )
        resolved = batch.resolve_many(traces)
        expected = reference.resolve_many(traces)
        assert len(resolved) == len(expected) == len(traces)
        for got, want in zip(resolved, expected):
            assert got == want
        assert batch.cymru_query_count == reference.cymru_query_count > 0
