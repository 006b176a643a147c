"""Tests for repro.resolve.pipeline (the traceroute-resolution pipeline)."""

import numpy as np
import pytest

from oracles.resolver import block_rows

from repro.analysis.lastmile import HOME_RTR_ISP, extract_last_mile
from repro.analysis.peering import (
    CATEGORIES,
    ONE_AS,
    UNCLASSIFIED,
    classify_traces,
)
from repro.analysis.pervasiveness import provider_hop_shares
from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    MeasurementMeta,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    trace_block_from_records,
)
from repro.net.ip import parse_ip
from repro.resolve.pipeline import INFERRED_ACCESS, TracerouteResolver


@pytest.fixture(scope="module")
def resolver(world):
    return TracerouteResolver(
        world.topology.registry, world.topology.ixps, rib_coverage=1.0
    )


@pytest.fixture(scope="module")
def de_isp(world):
    return world.topology.registry.get(3320)  # D. Telekom


def synthetic_trace(world, isp, hops, device=None):
    meta = MeasurementMeta(
        probe_id="px",
        platform="speedchecker",
        country="DE",
        continent=Continent.EU,
        access=AccessKind.HOME_WIFI,
        isp_asn=isp.asn,
        provider_code="GCP",
        region_id="frankfurt-2",
        region_country="DE",
        region_continent=Continent.EU,
        day=0,
        city_key=(25, 4),
    )
    return TracerouteMeasurement(
        meta=meta,
        protocol=Protocol.ICMP,
        source_address=device if device is not None else parse_ip("192.168.1.2"),
        dest_address=hops[-1][0] if hops[-1][0] else 0,
        hops=tuple(TraceHop(address, rtt) for address, rtt in hops),
    )


def resolve(resolver, trace):
    """One trace resolved as a block of one, read back as the oracle's
    (hops, AS path, IXP sightings, access, router, USR-ISP, end-to-end)
    row."""
    block = resolver.resolve_many(trace_block_from_records([trace]))
    return block, block_rows(block)[0]


def rtr_isp(row):
    return max(0.0, row[5] - row[4])


class TestSyntheticResolution:
    def test_home_classification_and_segments(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        hops = [
            (parse_ip("192.168.1.1"), 11.0),          # home router
            (de_isp.prefixes[0].address_at(40), 21.0),  # ISP edge
            (gcp.prefixes[0].address_at(500), 30.0),   # cloud
        ]
        _, row = resolve(resolver, synthetic_trace(world, de_isp, hops))
        assert row[3] == "home"
        assert row[4] == 11.0
        assert row[5] == 21.0
        assert rtr_isp(row) == 10.0
        assert row[1] == (de_isp.asn, gcp.asn)

    def test_cell_classification(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        hops = [
            (de_isp.prefixes[0].address_at(41), 18.0),
            (gcp.prefixes[0].address_at(501), 29.0),
        ]
        device = de_isp.prefixes[0].address_at(9)
        _, row = resolve(
            resolver, synthetic_trace(world, de_isp, hops, device=device)
        )
        assert row[3] == "cell"
        assert row[4] is None
        assert row[5] == 18.0

    def test_unresponsive_first_hop_unclassified(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        hops = [
            (None, None),
            (gcp.prefixes[0].address_at(502), 35.0),
        ]
        _, row = resolve(resolver, synthetic_trace(world, de_isp, hops))
        assert row[3] is None

    def test_ixp_hops_removed_from_as_path(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        ixp = next(iter(world.topology.ixps))
        ixp.add_member(gcp.asn)
        hops = [
            (de_isp.prefixes[0].address_at(42), 15.0),
            (ixp.lan_address_for(gcp.asn), 17.0),
            (gcp.prefixes[0].address_at(503), 25.0),
        ]
        _, row = resolve(resolver, synthetic_trace(world, de_isp, hops))
        assert row[1] == (de_isp.asn, gcp.asn)
        assert row[2] == ((0, ixp.ixp_id),)

    def test_consecutive_hops_collapse(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        hops = [
            (de_isp.prefixes[0].address_at(50), 12.0),
            (de_isp.prefixes[0].address_at(51), 13.0),
            (gcp.prefixes[0].address_at(504), 24.0),
            (gcp.prefixes[0].address_at(505), 25.0),
        ]
        _, row = resolve(resolver, synthetic_trace(world, de_isp, hops))
        assert row[1] == (de_isp.asn, gcp.asn)

    def test_intermediate_asns(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        telia = world.topology.registry.get(1299)
        hops = [
            (de_isp.prefixes[0].address_at(60), 10.0),
            (telia.prefixes[0].address_at(60), 15.0),
            (gcp.prefixes[0].address_at(506), 26.0),
        ]
        block, row = resolve(resolver, synthetic_trace(world, de_isp, hops))
        assert row[1] == (de_isp.asn, telia.asn, gcp.asn)
        assert classify_traces(block).tolist() == [CATEGORIES.index(ONE_AS)]

    def test_intermediates_none_when_cloud_missing(self, world, resolver, de_isp):
        hops = [(de_isp.prefixes[0].address_at(61), 10.0)]
        block, row = resolve(resolver, synthetic_trace(world, de_isp, hops))
        gcp = world.topology.registry.cloud_for_provider("GCP")
        assert gcp.asn not in row[1]
        assert classify_traces(block).tolist() == [UNCLASSIFIED]

    def test_provider_hop_share(self, world, resolver, de_isp):
        gcp = world.topology.registry.cloud_for_provider("GCP")
        hops = [
            (de_isp.prefixes[0].address_at(70), 10.0),
            (gcp.prefixes[0].address_at(510), 20.0),
            (gcp.prefixes[0].address_at(511), 21.0),
            (gcp.prefixes[0].address_at(512), 22.0),
        ]
        block, _ = resolve(resolver, synthetic_trace(world, de_isp, hops))
        assert provider_hop_shares(block).tolist() == [pytest.approx(0.75)]


class TestDatasetResolution:
    def test_every_speedchecker_trace_resolves(self, world, dataset, resolved_traces):
        assert len(resolved_traces) == dataset.traceroute_count

    def test_home_cell_inference_matches_access_mostly(self, resolved_traces):
        speedchecker = resolved_traces.probe_column("platform") == "speedchecker"
        inferred = resolved_traces.inferred_access
        classified = speedchecker & (inferred >= 0)
        truth = np.where(
            resolved_traces.probe_column("access") == AccessKind.HOME_WIFI.value,
            INFERRED_ACCESS.index("home"),
            INFERRED_ACCESS.index("cell"),
        )
        agree = int((classified & (inferred == truth)).sum())
        wrong = int((classified & (inferred != truth)).sum())
        assert agree > 0
        # VPN/CGN artifacts cause a small, nonzero false-positive rate.
        assert wrong / (agree + wrong) < 0.10

    def test_last_mile_rtts_consistent(self, resolved_traces):
        samples = extract_last_mile(resolved_traces)
        wired = samples.latency_ms[samples.categories == HOME_RTR_ISP]
        assert wired.size and (wired >= 0.0).all()

    def test_as_paths_never_contain_private_hops(self, world, resolved_traces):
        registry = world.topology.registry
        for asn in set(resolved_traces.as_path_asns.tolist()):
            assert asn in registry

    def test_cymru_fallback_used_under_partial_rib(self, world, dataset):
        partial = TracerouteResolver(
            world.topology.registry,
            world.topology.ixps,
            rib_coverage=0.7,
            rng=world.rngs.fork("test-partial-rib", 0),
        )
        partial.resolve_many(next(dataset.iter_trace_blocks()))
        assert partial.cymru_query_count > 0
