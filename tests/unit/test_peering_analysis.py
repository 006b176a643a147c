"""Tests for repro.analysis.peering classification."""

import pytest

from helpers import make_meta
from oracles import trace_analysis as oracle
from oracles.resolver import ResolvedTrace, block_from_resolved

from repro.analysis.peering import (
    CATEGORIES,
    DIRECT,
    ONE_AS,
    ONE_IXP,
    TWO_PLUS_AS,
    UNCLASSIFIED,
    classify_traces,
    isp_provider_matrix,
    latency_by_interconnect,
    provider_breakdowns,
    provider_network_asns,
)
from repro.measure.results import Protocol, TraceHop, TracerouteMeasurement

GCP_ASN = provider_network_asns()["GCP"]
ISP = 3320


def make_classified(
    as_path,
    ixp_after=(),
    provider_code="GCP",
    total=50.0,
    country="DE",
    isp_asn=ISP,
    reached=True,
):
    dest = 4242
    measurement = TracerouteMeasurement(
        meta=make_meta(
            probe_id=f"{country}-{isp_asn}",
            country=country,
            isp_asn=isp_asn,
            provider_code=provider_code,
            region_id=f"{provider_code}-region",
        ),
        protocol=Protocol.ICMP,
        source_address=1,
        dest_address=dest,
        hops=(TraceHop(dest if reached else 1, total),),
    )
    return ResolvedTrace(
        measurement=measurement,
        hops=(),
        as_path=tuple(as_path),
        ixp_after_index=tuple(ixp_after),
        inferred_access="home",
        router_rtt_ms=5.0,
        usr_isp_rtt_ms=15.0,
    )


def classify_trace(trace):
    """The category label of one trace, ``None`` when unclassified."""
    (code,) = classify_traces(block_from_resolved([trace])).tolist()
    label = None if code == UNCLASSIFIED else CATEGORIES[code]
    assert oracle.classify_trace(trace) == label
    return label


class TestClassifyTrace:
    def test_direct(self):
        assert classify_trace(make_classified([ISP, GCP_ASN])) == DIRECT

    def test_direct_with_visible_ixp(self):
        trace = make_classified([ISP, GCP_ASN], ixp_after=((0, 3),))
        assert classify_trace(trace) == ONE_IXP

    def test_one_intermediate(self):
        assert classify_trace(make_classified([ISP, 1299, GCP_ASN])) == ONE_AS

    def test_two_plus(self):
        trace = make_classified([ISP, 200000, 1299, GCP_ASN])
        assert classify_trace(trace) == TWO_PLUS_AS

    def test_unreached_unclassified(self):
        assert classify_trace(make_classified([ISP], reached=True)) is None

    def test_path_starting_at_cloud_without_isp_unclassified(self):
        assert classify_trace(make_classified([GCP_ASN, 1299])) is None

    def test_isp_after_cloud_is_direct(self):
        assert classify_trace(make_classified([GCP_ASN, ISP, GCP_ASN, ISP])) == DIRECT

    def test_last_cloud_and_first_isp_bound_the_intermediates(self):
        trace = make_classified([ISP, 1299, GCP_ASN, 3356, GCP_ASN])
        assert classify_trace(trace) == TWO_PLUS_AS

    def test_lightsail_mapped_to_amazon_network(self):
        amzn = provider_network_asns()["AMZN"]
        trace = make_classified([ISP, amzn], provider_code="LTSL")
        assert classify_trace(trace) == DIRECT

    def test_missing_isp_uses_first_observed_as(self):
        # First hops unresponsive: the path starts at a transit AS, which
        # is then treated as the serving side.  This mis-identification
        # (here: a carrier path looks direct) is a methodology artifact
        # the paper explicitly acknowledges in section 6.1.
        trace = make_classified([1299, GCP_ASN])
        assert classify_trace(trace) == DIRECT


class TestProviderBreakdowns:
    def test_shares_sum_to_one(self):
        traces = (
            [make_classified([ISP, GCP_ASN])] * 6
            + [make_classified([ISP, 1299, GCP_ASN])] * 3
            + [make_classified([ISP, 200000, 1299, GCP_ASN])] * 1
        )
        breakdowns = provider_breakdowns(block_from_resolved(traces), min_paths=5)
        assert len(breakdowns) == 1
        entry = breakdowns[0]
        assert entry.provider_code == "GCP"
        assert entry.direct_share == pytest.approx(0.6)
        assert entry.one_as_share == pytest.approx(0.3)
        assert entry.two_plus_share == pytest.approx(0.1)

    def test_ixp_folded_into_direct(self):
        traces = [make_classified([ISP, GCP_ASN], ixp_after=((0, 1),))] * 10
        entry = provider_breakdowns(block_from_resolved(traces), min_paths=5)[0]
        assert entry.direct_share == 1.0

    def test_min_paths_filter(self):
        traces = [make_classified([ISP, GCP_ASN])] * 3
        assert provider_breakdowns(block_from_resolved(traces), min_paths=5) == []


class TestIspProviderMatrix:
    def test_top_isps_by_volume(self, world):
        traces = (
            [make_classified([3320, GCP_ASN], isp_asn=3320)] * 5
            + [make_classified([3209, 1299, GCP_ASN], isp_asn=3209)] * 9
        )
        cells = isp_provider_matrix(
            block_from_resolved(traces),
            "DE",
            world.topology.registry,
            top_isps=1,
            min_paths=2,
        )
        assert all(cell.isp_asn == 3209 for cell in cells)
        assert cells[0].dominant_category == ONE_AS

    def test_dominant_ties_go_to_the_first_seen_category(self, world):
        traces = [make_classified([ISP, 1299, GCP_ASN])] * 2 + [
            make_classified([ISP, GCP_ASN])
        ] * 2
        (cell,) = isp_provider_matrix(
            block_from_resolved(traces), "DE", world.topology.registry, min_paths=2
        )
        assert cell.dominant_category == ONE_AS
        assert [cell] == oracle.isp_provider_matrix(
            traces, "DE", world.topology.registry, min_paths=2
        )

    def test_other_countries_excluded(self, world):
        traces = [make_classified([ISP, GCP_ASN], country="FR")]
        assert (
            isp_provider_matrix(
                block_from_resolved(traces), "DE", world.topology.registry
            )
            == []
        )


class TestLatencyByInterconnect:
    def test_grouping(self):
        traces = (
            [make_classified([ISP, GCP_ASN], total=40.0)] * 25
            + [make_classified([ISP, 1299, GCP_ASN], total=60.0)] * 25
        )
        results = latency_by_interconnect(
            block_from_resolved(traces), min_measurements=20
        )
        assert len(results) == 1
        entry = results[0]
        assert entry.direct.median == pytest.approx(40.0)
        assert entry.intermediate.median == pytest.approx(60.0)

    def test_thin_groups_dropped(self):
        traces = [make_classified([ISP, GCP_ASN], total=40.0)] * 5
        assert (
            latency_by_interconnect(block_from_resolved(traces), min_measurements=20)
            == []
        )


class TestMatchesRecordLoop:
    """The group-bys against the record-loop references, order included."""

    def traces(self):
        amzn = provider_network_asns()["AMZN"]
        kinds = [
            make_classified([3320, GCP_ASN], isp_asn=3320, total=41.0),
            make_classified([3320, 1299, GCP_ASN], isp_asn=3320, total=55.0),
            make_classified([3209, GCP_ASN], ixp_after=((0, 2),), isp_asn=3209),
            make_classified([3209, 1299, 3356, GCP_ASN], isp_asn=3209, total=70.0),
            make_classified([3209, amzn], isp_asn=3209, provider_code="LTSL"),
            make_classified([6805, 1299, amzn], isp_asn=6805, provider_code="AMZN"),
            make_classified([6805], isp_asn=6805),
            make_classified([3320, GCP_ASN], isp_asn=3320, reached=False),
            make_classified([1299, GCP_ASN], country="FR", isp_asn=5410),
        ]
        # Ties between categories and between ISP volumes, seen in an
        # order that differs from the category order.
        return [kinds[(7 * i) % len(kinds)] for i in range(40)] + kinds[3:5]

    def test_provider_breakdowns(self):
        traces = self.traces()
        assert provider_breakdowns(
            block_from_resolved(traces), min_paths=1
        ) == oracle.provider_breakdowns(traces, min_paths=1)

    def test_isp_provider_matrix(self, world):
        traces = self.traces()
        for top_isps in (1, 2, 5):
            assert isp_provider_matrix(
                block_from_resolved(traces),
                "DE",
                world.topology.registry,
                top_isps=top_isps,
                min_paths=1,
            ) == oracle.isp_provider_matrix(
                traces, "DE", world.topology.registry, top_isps=top_isps, min_paths=1
            )

    def test_latency_by_interconnect(self):
        traces = self.traces()
        assert latency_by_interconnect(
            block_from_resolved(traces), min_measurements=1
        ) == oracle.latency_by_interconnect(traces, min_measurements=1)
