"""Tests for repro.analysis.pervasiveness."""

import pytest

from helpers import make_meta
from oracles import trace_analysis as oracle
from oracles.resolver import ResolvedHop, ResolvedTrace, block_from_resolved

from repro.analysis.peering import provider_network_asns
from repro.analysis.pervasiveness import (
    overall_pervasiveness,
    pervasiveness_by_provider,
)
from repro.geo.continents import Continent
from repro.measure.results import Protocol, TraceHop, TracerouteMeasurement

GCP_ASN = provider_network_asns()["GCP"]


def make_trace_with_hops(owned, total, provider_code="GCP", continent=Continent.EU):
    hops = []
    for index in range(total):
        asn = GCP_ASN if index < owned else 3320
        hops.append(
            ResolvedHop(
                address=1000 + index,
                rtt_ms=float(index),
                asn=asn,
                is_private=False,
                ixp_id=None,
                resolved_by="pyasn",
            )
        )
    dest = 4242
    measurement = TracerouteMeasurement(
        meta=make_meta(
            probe_id=f"probe-{continent.value}",
            provider_code=provider_code,
            continent=continent,
        ),
        protocol=Protocol.ICMP,
        source_address=1,
        dest_address=dest,
        hops=(TraceHop(dest, 10.0),),
    )
    return ResolvedTrace(
        measurement=measurement,
        hops=tuple(hops),
        as_path=(3320, GCP_ASN),
        ixp_after_index=(),
        inferred_access="home",
        router_rtt_ms=None,
        usr_isp_rtt_ms=None,
    )


def pervasiveness(traces, min_traces):
    entries = pervasiveness_by_provider(
        block_from_resolved(traces), min_traces=min_traces
    )
    assert entries == oracle.pervasiveness_by_provider(traces, min_traces=min_traces)
    return entries


class TestPervasiveness:
    def test_mean_share(self):
        traces = [make_trace_with_hops(6, 10)] * 8
        entries = pervasiveness(traces, min_traces=5)
        assert len(entries) == 1
        assert entries[0].mean_share == pytest.approx(0.6)
        assert entries[0].median_share == pytest.approx(0.6)

    def test_min_traces_filter(self):
        traces = [make_trace_with_hops(6, 10)] * 2
        assert pervasiveness(traces, min_traces=5) == []

    def test_groups_by_continent(self):
        traces = [make_trace_with_hops(6, 10)] * 5 + [
            make_trace_with_hops(2, 10, continent=Continent.AS)
        ] * 5
        entries = pervasiveness(traces, min_traces=5)
        by_continent = {entry.continent: entry.mean_share for entry in entries}
        assert by_continent[Continent.EU] == pytest.approx(0.6)
        assert by_continent[Continent.AS] == pytest.approx(0.2)

    def test_overall_is_trace_weighted(self):
        traces = [make_trace_with_hops(6, 10)] * 10 + [
            make_trace_with_hops(0, 10, continent=Continent.AS)
        ] * 30
        entries = pervasiveness(traces, min_traces=5)
        overall = overall_pervasiveness(entries)
        assert overall["GCP"] == pytest.approx(0.15)

    def test_empty_hop_traces_skipped(self):
        trace = make_trace_with_hops(0, 0)
        assert pervasiveness([trace] * 10, min_traces=1) == []

    def test_silent_and_foreign_hops_count_in_the_path_length(self):
        trace = make_trace_with_hops(3, 6)
        silent = ResolvedHop(None, None, None, False, None, "none")
        private = ResolvedHop(1, 1.0, None, True, None, "private")
        mixed = ResolvedTrace(
            measurement=trace.measurement,
            hops=(silent, private) + trace.hops + (silent,),
            as_path=trace.as_path,
            ixp_after_index=(),
            inferred_access="home",
            router_rtt_ms=None,
            usr_isp_rtt_ms=None,
        )
        (entry,) = pervasiveness([mixed] * 5, min_traces=5)
        assert entry.mean_share == pytest.approx(3 / 7)
