"""Tests for repro.analysis.protocols (ICMP vs TCP comparison)."""

import pytest

from helpers import dataset_of, make_meta, make_ping
from oracles import trace_analysis as oracle
from oracles.resolver import ResolvedTrace, block_from_resolved

from repro.analysis.protocols import protocol_comparison
from repro.geo.continents import Continent
from repro.measure.results import Protocol, TraceHop, TracerouteMeasurement


def make_icmp_trace(rtt, **meta_kwargs):
    dest = 777
    measurement = TracerouteMeasurement(
        meta=make_meta(**meta_kwargs),
        protocol=Protocol.ICMP,
        source_address=1,
        dest_address=dest,
        hops=(TraceHop(dest, rtt),),
    )
    return ResolvedTrace(
        measurement=measurement,
        hops=(),
        as_path=(),
        ixp_after_index=(),
        inferred_access="home",
        router_rtt_ms=None,
        usr_isp_rtt_ms=None,
    )


def compare(dataset, traces, **kwargs):
    result = protocol_comparison(dataset, block_from_resolved(traces), **kwargs)
    assert result == oracle.protocol_comparison(dataset, traces, **kwargs)
    return result


class TestProtocolComparison:
    def test_per_pair_medians(self):
        dataset = dataset_of(
            make_ping([40.0, 41.0, 42.0, 43.0]),
        )
        traces = [make_icmp_trace(rtt) for rtt in (44.0, 45.0, 46.0, 47.0)]
        result = compare(dataset, traces, min_samples_per_pair=4)
        eu = result[Continent.EU]
        assert eu.pair_count == 1
        assert eu.icmp.median > eu.tcp.median
        assert eu.median_relative_gap == pytest.approx(
            (45.5 - 41.5) / 41.5, rel=1e-6
        )

    def test_pairs_need_both_protocols(self):
        dataset = dataset_of(make_ping([40.0] * 4))
        assert compare(dataset, [], min_samples_per_pair=2) == {}

    def test_min_samples_per_pair(self):
        dataset = dataset_of(make_ping([40.0]))
        traces = [make_icmp_trace(44.0)]
        assert compare(dataset, traces, min_samples_per_pair=4) == {}

    def test_unreached_traces_ignored(self):
        dataset = dataset_of(make_ping([40.0] * 4))
        dest = 777
        unreached = make_icmp_trace(44.0)
        bad = ResolvedTrace(
            measurement=TracerouteMeasurement(
                meta=make_meta(),
                protocol=Protocol.ICMP,
                source_address=1,
                dest_address=dest,
                hops=(TraceHop(1, 44.0),),  # never reaches dest
            ),
            hops=(),
            as_path=(),
            ixp_after_index=(),
            inferred_access=None,
            router_rtt_ms=None,
            usr_isp_rtt_ms=None,
        )
        result = compare(dataset, [bad], min_samples_per_pair=1)
        assert result == {}

    def test_atlas_traces_not_mixed_into_speedchecker(self):
        dataset = dataset_of(make_ping([40.0] * 4))
        traces = [
            make_icmp_trace(44.0, probe_id="a1", platform="atlas") for _ in range(4)
        ]
        assert compare(dataset, traces, min_samples_per_pair=2) == {}

    def test_tcp_traces_and_other_probes_ignored(self):
        dataset = dataset_of(make_ping([40.0] * 4))
        tcp = make_icmp_trace(44.0)
        tcp = ResolvedTrace(
            measurement=TracerouteMeasurement(
                meta=tcp.meta,
                protocol=Protocol.TCP,
                source_address=1,
                dest_address=777,
                hops=(TraceHop(777, 44.0),),
            ),
            hops=(),
            as_path=(),
            ixp_after_index=(),
            inferred_access=None,
            router_rtt_ms=None,
            usr_isp_rtt_ms=None,
        )
        other_probe = [make_icmp_trace(50.0, probe_id="p2") for _ in range(4)]
        assert compare(dataset, [tcp] * 4 + other_probe, min_samples_per_pair=2) == {}
