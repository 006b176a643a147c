"""Each columnar trace analysis against its record-loop reference.

The shared 21-day 2% campaign is resolved twice: into one
``ResolvedTraceBlock`` by the study context, and record by record by the
reference resolver (``oracles.resolver``).  Every group-by over the
block must return what the matching record loop in
``oracles.trace_analysis`` returns over the records, in the same order.
"""

import math

import numpy as np

from oracles import trace_analysis as oracle

from repro.analysis.ingress import ingress_by_interconnect, ingress_depths
from repro.analysis.lastmile import (
    FIG9_COUNTRIES,
    absolute_by_continent,
    cv_by_continent,
    cv_by_country,
    extract_last_mile,
    per_probe_cv,
    share_by_continent,
    towards_nearest,
)
from repro.analysis.peering import (
    CATEGORIES,
    UNCLASSIFIED,
    classify_traces,
    isp_provider_matrix,
    latency_by_interconnect,
    provider_breakdowns,
)
from repro.analysis.pervasiveness import (
    pervasiveness_by_provider,
    provider_hop_shares,
)
from repro.analysis.protocols import protocol_comparison
from repro.cloud.providers import network_operator


def optional(values):
    return [None if math.isnan(value) else value for value in values.tolist()]


def items(mapping):
    return list(mapping.items())


class TestLastMile:
    def test_samples(self, resolved_traces, oracle_traces):
        samples = extract_last_mile(resolved_traces)
        expected = oracle.extract_last_mile(oracle_traces)
        assert len(samples) == len(expected) > 1000
        assert list(
            zip(
                samples.probe_ids.tolist(),
                samples.countries.tolist(),
                samples.continents.tolist(),
                samples.categories.tolist(),
                samples.latency_ms.tolist(),
                optional(samples.share_of_total),
            )
        ) == [
            (
                s.probe_id,
                s.country,
                s.continent.value,
                s.category,
                s.latency_ms,
                s.share_of_total,
            )
            for s in expected
        ]

    def test_figures(self, resolved_traces, oracle_traces):
        samples = extract_last_mile(resolved_traces)
        expected = oracle.extract_last_mile(oracle_traces)
        for new, old in (
            (share_by_continent, oracle.share_by_continent),
            (absolute_by_continent, oracle.absolute_by_continent),
            (cv_by_continent, oracle.cv_by_continent),
        ):
            assert items(new(samples)) == items(old(expected))
        assert items(cv_by_country(samples, FIG9_COUNTRIES)) == items(
            oracle.cv_by_country(expected, FIG9_COUNTRIES)
        )
        heads, cvs = per_probe_cv(samples)
        assert list(
            zip(samples.probe_ids[heads].tolist(), cvs.tolist())
        ) == [(s.probe_id, cv) for s, cv in oracle.per_probe_cv(expected)]

    def test_nearest_datacenter_share(self, context, resolved_traces, oracle_traces):
        nearest = context.nearest("speedchecker")
        keep = towards_nearest(resolved_traces, nearest)
        kept = oracle.filter_to_nearest(oracle_traces, nearest)
        assert 0 < keep.sum() == len(kept)
        samples = extract_last_mile(resolved_traces, keep=keep)
        expected = oracle.extract_last_mile(kept)
        assert items(share_by_continent(samples, min_samples=3)) == items(
            oracle.share_by_continent(expected, min_samples=3)
        )


class TestInterconnection:
    def test_classification(self, resolved_traces, oracle_traces):
        codes = classify_traces(resolved_traces).tolist()
        assert [
            None if code == UNCLASSIFIED else CATEGORIES[code] for code in codes
        ] == [oracle.classify_trace(trace) for trace in oracle_traces]
        assert set(range(len(CATEGORIES))) <= set(codes)

    def test_breakdowns_and_latency(self, resolved_traces, oracle_traces):
        assert provider_breakdowns(resolved_traces) == oracle.provider_breakdowns(
            oracle_traces
        )
        assert latency_by_interconnect(
            resolved_traces
        ) == oracle.latency_by_interconnect(oracle_traces)

    def test_isp_provider_matrix(self, world, resolved_traces, oracle_traces):
        registry = world.topology.registry
        found = 0
        for country in ("DE", "GB", "JP", "BR", "ZA"):
            cells = isp_provider_matrix(resolved_traces, country, registry)
            assert cells == oracle.isp_provider_matrix(
                oracle_traces, country, registry
            )
            found += len(cells)
        assert found

    def test_pervasiveness(self, resolved_traces, oracle_traces):
        assert optional(provider_hop_shares(resolved_traces)) == [
            trace.provider_hop_share(network_operator(trace.meta.provider_code).asn)
            for trace in oracle_traces
        ]
        assert pervasiveness_by_provider(
            resolved_traces
        ) == oracle.pervasiveness_by_provider(oracle_traces)

    def test_ingress(self, resolved_traces, oracle_traces):
        depths = ingress_depths(resolved_traces)
        assert not np.isnan(depths).all()
        assert optional(depths) == [
            oracle.ingress_depth(
                trace, network_operator(trace.meta.provider_code).asn
            )
            for trace in oracle_traces
        ]
        assert ingress_by_interconnect(
            resolved_traces
        ) == oracle.ingress_by_interconnect(oracle_traces)


class TestProtocols:
    def test_icmp_vs_tcp(self, dataset, resolved_traces, oracle_traces):
        result = protocol_comparison(dataset, resolved_traces)
        assert result
        assert result == oracle.protocol_comparison(dataset, oracle_traces)
