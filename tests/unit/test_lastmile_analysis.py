"""Tests for repro.analysis.lastmile over hand-crafted resolved traces."""

import numpy as np
import pytest

from helpers import make_meta
from oracles import trace_analysis as oracle
from oracles.resolver import ResolvedTrace, block_from_resolved

from repro.analysis.lastmile import (
    ATLAS,
    CELL,
    HOME_RTR_ISP,
    HOME_USR_ISP,
    absolute_by_continent,
    cv_by_continent,
    cv_by_country,
    extract_last_mile,
    per_probe_cv,
    share_by_continent,
    towards_nearest,
)
from repro.analysis.nearest import NearestMap
from repro.geo.continents import Continent
from repro.measure.results import Protocol, TraceHop, TracerouteMeasurement


def make_resolved(
    probe_id="p1",
    platform="speedchecker",
    inferred="home",
    router_rtt=10.0,
    usr_isp_rtt=25.0,
    total=100.0,
    country="DE",
    continent=Continent.EU,
    region_id="fra",
):
    dest = 999
    reached = total is not None
    measurement = TracerouteMeasurement(
        meta=make_meta(
            probe_id=probe_id,
            platform=platform,
            country=country,
            continent=continent,
            region_id=region_id,
        ),
        protocol=Protocol.ICMP,
        source_address=1,
        dest_address=dest,
        hops=(TraceHop(dest if reached else 1, total),),
    )
    return ResolvedTrace(
        measurement=measurement,
        hops=(),
        as_path=(),
        ixp_after_index=(),
        inferred_access=inferred,
        router_rtt_ms=router_rtt,
        usr_isp_rtt_ms=usr_isp_rtt,
    )


def extract(traces):
    return extract_last_mile(block_from_resolved(traces))


def categories(samples):
    return samples.categories.tolist()


class TestExtractLastMile:
    def test_home_contributes_two_series(self):
        assert categories(extract([make_resolved()])) == [HOME_USR_ISP, HOME_RTR_ISP]

    def test_rtr_isp_is_wire_segment(self):
        samples = extract([make_resolved(router_rtt=10.0, usr_isp_rtt=25.0)])
        rtr = samples.latency_ms[samples.categories == HOME_RTR_ISP]
        assert rtr.tolist() == [pytest.approx(15.0)]

    def test_rtr_isp_never_negative(self):
        samples = extract([make_resolved(router_rtt=30.0, usr_isp_rtt=25.0)])
        assert samples.latency_ms[samples.categories == HOME_RTR_ISP].tolist() == [0.0]

    def test_cell_single_series(self):
        samples = extract([make_resolved(inferred="cell", router_rtt=None)])
        assert categories(samples) == [CELL]

    def test_atlas_series(self):
        samples = extract(
            [make_resolved(platform="atlas", inferred=None, router_rtt=None)]
        )
        assert categories(samples) == [ATLAS]

    def test_unclassified_skipped(self):
        assert len(extract([make_resolved(inferred=None, router_rtt=None)])) == 0

    def test_missing_isp_hop_skipped(self):
        assert len(extract([make_resolved(usr_isp_rtt=None)])) == 0

    def test_share_computed(self):
        samples = extract([make_resolved(usr_isp_rtt=25.0, total=100.0)])
        usr = samples.share_of_total[samples.categories == HOME_USR_ISP]
        assert usr.tolist() == [pytest.approx(0.25)]

    def test_no_share_without_total(self):
        for total in (None, 0.0):
            samples = extract([make_resolved(total=total)])
            assert np.isnan(samples.share_of_total).all()

    def test_keep_mask_drops_traces(self):
        block = block_from_resolved([make_resolved(), make_resolved(probe_id="p2")])
        samples = extract_last_mile(block, keep=np.array([False, True]))
        assert set(samples.probe_ids.tolist()) == {"p2"}


def make_many():
    traces = []
    for i in range(8):
        traces.append(make_resolved(probe_id="home-probe", usr_isp_rtt=20.0 + i))
        traces.append(
            make_resolved(
                probe_id="cell-probe",
                inferred="cell",
                router_rtt=None,
                usr_isp_rtt=22.0 + (i % 3),
            )
        )
    return traces


class TestAggregations:
    def test_share_by_continent(self):
        stats = share_by_continent(extract(make_many()))
        assert (Continent.EU, HOME_USR_ISP) in stats
        box = stats[(Continent.EU, HOME_USR_ISP)]
        assert 15.0 <= box.median <= 30.0  # percent

    def test_absolute_by_continent(self):
        stats = absolute_by_continent(extract(make_many()))
        box = stats[(Continent.EU, CELL)]
        assert 21.0 <= box.median <= 26.0

    def test_per_probe_cv_requires_min_samples(self):
        samples = extract(make_many())
        heads, cvs = per_probe_cv(samples, min_samples=100)
        assert len(heads) == len(cvs) == 0
        heads, _ = per_probe_cv(samples, min_samples=5)
        assert set(samples.probe_ids[heads].tolist()) == {"home-probe", "cell-probe"}

    def test_cv_by_continent(self):
        stats = cv_by_continent(extract(make_many()), min_samples=5, min_probes=1)
        assert (Continent.EU, HOME_USR_ISP) in stats
        assert stats[(Continent.EU, HOME_USR_ISP)].median < 1.0

    def test_cv_by_country_filters(self):
        stats = cv_by_country(
            extract(make_many()),
            countries=("DE",),
            min_samples=5,
            min_probes=1,
        )
        assert stats and all(country == "DE" for country, _ in stats)
        assert cv_by_country(
            extract(make_many()),
            countries=("JP",),
            min_samples=5,
            min_probes=1,
        ) == {}


class TestMatchesRecordLoop:
    """The group-bys against the record-loop references, order included."""

    def traces(self):
        mixed = [
            make_resolved(probe_id="atlas-1", platform="atlas", inferred=None),
            make_resolved(probe_id="fr-1", country="FR", total=None),
            make_resolved(probe_id="jp-1", country="JP", continent=Continent.AS),
            make_resolved(probe_id="de-2", router_rtt=40.0, total=0.0),
            make_resolved(probe_id="none", inferred=None, router_rtt=None),
        ]
        return [trace for i in range(6) for trace in mixed + make_many()[i::6]]

    def test_extract_last_mile(self):
        traces = self.traces()
        samples = extract(traces)
        expected = oracle.extract_last_mile(traces)
        assert [
            (s.probe_id, s.country, s.continent.value, s.category, s.latency_ms)
            for s in expected
        ] == list(
            zip(
                samples.probe_ids.tolist(),
                samples.countries.tolist(),
                samples.continents.tolist(),
                samples.categories.tolist(),
                samples.latency_ms.tolist(),
            )
        )
        assert [s.share_of_total for s in expected] == [
            None if np.isnan(share) else share
            for share in samples.share_of_total.tolist()
        ]

    def test_aggregations(self):
        traces = self.traces()
        samples = extract(traces)
        expected = oracle.extract_last_mile(traces)
        for new, old in (
            (share_by_continent, oracle.share_by_continent),
            (absolute_by_continent, oracle.absolute_by_continent),
        ):
            assert list(new(samples, min_samples=1).items()) == list(
                old(expected, min_samples=1).items()
            )
        kwargs = dict(min_samples=2, min_probes=1)
        assert list(cv_by_continent(samples, **kwargs).items()) == list(
            oracle.cv_by_continent(expected, **kwargs).items()
        )
        countries = ("DE", "JP", "FR")
        assert list(cv_by_country(samples, countries, **kwargs).items()) == list(
            oracle.cv_by_country(expected, countries, **kwargs).items()
        )
        heads, cvs = per_probe_cv(samples, min_samples=2)
        assert [
            (sample.probe_id, sample.category, cv)
            for sample, cv in oracle.per_probe_cv(expected, min_samples=2)
        ] == list(
            zip(
                samples.probe_ids[heads].tolist(),
                samples.categories[heads].tolist(),
                cvs.tolist(),
            )
        )


class TestFilterToNearest:
    def test_keeps_only_nearest_region(self):
        traces = [
            make_resolved(region_id="fra"),
            make_resolved(region_id="lon"),
        ]
        nearest = NearestMap({"p1": ("GCP", "fra")})
        assert towards_nearest(block_from_resolved(traces), nearest).tolist() == [
            True,
            False,
        ]
        assert [
            trace.meta.region_id
            for trace in oracle.filter_to_nearest(traces, nearest)
        ] == ["fra"]

    def test_probe_without_nearest_region(self):
        block = block_from_resolved([make_resolved(probe_id="p9")])
        assert towards_nearest(block, NearestMap({})).tolist() == [False]
