"""Tests for repro.measure.results."""

import dataclasses

import numpy as np
import pytest

from repro.cloud.regions import CloudRegion
from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.lastmile.base import AccessKind
from repro.measure.campaign import resume_campaign, run_campaign_checkpointed
from repro.measure.results import (
    MeasurementDataset,
    MeasurementMeta,
    PingBlock,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    dataset_pings,
)
from repro.platforms.probe import Probe


def make_meta(platform="speedchecker", country="DE", provider="GCP"):
    return MeasurementMeta(
        probe_id="p1",
        platform=platform,
        country=country,
        continent=Continent.EU,
        access=AccessKind.HOME_WIFI,
        isp_asn=3320,
        provider_code=provider,
        region_id="frankfurt-1",
        region_country="DE",
        region_continent=Continent.EU,
        day=0,
        city_key=(50, 8),
    )


def make_ping(samples=(10.0, 12.0, 11.0), **kwargs):
    return PingMeasurement(
        meta=make_meta(**kwargs), protocol=Protocol.TCP, samples=tuple(samples)
    )


def make_trace(reached=True, **kwargs):
    dest = 1000
    hops = (
        TraceHop(5, 3.0),
        TraceHop(None, None),
        TraceHop(dest if reached else 7, 20.0),
    )
    return TracerouteMeasurement(
        meta=make_meta(**kwargs),
        protocol=Protocol.ICMP,
        source_address=1,
        dest_address=dest,
        hops=hops,
    )


class TestPingMeasurement:
    def test_min(self):
        assert make_ping().min_rtt_ms == 10.0

    def test_median_odd(self):
        assert make_ping((3.0, 1.0, 2.0)).median_rtt_ms == 2.0

    def test_median_even(self):
        assert make_ping((1.0, 2.0, 3.0, 4.0)).median_rtt_ms == 2.5


class TestTracerouteMeasurement:
    def test_reached(self):
        assert make_trace(reached=True).reached
        assert not make_trace(reached=False).reached

    def test_end_to_end_rtt(self):
        assert make_trace(reached=True).end_to_end_rtt_ms == 20.0
        assert make_trace(reached=False).end_to_end_rtt_ms is None

    def test_hop_responded(self):
        trace = make_trace()
        assert trace.hops[0].responded
        assert not trace.hops[1].responded


class TestMeasurementDataset:
    def test_counts(self):
        dataset = MeasurementDataset()
        dataset.add_ping(make_ping())
        dataset.add_ping(make_ping())
        dataset.add_traceroute(make_trace())
        assert dataset.ping_count == 2
        assert dataset.traceroute_count == 1
        assert dataset.ping_sample_count == 6

    def test_platform_filter(self):
        dataset = MeasurementDataset()
        dataset.add_ping(make_ping(platform="speedchecker"))
        dataset.add_ping(make_ping(platform="atlas"))
        assert len(list(dataset.pings(platform="atlas"))) == 1

    def test_protocol_filter(self):
        dataset = MeasurementDataset()
        dataset.add_ping(make_ping())
        assert len(list(dataset.pings(protocol=Protocol.ICMP))) == 0
        assert len(list(dataset.pings(protocol="tcp"))) == 1

    def test_predicate_filter(self):
        dataset = MeasurementDataset()
        dataset.add_ping(make_ping(country="DE"))
        dataset.add_ping(make_ping(country="FR"))
        filtered = list(dataset.pings(predicate=lambda m: m.meta.country == "FR"))
        assert len(filtered) == 1

    def test_traceroute_filters(self):
        dataset = MeasurementDataset()
        dataset.add_traceroute(make_trace(platform="atlas"))
        assert len(list(dataset.traceroutes(platform="atlas"))) == 1
        assert len(list(dataset.traceroutes(platform="speedchecker"))) == 0
        assert len(list(dataset.traceroutes(protocol=Protocol.ICMP))) == 1

    def test_extend(self):
        a = MeasurementDataset()
        a.add_ping(make_ping())
        b = MeasurementDataset()
        b.add_ping(make_ping())
        b.add_traceroute(make_trace())
        a.extend(b)
        assert a.ping_count == 2
        assert a.traceroute_count == 1

    def test_repr(self):
        assert "pings=0" in repr(MeasurementDataset())


def make_probe(probe_id="p1", country="DE"):
    return Probe(
        probe_id=probe_id,
        platform="speedchecker",
        country=country,
        continent=Continent.EU,
        location=GeoPoint(50.1, 8.7),
        isp_asn=3320,
        access=AccessKind.HOME_WIFI,
        device_address=10,
        public_address=20,
    )


def make_region(region_id="frankfurt-1"):
    return CloudRegion(
        provider_code="GCP",
        region_id=region_id,
        city="Frankfurt",
        country="DE",
        continent=Continent.EU,
        location=GeoPoint(50.1, 8.7),
    )


def make_block(requests=2, samples_per_request=3):
    """A small synthetic block: one probe, one region, ragged samples."""
    probe, region = make_probe(), make_region()
    counts = [samples_per_request + i for i in range(requests)]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return PingBlock(
        probes=[probe],
        regions=[region],
        probe_codes=np.zeros(requests, np.int32),
        region_codes=np.zeros(requests, np.int32),
        days=np.arange(requests, dtype=np.int32),
        protocol_codes=np.zeros(requests, np.uint8),
        sample_values=np.arange(offsets[-1], dtype=np.float64) + 10.0,
        sample_offsets=offsets,
    )


class TestPingBlock:
    def test_len_and_sample_count(self):
        block = make_block(requests=2, samples_per_request=3)
        assert len(block) == 2
        assert block.sample_count == 7  # 3 + 4 ragged samples

    def test_record_view(self):
        block = make_block(requests=2, samples_per_request=3)
        first = block.record(0)
        second = block.record(1)
        assert isinstance(first, PingMeasurement)
        assert first.samples == (10.0, 11.0, 12.0)
        assert second.samples == (13.0, 14.0, 15.0, 16.0)
        assert first.meta.probe_id == "p1"
        assert first.meta.day == 0 and second.meta.day == 1
        assert first.protocol is Protocol.TCP

    def test_records_cached(self):
        block = make_block()
        assert block.records() is block.records()

    def test_offsets_length_validated(self):
        with pytest.raises(ValueError, match="sample_offsets"):
            PingBlock(
                probes=[make_probe()],
                regions=[make_region()],
                probe_codes=np.zeros(2, np.int32),
                region_codes=np.zeros(2, np.int32),
                days=np.zeros(2, np.int32),
                protocol_codes=np.zeros(2, np.uint8),
                sample_values=np.zeros(4),
                sample_offsets=np.array([0, 2]),
            )


class TestColumnarPingStore:
    """The dataset's columnar ping backing: its list of ping blocks."""

    def test_append_and_counts(self):
        dataset = MeasurementDataset()
        dataset.add_ping_block(make_block(requests=2, samples_per_request=3))
        dataset.add_ping_block(make_block(requests=1, samples_per_request=2))
        assert dataset.ping_count == 3
        assert dataset.ping_sample_count == 7 + 2
        assert len(list(dataset.pings())) == 3

    def test_append_block_keeps_blocks_apart(self):
        dataset = MeasurementDataset()
        dataset.add_ping_block(make_block(requests=1))
        dataset.add_ping_block(make_block(requests=2))
        assert dataset.ping_count == 3
        assert [len(block) for block in dataset.ping_blocks()] == [1, 2]


class TestBlockBackedDataset:
    def test_block_and_scalar_pings_merge(self):
        dataset = MeasurementDataset()
        dataset.add_ping(make_ping())
        dataset.add_ping_block(make_block(requests=2, samples_per_request=3))
        assert dataset.ping_count == 3
        assert dataset.ping_sample_count == 3 + 7
        records = list(dataset.pings())
        assert len(records) == 3
        assert all(isinstance(r, PingMeasurement) for r in records)

    def test_filters_apply_to_block_records(self):
        dataset = MeasurementDataset()
        dataset.add_ping_block(make_block(requests=2))
        assert len(list(dataset.pings(platform="speedchecker"))) == 2
        assert len(list(dataset.pings(platform="atlas"))) == 0
        assert len(list(dataset.pings(protocol=Protocol.ICMP))) == 0
        assert (
            len(list(dataset.pings(predicate=lambda m: m.meta.day == 1))) == 1
        )

    def test_extend_carries_blocks(self):
        a, b = MeasurementDataset(), MeasurementDataset()
        b.add_ping_block(make_block(requests=2))
        a.extend(b)
        assert a.ping_count == 2
        assert sum(len(block) for block in a.ping_blocks()) == 2


class TestPingsView:
    """``dataset_pings`` builds its view once per dataset revision."""

    def test_view_is_shared_until_the_dataset_changes(self):
        dataset = MeasurementDataset()
        dataset.add_ping_block(make_block(requests=2))
        view = dataset_pings(dataset)
        assert dataset_pings(dataset) is view
        dataset.add_ping(
            PingMeasurement(
                meta=dataclasses.replace(make_meta(), city_key=(25, 4)),
                protocol=Protocol.TCP,
                samples=(10.0,),
            )
        )
        grown = dataset_pings(dataset)
        assert grown is not view and len(grown) == 3
        dataset.add_ping_block(make_block(requests=1))
        assert len(dataset_pings(dataset)) == 4
        other = MeasurementDataset()
        other.add_ping_block(make_block(requests=2))
        before = dataset_pings(dataset)
        dataset.extend(other)
        assert dataset_pings(dataset) is not before
        assert len(dataset_pings(dataset)) == 6

    def test_view_arrays_are_read_only_and_the_blocks_are_not(self):
        dataset = MeasurementDataset()
        block = make_block(requests=2)
        dataset.add_ping_block(block)
        view = dataset_pings(dataset)
        with pytest.raises(ValueError):
            view.sample_values[0] = 1.0
        with pytest.raises(ValueError):
            view.days[0] = 1
        block.sample_values[0] = 99.0
        assert view.sample_values[0] == 99.0

    def test_stored_view_follows_the_journal(self, world, store_run_dir):
        store = run_campaign_checkpointed(world, store_run_dir, days=2, max_units=1)
        dataset = store.dataset()
        view = dataset_pings(dataset)
        assert dataset_pings(dataset) is view
        assert len(view) == dataset.ping_count
        resume_campaign(world, store_run_dir)
        grown = dataset_pings(dataset)
        assert grown is not view
        assert len(grown) == dataset.ping_count > len(view)
