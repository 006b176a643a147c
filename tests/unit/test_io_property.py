"""Property-based round-trip tests for dataset serialization."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import dataset_of, pings, traceroutes

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.io import load_dataset, save_dataset
from repro.measure.results import (
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
)
from repro.platforms.probe import CITY_CELL_DEGREES

#: The largest city-key components a valid location quantizes to.
LAT_CELLS = round(90 / CITY_CELL_DEGREES)
LON_CELLS = round(180 / CITY_CELL_DEGREES)

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
rtts = st.floats(min_value=0.001, max_value=10_000.0, allow_nan=False)

metas = st.builds(
    MeasurementMeta,
    probe_id=identifiers,
    platform=st.sampled_from(["speedchecker", "atlas"]),
    country=st.sampled_from(["DE", "JP", "BR", "ZA"]),
    continent=st.sampled_from(list(Continent)),
    access=st.sampled_from(list(AccessKind)),
    isp_asn=st.integers(min_value=1, max_value=2**31),
    provider_code=st.sampled_from(["GCP", "AMZN", "VLTR"]),
    region_id=identifiers,
    region_country=st.sampled_from(["DE", "IN", "US"]),
    region_continent=st.sampled_from(list(Continent)),
    day=st.integers(min_value=0, max_value=365),
    city_key=st.tuples(
        st.integers(min_value=-LAT_CELLS, max_value=LAT_CELLS),
        st.integers(min_value=-LON_CELLS, max_value=LON_CELLS),
    ),
)

ping_records = st.builds(
    PingMeasurement,
    meta=metas,
    protocol=st.sampled_from(list(Protocol)),
    samples=st.lists(rtts, min_size=1, max_size=8).map(tuple),
)

hops = st.one_of(
    st.builds(TraceHop, address=st.none(), rtt_ms=st.none()),
    st.builds(
        TraceHop,
        address=st.integers(min_value=0, max_value=2**32 - 1),
        rtt_ms=rtts,
    ),
)

trace_records = st.builds(
    TracerouteMeasurement,
    meta=metas,
    protocol=st.sampled_from(list(Protocol)),
    source_address=st.integers(min_value=0, max_value=2**32 - 1),
    dest_address=st.integers(min_value=0, max_value=2**32 - 1),
    hops=st.lists(hops, min_size=1, max_size=10).map(tuple),
)


@given(
    ping_list=st.lists(ping_records, max_size=10),
    trace_list=st.lists(trace_records, max_size=6),
)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_roundtrip_preserves_every_record(ping_list, trace_list):
    dataset = dataset_of(*ping_list, *trace_list)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
    assert list(pings(loaded)) == ping_list
    assert list(traceroutes(loaded)) == trace_list
