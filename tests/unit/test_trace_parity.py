"""Columnar traceroutes equal the record path they replaced.

The engine's :func:`~repro.measure.batch.execute_traceroute_batch`
builds a :class:`~repro.measure.results.TraceBlock` straight from hop
columns; ``tests/oracles/traceroute.py`` keeps the per-record builder
it replaced.  From the same generator state both must give the same
columns, the same probe/region objects and the same final generator
state -- and the fault wrappers that now rewrite blocks must agree with
their per-record predecessors, so every store byte stays the same.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import traceroute as reference

from repro import build_world
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.lastmile.base import AccessKind
from repro.measure.batch import execute_traceroute_batch
from repro.measure.campaign import _checkpoint_engine
from repro.measure.engine import MeasurementEngine
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.pathpolicy import FailoverPathPolicy
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import (
    PingBlock,
    Protocol,
    TraceBlock,
    trace_block_from_records,
)
from repro.netfaults import NetfaultEngine, NetworkFaultConfig, NetworkFaultPlan

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Config overrides that pin the engine's two probability knobs at their
#: extremes (``None`` keeps the defaults).
OVERRIDES = {
    "defaults": None,
    "all-hops-answer": ("path_model", "hop_unresponsive_probability", 0.0),
    "all-hops-silent": ("path_model", "hop_unresponsive_probability", 1.0),
    "never-switch": ("last_mile", "access_switch_probability", 0.0),
    "always-switch": ("last_mile", "access_switch_probability", 1.0),
}


@pytest.fixture(scope="module")
def world():
    return build_world(seed=23, scale=0.01)


def _probe_pool(world):
    """Speedchecker probes of every access kind, then Atlas probes."""
    by_access = {}
    for probe in world.speedchecker.probes:
        by_access.setdefault(probe.access, [])
        if len(by_access[probe.access]) < 4:
            by_access[probe.access].append(probe)
    pool = [probe for kind in AccessKind for probe in by_access.get(kind, [])]
    return pool + list(world.atlas.probes[:4])


def _region_pool(world):
    """Every 13th catalog region: several providers and continents."""
    return list(world.catalog)[::13]


def _engine(world, override):
    if override is None:
        return world.engine
    section, field, value = override
    config = world.config
    config = dataclasses.replace(
        config,
        **{
            section: dataclasses.replace(
                getattr(config, section), **{field: value}
            )
        },
    )
    return MeasurementEngine(world.engine.planner, config, world.engine.rng)


def _tables(requests):
    probes_by_id = {request.probe.probe_id: request.probe for request in requests}
    regions_by_key = {
        (request.region.provider_code, request.region.region_id): request.region
        for request in requests
    }
    return probes_by_id, regions_by_key


def assert_blocks_equal(block: TraceBlock, expected: TraceBlock) -> None:
    """Column for column, byte for byte, with the very same table objects."""
    for name in TraceBlock.COLUMNS:
        got = getattr(block, name)
        want = getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert len(block.probes) == len(expected.probes)
    assert all(a is b for a, b in zip(block.probes, expected.probes))
    assert len(block.regions) == len(expected.regions)
    assert all(a is b for a, b in zip(block.regions, expected.regions))
    for name in ("epochs", "outage_ids"):
        got = getattr(block, name)
        want = getattr(expected, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _requests(world, picks):
    probes = _probe_pool(world)
    regions = _region_pool(world)
    return [
        TraceRequest(
            probe=probes[probe % len(probes)],
            region=regions[region % len(regions)],
            protocol=protocol,
            day=day,
        )
        for probe, region, protocol, day in picks
    ]


def check_engine_parity(world, requests, seed, override=None):
    engine = _engine(world, override)
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    block = execute_traceroute_batch(
        engine, TraceRequests.from_records(requests), rng=rng
    )
    records = reference.execute_traceroute_batch(engine, requests, rng=reference_rng)
    block.validate()
    assert_blocks_equal(
        block, trace_block_from_records(records, *_tables(requests))
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert block.records() == records
    return block


PICKS = st.lists(
    st.tuples(
        st.integers(0, 63),
        st.integers(0, 63),
        st.sampled_from([Protocol.ICMP, Protocol.TCP]),
        st.integers(0, 30),
    ),
    max_size=30,
)


class TestEngineBatchParity:
    def test_empty_batch(self, world):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        block = execute_traceroute_batch(
            world.engine, TraceRequests.from_records([]), rng=rng
        )
        assert len(block) == 0 and block.hop_count == 0
        block.validate()
        assert rng.bit_generator.state == before
        assert_blocks_equal(block, trace_block_from_records([]))

    def test_one_request(self, world):
        check_engine_parity(world, _requests(world, [(0, 0, Protocol.ICMP, 0)]), 2)

    def test_duplicate_requests(self, world):
        picks = [(1, 2, Protocol.ICMP, 3)] * 6 + [(1, 2, Protocol.TCP, 3)] * 3
        block = check_engine_parity(world, _requests(world, picks), 3)
        assert len(block.probes) == 1 and len(block.regions) == 1

    def test_both_platforms_protocols_and_days(self, world):
        picks = [
            (probe, region, protocol, day)
            for probe in range(len(_probe_pool(world)))
            for region, protocol, day in (
                (probe, Protocol.ICMP, probe % 3),
                (probe + 1, Protocol.TCP, 7 + probe % 5),
            )
        ]
        requests = _requests(world, picks)
        assert {r.probe.platform for r in requests} == {"speedchecker", "atlas"}
        block = check_engine_parity(world, requests, 4)
        # Some home probes expose their NAT router as hop 1.
        routers = block.hop_addresses[block.hop_offsets[:-1]]
        assert np.count_nonzero(routers == HOME_ROUTER_ADDRESS) > 0
        assert block.hop_count > sum(
            world.engine.planned_path(r.probe, r.region).hop_count
            for r in requests
        )

    @pytest.mark.parametrize("override", sorted(OVERRIDES))
    def test_config_extremes(self, world, override):
        picks = [
            (probe, probe % 5, Protocol.ICMP, probe % 4)
            for probe in range(len(_probe_pool(world)))
        ]
        block = check_engine_parity(
            world, _requests(world, picks), 5, OVERRIDES[override]
        )
        silent = block.hop_addresses == TraceBlock.NO_ADDRESS
        if override == "all-hops-answer":
            assert not silent.any()
        if override == "all-hops-silent":
            # Every hop but the router and the destination goes quiet.
            assert silent.any()
            for record in block.records():
                assert record.reached

    @SETTINGS
    @given(picks=PICKS, seed=st.integers(0, 2**32 - 1))
    def test_random_batches(self, world, picks, seed):
        check_engine_parity(world, _requests(world, picks), seed)


def _fault_engines(world, config):
    """Two identically seeded FaultyEngines over the real engine."""
    plan = FaultPlan(31, config)
    return (
        FaultyEngine(world.engine, plan.attempt("atlas:004", 1)),
        plan.attempt("atlas:004", 1),
    )


def check_truncation_parity(world, requests, seed, rate):
    """Block truncation equals the per-record path: same rows, same
    events, the ``measure`` stream left in the same state."""
    config = FaultConfig(trace_truncation_rate=rate)
    engine, reference_faults = _fault_engines(world, config)
    block = engine.traceroute_batch(
        TraceRequests.from_records(requests), rng=np.random.default_rng(seed)
    )
    records = reference.truncate_records(
        reference.execute_traceroute_batch(
            world.engine, requests, rng=np.random.default_rng(seed)
        ),
        reference_faults,
    )
    block.validate()
    assert_blocks_equal(
        block, trace_block_from_records(records, *_tables(requests))
    )
    assert block.records() == records
    assert engine._faults.events == reference_faults.events
    assert (
        engine._faults.measure.bit_generator.state
        == reference_faults.measure.bit_generator.state
    )


class TestFaultyEngineTruncation:
    @SETTINGS
    @given(
        picks=PICKS,
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    def test_truncation_matches_record_path(self, world, picks, seed, rate):
        check_truncation_parity(world, _requests(world, picks), seed, rate)

    def test_every_trace_truncated_in_order(self, world):
        picks = [(i, 3 * i, Protocol.ICMP, i % 3) for i in range(20)]
        check_truncation_parity(world, _requests(world, picks), 12, 1.0)

    def test_truncation_keeps_provenance_columns(self, world):
        requests = _requests(world, [(i, i, Protocol.ICMP, 0) for i in range(8)])
        inner = world.engine.traceroute_batch(
            TraceRequests.from_records(requests), rng=np.random.default_rng(8)
        )
        epochs = np.arange(len(inner), dtype=np.int32)
        outage_ids = np.full(len(inner), -1, np.int32)

        class Annotated:
            def traceroute_batch(self, batch, rng=None):
                inner.epochs, inner.outage_ids = epochs, outage_ids
                return inner

        engine = FaultyEngine(
            Annotated(),
            FaultPlan(31, FaultConfig(trace_truncation_rate=1.0)).attempt(
                "speedchecker:000", 0
            ),
        )
        block = engine.traceroute_batch(TraceRequests.from_records(requests))
        assert block.hop_count < inner.hop_count
        assert np.array_equal(block.epochs, epochs)
        assert np.array_equal(block.outage_ids, outage_ids)


NETFAULTS = NetworkFaultConfig(
    link_failure_rate=0.7,
    peering_flap_rate=0.5,
    regional_outage_rate=1.0,
    max_events_per_day=6,
    min_duration_slots=4,
    max_duration_slots=12,
)


@pytest.fixture(scope="module")
def netfault_plan(world):
    return NetworkFaultPlan(
        world.config.seed, NETFAULTS, world.topology, world.catalog
    )


def _netfault_engine(world, plan):
    policy = FailoverPathPolicy()
    return NetfaultEngine(_checkpoint_engine(world, policy), plan, policy)


def _full_pool(world, day):
    """Every pool probe towards every pool region on ``day``."""
    return _requests(
        world,
        [
            (probe, region, Protocol.ICMP, day)
            for probe in range(len(_probe_pool(world)))
            for region in range(len(_region_pool(world)))
        ],
    )


@pytest.fixture(scope="module")
def event_days(world, netfault_plan):
    """A day on which events drop requests and one on which they reroute
    some, each with several routing epochs."""
    dropping = rerouting = None
    for day in range(30):
        requests = _full_pool(world, day)
        block = _netfault_engine(world, netfault_plan).traceroute_batch(
            TraceRequests.from_records(requests), rng=np.random.default_rng(day)
        )
        if len(np.unique(block.epochs)) < 2:
            continue
        if dropping is None and len(block) < len(requests):
            dropping = day
        if rerouting is None and np.any(block.outage_ids >= 0):
            rerouting = day
        if dropping is not None and rerouting is not None:
            return dropping, rerouting
    pytest.fail("no dropping and rerouting multi-epoch days in the first 30")


class TestNetfaultEngineParity:
    @SETTINGS
    @given(
        picks=st.lists(
            st.tuples(
                st.integers(0, 63),
                st.integers(0, 63),
                st.sampled_from([Protocol.ICMP, Protocol.TCP]),
            ),
            min_size=0,
            max_size=60,
        ),
        which=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_epochs_concatenate_like_records(
        self, world, netfault_plan, event_days, picks, which, seed
    ):
        day = event_days[which]
        check_netfault_parity(
            world,
            netfault_plan,
            _requests(world, [(p, r, proto, day) for p, r, proto in picks]),
            seed,
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["dropping", "rerouting"])
    def test_a_day_of_requests_spans_several_epochs(
        self, world, netfault_plan, event_days, which
    ):
        requests = _full_pool(world, event_days[which])
        block = check_netfault_parity(world, netfault_plan, requests, 9)
        assert len(np.unique(block.epochs)) >= 2
        if which == 0:
            assert len(block) < len(requests)
        else:
            assert np.any(block.outage_ids >= 0)


def check_netfault_parity(world, plan, requests, seed):
    """The block equals the per-epoch records, annotations included."""
    engine = _netfault_engine(world, plan)
    reference_engine = _netfault_engine(world, plan)
    block = engine.traceroute_batch(
        TraceRequests.from_records(requests), rng=np.random.default_rng(seed)
    )
    records, (epochs, outage_ids) = reference.netfault_traceroute_records(
        reference_engine, requests, rng=np.random.default_rng(seed)
    )
    expected = trace_block_from_records(records, *_tables(requests))
    expected.epochs = epochs
    expected.outage_ids = outage_ids
    block.validate()
    assert_blocks_equal(block, expected)
    assert block.records() == records
    assert engine.take_events() == reference_engine.take_events()
    return block


class TestRecordViews:
    @SETTINGS
    @given(picks=PICKS, seed=st.integers(0, 2**32 - 1))
    def test_trace_records_equal_row_views(self, world, picks, seed):
        engine = _engine(world, OVERRIDES["all-hops-silent"] if seed % 2 else None)
        block = engine.traceroute_batch(
            TraceRequests.from_records(_requests(world, picks)),
            rng=np.random.default_rng(seed),
        )
        assert block.records() == [block.record(i) for i in range(len(block))]

    @SETTINGS
    @given(picks=PICKS, seed=st.integers(0, 2**32 - 1))
    def test_ping_records_equal_row_views(self, world, picks, seed):
        requests = [
            PingRequest(
                probe=trace.probe,
                region=trace.region,
                protocol=trace.protocol,
                samples=1 + trace.day % 4,
                day=trace.day,
            )
            for trace in _requests(world, picks)
        ]
        block = world.engine.ping_batch(
            PingRequests.from_records(requests), rng=np.random.default_rng(seed)
        )
        assert block.records() == [block.record(i) for i in range(len(block))]

    def test_unresponsive_hops_are_empty_hops(self, world):
        block = _engine(world, OVERRIDES["all-hops-silent"]).traceroute_batch(
            TraceRequests.from_records(
                _requests(world, [(i, i, Protocol.ICMP, 0) for i in range(6)])
            )
        )
        hops = [hop for record in block.records() for hop in record.hops]
        assert any(hop.address is None and hop.rtt_ms is None for hop in hops)
        assert block.records() == [block.record(i) for i in range(len(block))]

    def test_empty_blocks(self):
        assert trace_block_from_records([]).records() == []
        empty = PingBlock(
            probes=[],
            regions=[],
            probe_codes=np.empty(0, np.int32),
            region_codes=np.empty(0, np.int32),
            days=np.empty(0, np.int32),
            protocol_codes=np.empty(0, np.uint8),
            sample_values=np.empty(0, np.float64),
            sample_offsets=np.zeros(1, np.int64),
        )
        assert empty.records() == []
