"""Request blocks against the per-request paths they replaced.

Schedulers emit request columns, and the fault wrappers filter them with
row masks.  The references in ``tests/oracles/requests.py`` are the old
per-request versions: a list of request records, interned by the engine
(``intern``) and filtered request by request (``ReferenceFaultyEngine``,
``ReferenceNetfaultEngine``).  These property tests hold each columnar
version to its reference, column for column, on random request lists
with repeats, several days and empty results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.requests import (
    ReferenceFaultyEngine,
    ReferenceNetfaultEngine,
    intern,
)

from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.measure.pathpolicy import FailoverPathPolicy
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    RequestRows,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import (
    PROTOCOL_CODES,
    Block,
    PingBlock,
    Protocol,
    TraceBlock,
)
from repro.netfaults import NetfaultEngine, NetworkFaultConfig, NetworkFaultPlan

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Pool sizes the random requests draw from: small, so requests repeat.
PROBES = 12
REGIONS = 9

#: (probe index, region index, protocol, samples, day) per request.
ROWS = st.lists(
    st.tuples(
        st.integers(0, PROBES - 1),
        st.integers(0, REGIONS - 1),
        st.sampled_from([Protocol.TCP, Protocol.ICMP]),
        st.integers(1, 4),
        st.integers(0, 3),
    ),
    max_size=40,
)


@pytest.fixture(scope="module")
def pools(world):
    probes = list(world.speedchecker.probes[: PROBES - 3]) + list(
        world.atlas.probes[:3]
    )
    return probes, list(world.catalog)[::7][:REGIONS]


def ping_records(pools, rows) -> List[PingRequest]:
    probes, regions = pools
    return [
        PingRequest(
            probe=probes[p], region=regions[r], protocol=protocol,
            samples=samples, day=day,
        )
        for p, r, protocol, samples, day in rows
    ]


def trace_records(pools, rows) -> List[TraceRequest]:
    probes, regions = pools
    return [
        TraceRequest(probe=probes[p], region=regions[r], protocol=protocol, day=day)
        for p, r, protocol, _, day in rows
    ]


def columns(requests: Any) -> Tuple[Any, ...]:
    """A request batch's tables and columns: a block's own, or those the
    engine interned from a list of records."""
    if isinstance(requests, Block):
        probes, probe_codes = requests.probes, requests.probe_codes
        regions, region_codes = requests.regions, requests.region_codes
        days, protocols = requests.days, requests.protocol_codes
        samples = getattr(requests, "samples", None)
    else:
        probes, probe_codes, regions, region_codes = intern(requests)
        days = np.array([request.day for request in requests], np.int32)
        protocols = np.array(
            [PROTOCOL_CODES[request.protocol] for request in requests], np.uint8
        )
        samples = (
            np.array([request.samples for request in requests], np.int64)
            if requests and isinstance(requests[0], PingRequest)
            else None
        )
    return (
        [probe.probe_id for probe in probes],
        [(region.provider_code, region.region_id) for region in regions],
        probe_codes.astype(np.int32).tobytes(),
        region_codes.astype(np.int32).tobytes(),
        days.astype(np.int32).tobytes(),
        protocols.astype(np.uint8).tobytes(),
        None if samples is None or not len(samples) else samples.tobytes(),
    )


def block_columns(block: Any) -> Tuple[Any, ...]:
    """A measurement block's tables and every column, as bytes."""
    arrays = tuple(
        None if getattr(block, name) is None else getattr(block, name).tobytes()
        for name in type(block).__slots__
        if not name.startswith("_") and name not in ("probes", "regions")
    )
    return (
        [probe.probe_id for probe in block.probes],
        [(region.provider_code, region.region_id) for region in block.regions],
    ) + arrays


class RecordingEngine:
    """Records each batch it is asked to run and answers with one sample
    per ping and ``1 + row % 3`` hops per traceroute."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, Tuple[Any, ...]]] = []

    def _tables(self, requests: Any) -> Tuple[Any, ...]:
        if isinstance(requests, Block):
            return (
                requests.probes,
                requests.regions,
                requests.probe_codes,
                requests.region_codes,
                requests.days,
                requests.protocol_codes,
            )
        probes, probe_codes, regions, region_codes = intern(requests)
        _, _, _, _, days, protocols, _ = columns(list(requests))
        return (
            probes,
            regions,
            probe_codes,
            region_codes,
            np.frombuffer(days, np.int32),
            np.frombuffer(protocols, np.uint8),
        )

    def ping_batch(self, requests: Any, rng: Optional[np.random.Generator] = None):
        self.calls.append(("ping", columns(requests)))
        probes, regions, probe_codes, region_codes, days, protocols = self._tables(
            requests
        )
        n = len(probe_codes)
        return PingBlock(
            probes=probes,
            regions=regions,
            probe_codes=probe_codes,
            region_codes=region_codes,
            days=days,
            protocol_codes=protocols,
            sample_values=np.arange(n, dtype=np.float64),
            sample_offsets=np.arange(n + 1, dtype=np.int64),
        )

    def traceroute_batch(
        self, requests: Any, rng: Optional[np.random.Generator] = None
    ):
        self.calls.append(("trace", columns(requests)))
        probes, regions, probe_codes, region_codes, days, protocols = self._tables(
            requests
        )
        n = len(probe_codes)
        hops = 1 + np.arange(n) % 3
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(hops, out=offsets[1:])
        return TraceBlock(
            probes=probes,
            regions=regions,
            probe_codes=probe_codes,
            region_codes=region_codes,
            days=days,
            protocol_codes=protocols,
            source_addresses=np.arange(n, dtype=np.int64),
            dest_addresses=np.arange(n, dtype=np.int64) + 100,
            hop_offsets=offsets,
            hop_addresses=np.arange(int(offsets[-1]), dtype=np.int64),
            hop_rtts=np.linspace(1.0, 2.0, int(offsets[-1])),
        )


class TestRequestBlocks:
    @SETTINGS
    @given(rows=ROWS, mask=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_take_matches_interning_the_kept_records(self, pools, rows, mask):
        records = ping_records(pools, rows)
        kept = [record for record, keep in zip(records, mask) if keep]
        block = PingRequests.from_records(records)
        assert columns(block) == columns(records)
        taken = block.take(np.array(mask[: len(records)], bool))
        assert columns(taken) == columns(kept)
        assert list(taken) == kept

    @SETTINGS
    @given(rows=ROWS, picks=st.lists(st.integers(0, 39), max_size=60))
    def test_take_by_index_with_repeats(self, pools, rows, picks):
        records = trace_records(pools, rows)
        picks = [pick for pick in picks if pick < len(records)]
        taken = TraceRequests.from_records(records).take(np.array(picks, np.int64))
        assert columns(taken) == columns([records[pick] for pick in picks])

    @SETTINGS
    @given(
        visits=st.lists(
            st.tuples(
                st.integers(0, PROBES - 1),
                st.lists(st.integers(0, REGIONS - 1), max_size=5),
                st.integers(0, 3),
            ),
            max_size=12,
        ),
        protocols=st.sampled_from(
            [(Protocol.TCP,), (Protocol.ICMP,), (Protocol.TCP, Protocol.ICMP)]
        ),
        flips=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    def test_rows_match_the_request_lists(self, pools, visits, protocols, flips):
        """A scheduler's rows: one ping per row and protocol, and the
        traceroutes of a subset of rows."""
        probes, regions = pools
        rows = RequestRows()
        pings: List[PingRequest] = []
        pairs: List[Tuple[Any, Any, int]] = []
        for p, region_picks, day in visits:
            targets = [regions[r] for r in region_picks]
            rows.add(probes[p], targets, day)
            for region in targets:
                pairs.append((probes[p], region, day))
                pings.extend(
                    PingRequest(probes[p], region, protocol, 3, day)
                    for protocol in protocols
                )
        assert len(rows) == len(pairs)
        assert columns(rows.pings(protocols, 3)) == columns(pings)
        mask = np.array(flips[: len(pairs)], bool)
        traces = [
            TraceRequest(probe, region, Protocol.TCP, day)
            for (probe, region, day), flip in zip(pairs, mask)
            if flip
        ]
        assert columns(rows.traces(Protocol.TCP).take(mask)) == columns(traces)


def measurement_block(pools, rows, kind, provenance):
    """A ping or trace block over the pools' tables.  Row ``i`` owns as
    many values as its request has samples, every value distinct, and
    with ``provenance`` its epoch and outage id differ by row."""
    requests = PingRequests.from_records(ping_records(pools, rows))
    n = len(requests)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(requests.samples, out=offsets[1:])
    values = np.arange(int(offsets[-1]))
    columns: Dict[str, Any] = dict(
        probes=requests.probes,
        regions=requests.regions,
        probe_codes=requests.probe_codes,
        region_codes=requests.region_codes,
        days=requests.days,
        protocol_codes=requests.protocol_codes,
    )
    if provenance:
        columns.update(epochs=np.arange(n) % 3, outage_ids=np.arange(n) - 1)
    if kind is PingBlock:
        return PingBlock(**columns, sample_values=values * 0.5, sample_offsets=offsets)
    return TraceBlock(
        **columns,
        source_addresses=np.arange(n),
        dest_addresses=np.arange(n) + 100,
        hop_offsets=offsets,
        hop_addresses=values,
        hop_rtts=values * 1.5,
    )


def first_named(table: Sequence[Any], codes: np.ndarray) -> List[int]:
    """The ids of the ``table`` objects ``codes`` name, in the order the
    codes first name them."""
    return list(dict.fromkeys(id(table[code]) for code in codes.tolist()))


BLOCK_KINDS = st.sampled_from([PingBlock, TraceBlock])
PICKS = st.lists(st.integers(0, 39), max_size=60)


class TestMeasurementBlocks:
    @SETTINGS
    @given(rows=ROWS, picks=PICKS, kind=BLOCK_KINDS, provenance=st.booleans())
    def test_take_keeps_rows_tables_and_provenance(
        self, pools, rows, picks, kind, provenance
    ):
        block = measurement_block(pools, rows, kind, provenance)
        picks = np.array([pick for pick in picks if pick < len(block)], np.int64)
        taken = block.take(picks)
        taken.validate()
        records = block.records()
        assert taken.records() == [records[pick] for pick in picks.tolist()]
        assert [id(probe) for probe in taken.probes] == first_named(
            block.probes, block.probe_codes[picks]
        )
        assert [id(region) for region in taken.regions] == first_named(
            block.regions, block.region_codes[picks]
        )
        for name in ("epochs", "outage_ids"):
            column = getattr(taken, name)
            if provenance:
                assert column.tolist() == getattr(block, name)[picks].tolist()
            else:
                assert column is None

    @SETTINGS
    @given(
        rows=ROWS,
        first=PICKS,
        second=PICKS,
        kind=st.sampled_from([PingBlock, TraceBlock, PingRequests, TraceRequests]),
        provenance=st.booleans(),
    )
    def test_concatenate_of_takes_is_the_take_of_both(
        self, pools, rows, first, second, kind, provenance
    ):
        if kind in (PingBlock, TraceBlock):
            block = measurement_block(pools, rows, kind, provenance)
        else:
            records = ping_records if kind is PingRequests else trace_records
            block = kind.from_records(records(pools, rows))
        first = [pick for pick in first if pick < len(block)]
        second = [pick for pick in second if pick < len(block)]
        first_rows = np.array(first, np.int64)
        second_rows = np.array(second, np.int64)
        joined = kind.concatenate([block.take(first_rows), block.take(second_rows)])
        joined.validate()
        expected = block.take(np.concatenate([first_rows, second_rows]))
        assert block_columns(joined) == block_columns(expected)

    @pytest.mark.parametrize(
        "kind", [PingBlock, TraceBlock, PingRequests, TraceRequests]
    )
    def test_concatenate_of_no_blocks_is_an_empty_block(self, kind):
        empty = kind.concatenate([])
        empty.validate()
        assert (len(empty), empty.probes, empty.regions) == (0, [], [])


FAULTS = st.builds(
    FaultConfig,
    reply_loss_rate=st.sampled_from([0.0, 0.3, 1.0]),
    probe_disconnect_rate=st.sampled_from([0.0, 0.5, 1.0]),
    trace_truncation_rate=st.sampled_from([0.0, 0.5]),
)


class TestFaultyEngineMasks:
    @SETTINGS
    @given(
        rows=ROWS,
        config=FAULTS,
        attempt=st.integers(0, 50),
    )
    def test_masks_match_the_per_request_filters(self, pools, rows, config, attempt):
        plan = FaultPlan(5, config)
        outputs = []
        for engine_type, wrap in (
            (FaultyEngine, lambda records, kind: kind.from_records(records)),
            (ReferenceFaultyEngine, lambda records, kind: records),
        ):
            inner = RecordingEngine()
            faults = plan.attempt("atlas:001", attempt)
            engine = engine_type(inner, faults)
            ping = engine.ping_batch(wrap(ping_records(pools, rows), PingRequests))
            trace = engine.traceroute_batch(
                wrap(trace_records(pools, rows), TraceRequests)
            )
            outputs.append(
                (
                    inner.calls,
                    block_columns(ping),
                    block_columns(trace),
                    faults.events,
                    faults.measure.bit_generator.state,
                )
            )
        assert outputs[0] == outputs[1]


#: Link failures and peering flaps fill a day's event budget before
#: regional outages are drawn, so outages get a plan of their own.
NETFAULTS = {
    "routing": NetworkFaultConfig(
        link_failure_rate=0.9, peering_flap_rate=0.7, max_events_per_day=8
    ),
    "outages": NetworkFaultConfig(regional_outage_rate=1.0, max_events_per_day=8),
}


class TestNetfaultEngineMasks:
    @pytest.fixture(scope="class", params=sorted(NETFAULTS))
    def plan(self, request, world):
        return NetworkFaultPlan(
            world.config.seed, NETFAULTS[request.param], world.topology, world.catalog
        )

    def run(self, plan, engine_type, requests):
        inner = RecordingEngine()
        policy = FailoverPathPolicy()
        engine = engine_type(inner, plan, policy)
        kind = PingRequests if isinstance(requests[0], PingRequest) else TraceRequests
        batch = requests if engine_type is ReferenceNetfaultEngine else (
            kind.from_records(requests)
        )
        run = engine.ping_batch if kind is PingRequests else engine.traceroute_batch
        block = run(batch)
        return inner.calls, block_columns(block), engine.take_events()

    @SETTINGS
    @given(rows=ROWS.filter(bool), traces=st.booleans())
    def test_segments_and_verdicts_match_per_request(self, world, plan, rows, traces):
        probes = list(world.speedchecker.probes[::97][:PROBES])
        regions = list(world.catalog)[::5][:REGIONS]
        pools = (probes, regions)
        records: Sequence[Any] = (
            trace_records(pools, rows) if traces else ping_records(pools, rows)
        )
        assert self.run(plan, NetfaultEngine, records) == self.run(
            plan, ReferenceNetfaultEngine, records
        )

    def test_whole_days_with_events(self, world, plan):
        """Every pool pair on days with events: rows are dropped or
        rerouted, and both engines journal the same effects."""
        probes = list(world.speedchecker.probes[::50])
        regions = list(world.catalog)[::3]
        effects = []
        for day in range(6):
            records = [
                PingRequest(probe, region, Protocol.TCP, 2, day)
                for probe in probes
                for region in regions
            ]
            new = self.run(plan, NetfaultEngine, records)
            assert new == self.run(plan, ReferenceNetfaultEngine, records)
            effects.extend(new[2])
        assert any("dropped=0" not in effect for effect in effects) or any(
            "rerouted=0" not in effect for effect in effects
        )

    def test_a_batch_with_every_row_dropped(self, world):
        """A request towards a region that is down at its slot: no
        segment survives, so the wrapper merges no block at all."""
        plan = NetworkFaultPlan(
            world.config.seed, NETFAULTS["outages"], world.topology, world.catalog
        )
        def down_at_dawn(day, region):
            network = plan.topology.network_code(region.provider_code)
            return any(
                (event.network, event.continent) == (network, region.continent)
                for event in plan.timeline(day).outages(0)
            )

        day, region = next(
            (day, region)
            for day in range(30)
            for region in world.catalog
            if down_at_dawn(day, region)
        )
        probe = world.speedchecker.probes[0]
        for records in (
            [PingRequest(probe, region, Protocol.TCP, 2, day)],
            [TraceRequest(probe, region, Protocol.ICMP, day)],
        ):
            calls, columns, events = self.run(plan, NetfaultEngine, records)
            assert (calls, columns, events) == self.run(
                plan, ReferenceNetfaultEngine, records
            )
            assert calls == []
            assert columns[:2] == ([], [])
            assert columns[-2:] == (b"", b"")
            assert any("dropped=1" in event for event in events)
