"""Unit tests for repro.netfaults: config, events, plans, views, engine."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.routing import compute_routes_reference

from repro import build_world
from repro.geo.continents import Continent
from repro.measure.campaign import run_campaign_checkpointed
from repro.measure.results import PingBlock, TraceBlock
from repro.measure.pathpolicy import (
    BASELINE_TOKEN,
    FailoverPathPolicy,
    PathSelectionPolicy,
)
from repro.net.routing import table_uses_edges
from repro.netfaults import (
    LINK_FAILURE,
    PEERING_FLAP,
    REGIONAL_OUTAGE,
    SLOTS_PER_DAY,
    EpochTopologyView,
    NetfaultEngine,
    NetworkEvent,
    NetworkFaultConfig,
    NetworkFaultPlan,
    build_timeline,
    load_netfault_config,
    netfault_digest,
)
from repro.netfaults.engine import find_netfault_engine
from repro.netfaults.plan import _flap_candidates, _link_candidates
from repro.store.format import read_columns, write_shard
from repro.store.shards import header_zones, read_block_shard


@pytest.fixture(scope="module")
def world():
    return build_world(seed=11, scale=0.01)


ACTIVE_CONFIG = NetworkFaultConfig(
    link_failure_rate=0.7,
    peering_flap_rate=0.9,
    regional_outage_rate=0.8,
    max_events_per_day=5,
    min_duration_slots=4,
    max_duration_slots=12,
)


class TestNetworkFaultConfig:
    def test_defaults_are_inactive(self):
        config = NetworkFaultConfig()
        assert not config.active

    def test_any_positive_rate_activates(self):
        assert NetworkFaultConfig(peering_flap_rate=0.01).active

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="link_failure_rate"):
            NetworkFaultConfig(link_failure_rate=1.5)
        with pytest.raises(ValueError, match="regional_outage_rate"):
            NetworkFaultConfig(regional_outage_rate=-0.1)

    def test_duration_bounds(self):
        with pytest.raises(ValueError, match="max_duration_slots"):
            NetworkFaultConfig(max_duration_slots=SLOTS_PER_DAY + 1)
        with pytest.raises(ValueError, match="min_duration_slots must not"):
            NetworkFaultConfig(min_duration_slots=9, max_duration_slots=3)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown network fault config"):
            NetworkFaultConfig.from_dict({"link_failur_rate": 0.5})

    def test_from_dict_rejects_bad_types(self):
        with pytest.raises(ValueError, match="link_failure_rate must be"):
            NetworkFaultConfig.from_dict({"link_failure_rate": "high"})
        with pytest.raises(ValueError, match="max_events_per_day must be"):
            NetworkFaultConfig.from_dict({"max_events_per_day": 2.5})
        with pytest.raises(ValueError, match="must be a number"):
            NetworkFaultConfig.from_dict({"peering_flap_rate": True})

    def test_load_reports_bad_json_with_path(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match=r"net\.json.*not valid JSON"):
            load_netfault_config(path)

    def test_load_requires_an_object(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_netfault_config(path)

    def test_load_round_trips(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps({"link_failure_rate": 0.25, "max_events_per_day": 4}),
            encoding="utf-8",
        )
        config = load_netfault_config(path)
        assert config.link_failure_rate == 0.25
        assert config.max_events_per_day == 4

    def test_digest_tracks_content(self):
        a = NetworkFaultConfig(link_failure_rate=0.5)
        b = NetworkFaultConfig(link_failure_rate=0.5)
        c = NetworkFaultConfig(link_failure_rate=0.6)
        assert netfault_digest(a) == netfault_digest(b)
        assert netfault_digest(a) != netfault_digest(c)


def _event(event_id, windows, kind=LINK_FAILURE, edge=(100, 200)):
    return NetworkEvent(
        kind=kind,
        event_id=event_id,
        day=0,
        windows=windows,
        edge=edge if kind != REGIONAL_OUTAGE else None,
        network="GOOG" if kind == REGIONAL_OUTAGE else None,
        continent=Continent.EU if kind == REGIONAL_OUTAGE else None,
    )


class TestTimeline:
    def test_event_activity_and_label(self):
        event = _event(3, ((4, 9), (12, 15)), kind=PEERING_FLAP)
        assert not event.active_at(3)
        assert event.active_at(4)
        assert not event.active_at(9)
        assert event.active_at(12)
        assert event.label() == "peering-flap:AS100-AS200@d0s4-s9+s12-s15"

    def test_epoch_partition(self):
        timeline = build_timeline(0, (_event(0, ((4, 9),)),))
        assert timeline.boundaries == (0, 4, 9)
        assert timeline.epoch_at(0) == 0
        assert timeline.epoch_at(4) == 1
        assert timeline.epoch_at(8) == 1
        assert timeline.epoch_at(9) == 2
        assert timeline.removed_edges(0) == frozenset()
        assert timeline.removed_edges(1) == frozenset({(100, 200)})
        assert timeline.removed_edges(2) == frozenset()

    def test_epoch_at_rejects_out_of_day_slots(self):
        timeline = build_timeline(0, ())
        with pytest.raises(ValueError):
            timeline.epoch_at(SLOTS_PER_DAY)
        with pytest.raises(ValueError):
            timeline.epoch_at(-1)

    def test_overlapping_events_stack(self):
        timeline = build_timeline(
            0,
            (
                _event(0, ((2, 10)), ) if False else _event(0, ((2, 10),)),
                _event(1, ((6, 14),), edge=(300, 400)),
                _event(2, ((6, 20),), kind=REGIONAL_OUTAGE),
            ),
        )
        epoch = timeline.epoch_at(7)
        assert timeline.removed_edges(epoch) == frozenset(
            {(100, 200), (300, 400)}
        )
        assert [e.event_id for e in timeline.outages(epoch)] == [2]
        # After the first event lifts, its edge comes back alone.
        later = timeline.epoch_at(11)
        assert timeline.removed_edges(later) == frozenset({(300, 400)})

    def test_empty_day_is_one_epoch(self):
        timeline = build_timeline(0, ())
        assert timeline.epoch_count == 1
        assert timeline.epoch_at(0) == timeline.epoch_at(SLOTS_PER_DAY - 1)


class TestNetworkFaultPlan:
    def test_timelines_are_deterministic(self, world):
        plans = [
            NetworkFaultPlan(
                world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
            )
            for _ in range(2)
        ]
        for day in (0, 1, 2):
            assert plans[0].timeline(day).events == plans[1].timeline(day).events

    def test_day_order_does_not_matter(self, world):
        forward = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        backward = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        days = [0, 1, 2]
        forward_events = {day: forward.timeline(day).events for day in days}
        backward_events = {
            day: backward.timeline(day).events for day in reversed(days)
        }
        assert forward_events == backward_events

    def test_families_draw_independently(self, world):
        links_only = NetworkFaultPlan(
            world.config.seed,
            NetworkFaultConfig(link_failure_rate=0.7, max_events_per_day=5),
            world.topology,
            world.catalog,
        )
        with_outages = NetworkFaultPlan(
            world.config.seed,
            NetworkFaultConfig(
                link_failure_rate=0.7,
                regional_outage_rate=0.9,
                max_events_per_day=5,
            ),
            world.topology,
            world.catalog,
        )
        for day in (0, 1, 2):
            solo = links_only.timeline(day).events
            mixed = tuple(
                event
                for event in with_outages.timeline(day).events
                if event.kind == LINK_FAILURE
            )
            # Enabling another family must not perturb the link-failure
            # schedule (fixed-order family draws from the day stream).
            assert solo == mixed[: len(solo)] or solo == mixed

    def test_seeds_change_schedules(self, world):
        a = NetworkFaultPlan(
            1, ACTIVE_CONFIG, world.topology, world.catalog
        )
        b = NetworkFaultPlan(
            2, ACTIVE_CONFIG, world.topology, world.catalog
        )
        assert any(
            a.timeline(day).events != b.timeline(day).events
            for day in range(3)
        )

    def test_views_are_shared_per_edge_set(self, world):
        plan = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        edges = frozenset({(64512, 64513)})
        assert plan.view(edges) is plan.view(frozenset({(64513, 64512)}))
        assert plan.view(frozenset()).cache_token() == frozenset()


class TestEpochReconvergence:
    def test_view_matches_reference_sweep(self, world):
        plan = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        topology = world.topology
        checked = 0
        for day in (0, 1):
            timeline = plan.timeline(day)
            for epoch in range(timeline.epoch_count):
                view = plan.view(timeline.removed_edges(epoch))
                for provider in world.providers[:3]:
                    for continent in (Continent.EU, Continent.NA):
                        network = topology.network_code(provider.code)
                        graph = topology.graph_for(network, continent)
                        expected = compute_routes_reference(
                            graph.without_edges(sorted(view.removed_edges)),
                            topology.peerings[network].cloud_asn,
                            topology.policy,
                        )
                        table = view.routes_for(provider.code, continent)
                        for asn in graph.all_asns():
                            assert table.as_path(asn) == expected.as_path(
                                asn
                            ), (day, epoch, provider.code, continent, asn)
                        checked += 1
        assert checked > 0

    def test_unused_edges_keep_the_baseline_table(self, world):
        topology = world.topology
        provider = world.providers[0]
        continent = Continent.EU
        base = topology.routes_for(provider.code, continent)
        # An absurd edge no route can ride: both endpoints private.
        plan = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        view = plan.view(frozenset({(64512, 64513)}))
        assert not table_uses_edges(base, [(64512, 64513)])
        assert view.routes_for(provider.code, continent) is base


class TestRouteTokens:
    """A route whose links all survive is still the one selected:
    removing links never improves a valley-free route.  The epoch view
    keeps such a route without re-converging its scope."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_routes_off_downed_links_keep_their_path(self, world, data):
        topology = world.topology
        provider_code = data.draw(
            st.sampled_from([provider.code for provider in world.providers]),
            "provider",
        )
        continent = data.draw(
            st.sampled_from([Continent.EU, Continent.NA, Continent.AS]),
            "continent",
        )
        network = topology.network_code(provider_code)
        graph = topology.graph_for(network, continent)
        cloud = topology.peerings[network].cloud_asn
        base = compute_routes_reference(graph, cloud, topology.policy)
        paths = {asn: base.as_path(asn) for asn in sorted(graph.all_asns())}
        path_links = sorted(
            {
                (min(link), max(link))
                for path in paths.values()
                if path is not None
                for link in zip(path, path[1:])
            }
        )
        candidates = _link_candidates(topology) + _flap_candidates(topology)
        removed = frozenset(
            (min(link), max(link))
            for link in data.draw(
                st.lists(
                    st.sampled_from(path_links) | st.sampled_from(candidates),
                    min_size=1,
                    max_size=4,
                ),
                "removed",
            )
        )
        reduced = compute_routes_reference(
            graph.without_edges(sorted(removed)), cloud, topology.policy
        )
        view = EpochTopologyView(topology, removed)
        for asn, path in paths.items():
            rides = path is not None and any(
                (min(link), max(link)) in removed for link in zip(path, path[1:])
            )
            if not rides:
                assert reduced.as_path(asn) == path, (asn, sorted(removed))
            assert view.as_path(asn, provider_code, continent) == reduced.as_path(
                asn
            ), (asn, sorted(removed))
            assert (view.route_token(asn, provider_code, continent) is None) == (
                not rides
            )


class TestPathPolicies:
    def test_baseline_token_is_shared(self):
        static = PathSelectionPolicy()
        failover = FailoverPathPolicy()
        assert static.cache_token() == BASELINE_TOKEN
        assert failover.cache_token() == BASELINE_TOKEN

    def test_mark_down_and_up_restores_token(self, world):
        policy = PathSelectionPolicy()
        key = policy.path_key(
            world.topology, 200001, world.providers[0].code, Continent.EU
        )
        policy.mark_path_down(key)
        assert policy.cache_token() != BASELINE_TOKEN
        assert policy.is_down(key)
        assert (
            policy.as_path(
                world.topology,
                200001,
                world.providers[0].code,
                Continent.EU,
            )
            is None
        )
        policy.mark_path_up(key)
        assert policy.cache_token() == BASELINE_TOKEN

    def test_failover_selects_an_alternate_path(self, world):
        topology = world.topology
        policy = FailoverPathPolicy()
        provider = world.providers[0]
        # Find an ISP with a baseline route of >= 2 hops.
        continent = Continent.EU
        table = topology.routes_for(provider.code, continent)
        chosen = None
        for platform in (world.speedchecker, world.atlas):
            for probe in platform.probes:
                if probe.continent is not continent:
                    continue
                base = table.as_path(probe.isp_asn)
                if base and len(base) >= 2:
                    chosen = (probe.isp_asn, base)
                    break
            if chosen:
                break
        assert chosen is not None
        isp_asn, base = chosen
        key = policy.path_key(topology, isp_asn, provider.code, continent)
        policy.mark_path_down(key)
        alternate = policy.as_path(topology, isp_asn, provider.code, continent)
        if alternate is not None:
            assert alternate != base
            assert alternate[:2] != base[:2]
        policy.mark_path_up(key)
        assert (
            policy.as_path(topology, isp_asn, provider.code, continent) == base
        )

    def test_view_installation_changes_token(self, world):
        plan = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        policy = FailoverPathPolicy()
        view = plan.view(frozenset({(100, 200)}))
        policy.set_view(view)
        assert policy.cache_token() != BASELINE_TOKEN
        policy.set_view(None)
        assert policy.cache_token() == BASELINE_TOKEN

    def test_empty_view_keeps_baseline_token(self, world):
        plan = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        policy = FailoverPathPolicy()
        policy.set_view(plan.view(frozenset()))
        assert policy.cache_token() == BASELINE_TOKEN


class TestNetfaultEngineIntegration:
    @pytest.fixture(scope="class")
    def netfault_store(self, tmp_path_factory):
        world = build_world(seed=11, scale=0.01)
        run_dir = tmp_path_factory.mktemp("netfault") / "run"
        store = run_campaign_checkpointed(
            world, run_dir, days=2, netfaults=ACTIVE_CONFIG
        )
        return store

    def test_find_netfault_engine_walks_wrappers(self, world):
        class Wrapper:
            def __init__(self, inner):
                self._inner = inner

        plan = NetworkFaultPlan(
            world.config.seed, ACTIVE_CONFIG, world.topology, world.catalog
        )
        engine = NetfaultEngine(object(), plan, FailoverPathPolicy())
        assert find_netfault_engine(engine) is engine
        assert find_netfault_engine(Wrapper(engine)) is engine
        assert find_netfault_engine(Wrapper(Wrapper(object()))) is None

    def test_shards_carry_uniform_provenance_columns(self, netfault_store):
        for kind in ("pings", "traces"):
            for entry in netfault_store.shard_entries(kind=kind):
                header, columns = read_columns(entry.path)
                assert "epochs" in columns, entry.path
                assert "outage_ids" in columns, entry.path
                assert columns["epochs"].dtype == np.int32
                assert columns["outage_ids"].dtype == np.int32
                zones = header_zones(header)
                assert "epochs" in zones
                assert "outage_ids" in zones

    def test_epochs_progress_within_units(self, netfault_store):
        saw_multiple = False
        for entry in netfault_store.shard_entries(kind="pings"):
            _, columns = read_columns(entry.path)
            epochs = columns["epochs"]
            if epochs.size and epochs.max() > 0:
                saw_multiple = True
                # Epochs are non-decreasing within a unit's shard: the
                # request list maps onto the day's slots in order.
                assert np.all(np.diff(epochs) >= 0)
        assert saw_multiple, "expected at least one multi-epoch unit"

    def test_store_verifies_clean(self, netfault_store):
        assert netfault_store.verify() == []

    def test_journal_records_event_effects(self, tmp_path):
        # Full-day regional outages are guaranteed to drop rows, so the
        # per-unit journal must carry the event ledger.
        world = build_world(seed=11, scale=0.01)
        store = run_campaign_checkpointed(
            world,
            tmp_path / "run",
            days=1,
            netfaults=NetworkFaultConfig(
                regional_outage_rate=1.0,
                min_duration_slots=24,
                max_duration_slots=24,
            ),
        )
        tagged = [
            entry for entry in store.unit_entries() if "netfaults" in entry
        ]
        assert tagged
        for entry in tagged:
            for event in entry["netfaults"]:
                assert "regional-outage:" in event
                assert " dropped=" in event and " rerouted=" in event


class TestOptionalColumnZoneVerify:
    """``store verify`` must validate zones on optional columns too."""

    def _rewrite_shard(self, path, mutate):
        header, columns = read_columns(path, mmap=False)
        metadata = {
            key: value
            for key, value in header.items()
            if key not in ("columns", "container", "container_version")
        }
        mutate(metadata)
        write_shard(path, columns, metadata)

    def test_blocks_round_trip_provenance_columns(self, tmp_path):
        world = build_world(seed=11, scale=0.01)
        store = run_campaign_checkpointed(
            world, tmp_path / "run", days=1, netfaults=ACTIVE_CONFIG
        )
        ping = read_block_shard(store.shard_entries("pings")[0].path, PingBlock)
        assert ping.epochs is not None
        assert ping.outage_ids is not None
        assert ping.epochs.shape == ping.probe_codes.shape
        trace = read_block_shard(store.shard_entries("traces")[0].path, TraceBlock)
        assert trace.epochs is not None
        assert trace.outage_ids is not None

    def test_verify_catches_falsified_optional_zones(self, tmp_path):
        world = build_world(seed=11, scale=0.01)
        store = run_campaign_checkpointed(
            world, tmp_path / "run", days=1, netfaults=ACTIVE_CONFIG
        )
        assert store.verify() == []

        ping_entry = store.shard_entries("pings")[0]

        def lie_epochs(metadata):
            metadata["zones"]["epochs"]["max"] = 99

        self._rewrite_shard(ping_entry.path, lie_epochs)
        problems = store.verify()
        assert any(
            "zone" in problem and "epochs" in problem for problem in problems
        )

        # Heal the ping shard, then falsify the trace outage zone: the
        # optional columns on trace shards are verified the same way.
        self._rewrite_shard(
            ping_entry.path,
            lambda metadata: metadata["zones"]["epochs"].update(
                {"max": int(read_columns(ping_entry.path)[1]["epochs"].max())}
            ),
        )
        assert store.verify() == []

        trace_entry = store.shard_entries("traces")[0]

        def lie_outages(metadata):
            metadata["zones"]["outage_ids"]["min"] = -7

        self._rewrite_shard(trace_entry.path, lie_outages)
        problems = store.verify()
        assert any(
            "zone" in problem and "outage_ids" in problem
            for problem in problems
        )
