"""Batch-vs-scalar parity of the full-scale substrate.

The scale=1.0 fast path rests on three vectorized replacements whose
pre-optimization implementations are the oracles in ``tests/oracles/``:
the valley-free array sweep (vs ``oracles.routing``), the sorted-array
LPM resolver (vs ``oracles.lpm``), and the planner's columnar batches
-- pair dedup, route-meta cache, batched draws and hop placement (vs
``oracles.planner``, which plans each pair on its own).  These tests pin
each pair bit-identical -- on the real topology, on adversarial random
graphs, and on the batch boundary cases (empty batch, single element,
duplicates) that the benchmark workloads never hit.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.lpm import ReferencePyASN
from oracles.planner import ReferencePlanner
from oracles.routing import EpochRoutes, compute_routes_reference

from repro.measure.path import PathPlanner, PlannedPath
from repro.measure.pathpolicy import FailoverPathPolicy
from repro.measure.requests import pair_requests
from repro.net.ip import IPv4Prefix, parse_ip
from repro.net.relationships import RelationshipGraph
from repro.net.routing import RoutePolicy, clear_route_cache, compute_routes
from repro.netfaults import EpochTopologyView
from repro.resolve.pyasn import PyASNResolver


def assert_tables_identical(graph, array_table, reference_table):
    """Entry-by-entry equality over every AS in the graph."""
    assert array_table.destination == reference_table.destination
    assert len(array_table) == len(reference_table)
    for asn in sorted(graph.all_asns()):
        assert array_table.entry(asn) == reference_table.entry(asn), (
            f"route entry at AS{asn} diverges"
        )
        assert array_table.as_path(asn) == reference_table.as_path(asn)


class TestRoutingParity:
    def test_real_topology_all_scoped_tables(self, world):
        """Every (network, continent) table a campaign day computes."""
        topo = world.topology
        continents = sorted(
            {
                probe.continent
                for platform in (world.speedchecker, world.atlas)
                for probe in platform.probes
            },
            key=lambda c: c.value,
        )
        networks = sorted(
            {topo.network_code(region.provider_code) for region in world.catalog}
        )
        clear_route_cache()
        checked = 0
        for network in networks:
            destination = topo.peerings[network].cloud_asn
            for continent in continents:
                graph = topo.graph_for(network, continent)
                assert_tables_identical(
                    graph,
                    compute_routes(graph, destination),
                    compute_routes_reference(graph, destination),
                )
                checked += 1
        assert checked == len(networks) * len(continents)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, data):
        """Random provider hierarchies plus random peering edges."""
        n = data.draw(st.integers(min_value=2, max_value=24))
        asns = list(range(100, 100 + n))
        graph = RelationshipGraph()
        # Random forest of customer->provider edges (acyclic by
        # construction: providers always precede customers).
        for i in range(1, n):
            provider = data.draw(st.integers(min_value=0, max_value=i - 1))
            graph.add_customer_provider(asns[i], asns[provider])
        n_peerings = data.draw(st.integers(min_value=0, max_value=n))
        for _ in range(n_peerings):
            a = data.draw(st.integers(min_value=0, max_value=n - 1))
            b = data.draw(st.integers(min_value=0, max_value=n - 1))
            if a != b and graph.relationship_between(asns[a], asns[b]) is None:
                graph.add_peering(asns[a], asns[b])
        destination = asns[data.draw(st.integers(min_value=0, max_value=n - 1))]
        clear_route_cache()
        for policy in (RoutePolicy.VALLEY_FREE, RoutePolicy.SHORTEST):
            assert_tables_identical(
                graph,
                compute_routes(graph, destination, policy),
                compute_routes_reference(graph, destination, policy),
            )

    def test_route_cache_shares_tables_across_identical_graphs(self):
        """Byte-identical edge structures share one memoized table."""
        def build():
            g = RelationshipGraph()
            g.add_customer_provider(2, 1)
            g.add_customer_provider(3, 2)
            g.add_peering(2, 4)
            g.add_customer_provider(9, 1)
            return g

        clear_route_cache()
        first = compute_routes(build(), 9)
        second = compute_routes(build(), 9)
        assert second is first
        clear_route_cache()
        assert compute_routes(build(), 9) is not first


ANNOUNCEMENTS = [
    ("11.0.0.0/8", 100),
    ("11.128.0.0/9", 200),
    ("11.128.64.0/18", 300),
    ("13.0.0.0/8", 400),
    ("13.13.0.0/16", 500),
    ("0.0.0.0/0", 1),
]


def both_engines(announcements):
    parsed = [(IPv4Prefix.parse(p), asn) for p, asn in announcements]
    return ReferencePyASN(parsed), PyASNResolver(parsed)


class TestResolverEngineParity:
    def test_scalar_lookup_agrees(self):
        trie, array = both_engines(ANNOUNCEMENTS)
        for address in (
            "11.0.0.1", "11.127.255.255", "11.128.0.0", "11.128.64.1",
            "11.128.128.0", "13.13.0.7", "13.200.0.1", "200.1.2.3",
        ):
            assert array.lookup(parse_ip(address)) == trie.lookup(
                parse_ip(address)
            ), address

    def test_empty_batch(self):
        trie, array = both_engines(ANNOUNCEMENTS)
        for resolver in (trie, array):
            result = resolver.lookup_many(np.empty(0, dtype=np.int64))
            assert result.shape == (0,)
            assert result.dtype == np.int64

    def test_single_address_batch(self):
        trie, array = both_engines(ANNOUNCEMENTS)
        batch = np.array([parse_ip("11.128.64.9")], dtype=np.int64)
        assert array.lookup_many(batch).tolist() == trie.lookup_many(
            batch
        ).tolist() == [300]

    def test_duplicate_prefixes_last_insert_wins(self):
        """Re-announced prefixes: both engines keep the latest origin."""
        duplicated = ANNOUNCEMENTS + [("11.128.0.0/9", 999), ("0.0.0.0/0", 2)]
        trie, array = both_engines(duplicated)
        assert trie.announcement_count == array.announcement_count == len(
            ANNOUNCEMENTS
        )
        for address in ("11.129.0.1", "200.0.0.1"):
            expected = 999 if address.startswith("11.") else 2
            assert trie.lookup(parse_ip(address)) == expected
            assert array.lookup(parse_ip(address)) == expected

    def test_duplicate_addresses_in_batch(self):
        trie, array = both_engines(ANNOUNCEMENTS)
        batch = np.array(
            [parse_ip("13.13.0.7")] * 3 + [parse_ip("11.0.0.1")] * 2,
            dtype=np.int64,
        )
        assert (array.lookup_many(batch) == trie.lookup_many(batch)).all()

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            max_size=64,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_trie_on_random_addresses(self, addresses):
        trie, array = both_engines(ANNOUNCEMENTS[:-1])  # no default route
        batch = np.asarray(addresses, dtype=np.int64)
        assert (array.lookup_many(batch) == trie.lookup_many(batch)).all()


def _bits(value):
    """A value with every float replaced by its IEEE-754 bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    return value


def paths_identical(a, b):
    """Every :class:`PlannedPath` slot equal, hop columns included, with
    floats compared at full float64 bits."""
    return all(
        _bits(getattr(a, slot)) == _bits(getattr(b, slot))
        for slot in PlannedPath.__slots__
    )


@pytest.fixture(scope="module")
def planners(world):
    def make(reference, route_policy=None):
        return (ReferencePlanner if reference else PathPlanner)(
            topology=world.topology,
            wans=world.wans,
            region_addresses=world.region_addresses,
            config=world.config,
            countries=world.countries,
            pair_entropy=world.rngs.seed,
            route_policy=route_policy,
        )

    return make


@pytest.fixture(scope="module")
def sample_pairs(world):
    regions = list(world.catalog)
    probes = list(world.atlas.probes)[:120]
    return [
        (probe, regions[i % len(regions)]) for i, probe in enumerate(probes)
    ]


def assert_rows_match_reference(planner, rows, pairs, reference):
    """``planner.path(row)`` equals the reference's path of each pair."""
    for row, (probe, region) in zip(rows, pairs):
        assert paths_identical(
            planner.path(row), reference.plan(probe, region)
        ), (probe.probe_id, region.region_id)


class TestPlannerParity:
    def test_cached_prep_matches_legacy(self, planners, sample_pairs):
        """Route-meta cached preparation is bit-identical to the
        per-pair reference, across probes, providers and regions."""
        reference = planners(True)
        cached = planners(False)
        for probe, region in sample_pairs:
            assert paths_identical(
                cached.plan(probe, region), reference.plan(probe, region)
            ), (probe.probe_id, region.region_id)

    def test_plan_many_matches_scalar_plan(self, planners, world):
        """A pair plans identically alone, inside a large shuffled batch
        with duplicates, and split across two batches -- the property a
        resumed checkpointed campaign relies on."""
        regions = list(world.catalog)
        probes = list(world.atlas.probes)[:120]
        distinct = [
            (probe, regions[(7 * i + shift) % len(regions)])
            for i, probe in enumerate(probes)
            for shift in range(4)
        ]
        order = np.random.default_rng(0).permutation(2 * len(distinct))
        batch = [(distinct + distinct)[i] for i in order]
        scalar_planner = planners(False)
        alone = {
            (probe.probe_id, region.region_id): scalar_planner.plan(probe, region)
            for probe, region in distinct
        }
        split_planner = planners(False)
        half = len(batch) // 3
        split = split_planner.plan_many(
            pair_requests(batch[:half])
        ) + split_planner.plan_many(pair_requests(batch[half:]))
        batch_planner = planners(False)
        batched = batch_planner.plan_many(pair_requests(batch))
        for (probe, region), one, other in zip(batch, batched, split):
            expected = alone[(probe.probe_id, region.region_id)]
            assert paths_identical(batch_planner.path(one), expected)
            assert paths_identical(split_planner.path(other), expected)

    def test_empty_batch(self, planners):
        planner = planners(False)
        assert planner.plan_many(pair_requests([])) == []
        assert planner.table.rows == 0

    def test_single_pair_batch(self, planners, sample_pairs):
        planner = planners(False)
        (row,) = planner.plan_many(pair_requests(sample_pairs[:1]))
        assert paths_identical(
            planner.path(row), planners(False).plan(*sample_pairs[0])
        )

    def test_duplicate_pairs_in_batch_share_one_path(
        self, planners, sample_pairs
    ):
        """Repeats inside one batch dedupe to a single row and consume
        the pair's RNG draws exactly once."""
        planner = planners(False)
        pair = sample_pairs[0]
        first, second, third = planner.plan_many(
            pair_requests([pair, pair, pair])
        )
        assert first is second is third
        assert planner.table.rows == 1
        assert paths_identical(planner.path(first), planners(False).plan(*pair))

    def test_duplicates_within_a_batch_match_the_reference(
        self, planners, sample_pairs
    ):
        batch = [
            pair for pair in sample_pairs[:20] for _ in range(3)
        ] + sample_pairs[:20]
        planner = planners(False)
        rows = planner.plan_many(pair_requests(batch))
        assert planner.table.rows == 20
        assert_rows_match_reference(planner, rows, batch, planners(True))

    def test_direct_ixp_pairs_get_their_exchange_port(self, planners, world):
        """DIRECT_IXP paths insert an IXP port after the ISP's routers;
        the view matches the reference slot for slot."""
        reference = planners(True)
        regions = list(world.catalog)
        candidates = [
            (probe, region)
            for probe in world.speedchecker.probes[:400]
            for region in regions[::5]
        ]
        pairs = [
            pair
            for pair in candidates
            if reference.plan(*pair).interconnect.value == "direct_ixp"
        ][:25]
        assert pairs, "no DIRECT_IXP pair among the candidates"
        planner = planners(False)
        rows = planner.plan_many(pair_requests(pairs))
        assert_rows_match_reference(planner, rows, pairs, reference)
        for row in rows:
            path = planner.path(row)
            port = path.hop_kinds.index("ixp")
            assert path.hop_asns[port] is None
            assert path.hop_ixp_ids[port] is not None
            assert path.hop_asns[port - 1] == path.as_path[0]
            assert path.hop_asns[port + 1] == path.as_path[-1]
            # The port reports the RTT of the cloud router after it.
            assert path.hop_base_rtts[port] == path.hop_base_rtts[port + 1]

    def test_batches_across_the_growth_boundary(self, planners, world):
        """Batches that reallocate the table's columns keep every earlier
        row intact."""
        regions = list(world.catalog)
        probes = list(world.speedchecker.probes)
        pairs = [
            (probe, regions[(11 * i + shift) % len(regions)])
            for i, probe in enumerate(probes[:700])
            for shift in range(2)
        ]
        planner = planners(False)
        rows = []
        for start, stop in ((0, 1000), (1000, 1030), (1030, 1400)):
            capacity = len(planner.table.base_rtt)
            rows += planner.plan_many(pair_requests(pairs[start:stop]))
            if start == 1000:
                assert len(planner.table.base_rtt) > capacity
        assert rows == list(range(len(pairs)))
        assert_rows_match_reference(planner, rows, pairs, planners(True))

    def test_rows_planned_under_a_policy_token(self, planners, world):
        """A failover token namespaces rows; their views equal the
        reference's routing through the same policy state."""
        topology = world.topology
        pairs = [
            (probe, region)
            for probe in world.speedchecker.probes[:60]
            for region in list(world.catalog)[::40]
        ]
        policy = FailoverPathPolicy()
        probe, region = pairs[0]
        policy.mark_path_down(
            policy.path_key(
                topology, probe.isp_asn, region.provider_code, probe.continent
            )
        )
        planner = planners(False, route_policy=policy)
        pairs = [
            pair
            for pair in pairs
            if policy.as_path(
                topology, pair[0].isp_asn, pair[1].provider_code, pair[0].continent
            )
            is not None
        ]
        rows = planner.plan_many(pair_requests(pairs))
        assert_rows_match_reference(
            planner, rows, pairs, planners(True, route_policy=policy)
        )
        baseline = planners(False)
        assert any(
            planner.path(row).as_path != baseline.plan(*pair).as_path
            for row, pair in zip(rows, pairs)
        ), "the downed path planned its baseline route"

    def test_an_epoch_replans_only_the_routes_on_a_downed_link(
        self, planners, world
    ):
        """Under an epoch view, a pair whose baseline route rides no
        downed link returns its baseline row; a pair whose route does
        gets a new row, planned over the eager re-converged route."""
        topology = world.topology
        regions = list(world.catalog)
        pairs = [
            (probe, regions[(7 * i) % len(regions)])
            for i, probe in enumerate(world.speedchecker.probes[:300])
        ]

        def links(pair):
            probe, region = pair
            path = topology.as_path(
                probe.isp_asn, region.provider_code, probe.continent
            )
            return {frozenset(link) for link in zip(path, path[1:])}

        riders: dict = {}
        for pair in pairs:
            for link in links(pair):
                riders[link] = riders.get(link, 0) + 1
        # The busiest inter-AS link that some routes do not ride.
        link = max(
            (link for link, count in riders.items() if count < len(pairs)),
            key=lambda link: (riders[link], sorted(link)),
        )
        downed = frozenset({tuple(sorted(link))})
        eager = EpochRoutes(topology)
        pairs = [
            pair
            for pair in pairs
            if eager.table(pair[1].provider_code, pair[0].continent, downed)
            .as_path(pair[0].isp_asn)
            is not None
        ]
        affected = [link in links(pair) for pair in pairs]
        assert 0 < sum(affected) < len(pairs)

        policy = FailoverPathPolicy()
        planner = planners(False, route_policy=policy)
        baseline = planner.plan_many(pair_requests(pairs))
        planned = planner.table.rows
        policy.set_view(EpochTopologyView(topology, downed))
        rows = planner.plan_many(pair_requests(pairs))
        new_pairs = {
            (probe.probe_id, region.region_id)
            for (probe, region), hit in zip(pairs, affected)
            if hit
        }
        assert planner.table.rows == planned + len(new_pairs)
        reference = planners(True, route_policy=policy)
        for row, base, pair, hit in zip(rows, baseline, pairs, affected):
            if not hit:
                assert row is base
                continue
            assert row >= planned
            path = planner.path(row)
            assert link not in {
                frozenset(hop) for hop in zip(path.as_path, path.as_path[1:])
            }
            assert paths_identical(path, reference.plan(*pair))

    def test_a_cached_pair_returns_its_row_object(self, planners, world):
        """Past the interpreter's shared small ints, too."""
        regions = list(world.catalog)
        pairs = [
            (probe, regions[i % len(regions)])
            for i, probe in enumerate(world.speedchecker.probes[:400])
        ]
        planner = planners(False)
        rows = planner.plan_many(pair_requests(pairs))
        assert rows[-1] > 256
        again = planner.plan_many(pair_requests(list(reversed(pairs))))
        assert all(a is b for a, b in zip(rows, reversed(again)))
        assert planner.table.rows == len(rows)

    def test_views_do_not_change_after_later_appends(
        self, planners, sample_pairs, world
    ):
        planner = planners(False)
        rows = planner.plan_many(pair_requests(sample_pairs[:10]))
        views = [planner.path(row) for row in rows]
        snapshots = [
            [getattr(view, slot) for slot in PlannedPath.__slots__]
            for view in views
        ]
        regions = list(world.catalog)
        planner.plan_many(
            pair_requests(
                [
                    (probe, regions[(3 * i) % len(regions)])
                    for i, probe in enumerate(world.speedchecker.probes[:1500])
                ]
            )
        )
        for view, snapshot, row in zip(views, snapshots, rows):
            assert [getattr(view, slot) for slot in PlannedPath.__slots__] == (
                snapshot
            )
            assert paths_identical(planner.path(row), view)
