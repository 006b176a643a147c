"""Microbenchmarks for the substrate: resolution, planning, measurement.

These are throughput numbers for the simulator itself (not paper
artifacts): how fast the PyASN-equivalent resolves addresses, how fast
paths plan, and how fast a campaign day executes.
"""

import numpy as np

from repro import run_campaign
from repro.measure.path import PathPlanner
from repro.measure.requests import PingRequest, PingRequests, pair_requests
from repro.resolve.pipeline import TracerouteResolver
from repro.resolve.pyasn import PyASNResolver


def test_pyasn_lookup_throughput(benchmark, world):
    resolver = PyASNResolver(world.topology.registry.prefix_table())
    rng = np.random.default_rng(0)
    prefixes = world.topology.registry.prefix_table()
    addresses = [
        prefix.address_at(int(rng.integers(0, prefix.size)))
        for prefix, _ in prefixes[:2000]
    ]

    def lookup_all():
        return sum(1 for address in addresses if resolver.lookup(address) is not None)

    resolved = benchmark(lookup_all)
    assert resolved == len(addresses)


def test_path_planning_throughput(benchmark, world):
    """Cold ``plan_many`` of 50 probes x every tenth region on a fresh
    pair-deterministic planner every round, as a checkpointed campaign
    unit plans its new pairs."""
    probes = world.speedchecker.probes[:50]
    regions = world.catalog.all()[::10]
    requests = pair_requests(
        [(probe, region) for probe in probes for region in regions]
    )

    def fresh_planner():
        planner = PathPlanner(
            topology=world.topology,
            wans=world.wans,
            region_addresses=world.region_addresses,
            config=world.config,
            countries=world.countries,
            pair_entropy=world.rngs.seed,
        )
        return (planner,), {}

    def plan_all(planner):
        return planner.plan_many(requests)

    planned = benchmark.pedantic(
        plan_all, setup=fresh_planner, rounds=10, iterations=1, warmup_rounds=1
    )
    assert len(planned) == len(requests)


def test_ping_throughput(benchmark, world):
    """50 pings through the vectorized batch API (one RNG pass)."""
    probe = world.speedchecker.probes[0]
    region = world.catalog.all()[0]
    requests = [
        PingRequest(probe=probe, region=region, samples=4) for _ in range(50)
    ]

    def ping_batch():
        return world.engine.ping_batch(PingRequests.from_records(requests))

    block = benchmark(ping_batch)
    assert len(block) == 50


def test_traceroute_resolution_throughput(benchmark, world, dataset):
    """The campaign's traceroutes resolved block by block into one
    ``ResolvedTraceBlock``, as the experiments resolve them, with a cold
    address table every round."""

    def fresh_resolver():
        resolver = TracerouteResolver(
            world.topology.registry,
            world.topology.ixps,
            rng=world.rngs.fork("bench-resolver", 0),
        )
        return (resolver,), {}

    def resolve_all(resolver):
        return resolver.resolve_dataset(dataset)

    resolved = benchmark.pedantic(
        resolve_all, setup=fresh_resolver, rounds=5, iterations=1
    )
    assert len(resolved) == dataset.traceroute_count


def test_campaign_day_throughput(benchmark, world):
    def one_day():
        return run_campaign(world, days=1, platforms=("speedchecker",))

    result = benchmark.pedantic(one_day, rounds=5, iterations=1, warmup_rounds=1)
    assert result.ping_count > 0
