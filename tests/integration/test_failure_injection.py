"""Failure injection: the pipeline degrades gracefully under hostile
measurement conditions (dark traceroutes, empty RIBs, starved quotas)."""

from dataclasses import replace

import numpy as np

from helpers import traceroutes

from repro import SimulationConfig, build_world, run_campaign
from repro.analysis.peering import CATEGORIES, DIRECT, ONE_IXP, classify_traces
from repro.core.config import CampaignConfig, PathModelConfig, PlatformConfig
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import trace_block_from_records
from repro.resolve.pipeline import TracerouteResolver

SEED = 41
SCALE = 0.006


def world_with(path_model=None, platforms=None, campaign=None, **kwargs):
    config = SimulationConfig(seed=SEED, scale=SCALE, **kwargs)
    if path_model is not None:
        config = replace(config, path_model=path_model)
    if platforms is not None:
        config = replace(config, platforms=platforms)
    if campaign is not None:
        config = replace(config, campaign=campaign)
    return build_world(seed=SEED, scale=SCALE, config=config)


class TestDarkTraceroutes:
    def test_fully_unresponsive_hops_never_crash_resolution(self):
        world = world_with(
            path_model=PathModelConfig(hop_unresponsive_probability=1.0)
        )
        probe = world.speedchecker.probes[0]
        region = world.catalog.all()[0]
        block = world.engine.traceroute_batch(
            TraceRequests.from_records([TraceRequest(probe=probe, region=region)])
        )
        trace = block.record(0)
        # Destination hop always answers (it is the measured endpoint),
        # every intermediate hop is dark.
        dark = [h for h in trace.hops if not h.responded]
        assert len(dark) >= len(trace.hops) - 2
        resolver = TracerouteResolver(
            world.topology.registry, world.topology.ixps, rib_coverage=1.0
        )
        resolved = resolver.resolve_many(block)
        # Home probes still classify from their (local) router hop;
        # the ISP segment is gone.
        assert np.isnan(resolved.usr_isp_rtts).all()
        # No intermediate AS is visible: the path is direct or
        # unclassifiable.
        assert classify_traces(resolved).tolist()[0] in (
            -1,
            CATEGORIES.index(DIRECT),
            CATEGORIES.index(ONE_IXP),
        )

    def test_high_loss_campaign_still_supports_peering_analysis(self):
        world = world_with(
            path_model=PathModelConfig(hop_unresponsive_probability=0.5)
        )
        dataset = run_campaign(world, days=2, platforms=("speedchecker",))
        from repro.experiments import StudyContext
        from repro.analysis.peering import provider_breakdowns

        context = StudyContext(world, dataset)
        breakdowns = provider_breakdowns(context.resolved_traces, min_paths=5)
        assert breakdowns  # classifiable paths survive 50% hop loss


class TestEmptyRib:
    def test_everything_falls_back_to_cymru(self):
        world = world_with()
        dataset = run_campaign(world, days=1, platforms=("speedchecker",))
        resolver = TracerouteResolver(
            world.topology.registry,
            world.topology.ixps,
            rib_coverage=0.01,
            rng=world.rngs.fork("empty-rib", 0),
        )
        traces = list(traceroutes(dataset))[:50]
        resolved = resolver.resolve_many(trace_block_from_records(traces))
        assert resolver.cymru_query_count > 0
        # AS paths still come out whole thanks to the fallback.
        assert (np.diff(resolved.as_path_offsets) >= 2).any()


class TestStarvedQuota:
    def test_tiny_quota_caps_volume_without_crashing(self):
        tiny = world_with(
            platforms=PlatformConfig(speedchecker_daily_quota=1)
        )
        # scaled quota floors at 50 requests/day.
        dataset = run_campaign(tiny, days=2, platforms=("speedchecker",))
        assert 0 < dataset.ping_count <= 2 * tiny.speedchecker.daily_quota

    def test_zero_traceroute_share(self):
        world = world_with(
            campaign=CampaignConfig(traceroute_share=0.0)
        )
        dataset = run_campaign(world, days=1, platforms=("speedchecker",))
        assert dataset.ping_count > 0
        assert dataset.traceroute_count == 0


class TestDegenerateGeography:
    def test_probe_on_datacenter_site(self):
        world = world_with()
        region = world.catalog.all()[0]
        probe = world.speedchecker.probes[0]
        probe.location = region.location  # park the probe on the DC
        ping = world.engine.ping_batch(
            PingRequests.from_records([PingRequest(probe=probe, region=region)])
        ).record(0)
        assert all(sample > 0 for sample in ping.samples)

    def test_antipodal_measurement(self):
        world = world_with()
        probe = next(
            p for p in world.speedchecker.probes if p.country == "NZ"
        )
        region = next(
            r for r in world.catalog.all() if r.country == "ES"
        )
        ping = world.engine.ping_batch(
            PingRequests.from_records([PingRequest(probe=probe, region=region)])
        ).record(0)
        # Antipodal RTT stays below a sanity ceiling even with jitter.
        assert all(50.0 < sample < 3000.0 for sample in ping.samples)
