"""Reproducibility: the same seed must produce the same study."""

import hashlib

import pytest

from repro import build_world, run_campaign
from repro.experiments import StudyContext, run_experiment

#: The experiments that measure their own requests (the Fig. 6 sweeps
#: and the four peering case studies), in registry order.
FOCUSED_STUDIES = ("fig6a", "fig6b", "fig12", "fig13", "fig17", "fig18")


def dataset_digest(dataset) -> str:
    hasher = hashlib.sha256()
    for ping in dataset.pings():
        hasher.update(ping.meta.probe_id.encode())
        hasher.update(ping.meta.region_id.encode())
        hasher.update(repr(ping.samples).encode())
    for trace in dataset.traceroutes():
        hasher.update(trace.meta.probe_id.encode())
        hasher.update(repr([(h.address, h.rtt_ms) for h in trace.hops]).encode())
    return hasher.hexdigest()


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        first = run_campaign(build_world(seed=99, scale=0.006), days=3)
        second = run_campaign(build_world(seed=99, scale=0.006), days=3)
        assert dataset_digest(first) == dataset_digest(second)

    def test_different_seed_different_dataset(self):
        first = run_campaign(build_world(seed=99, scale=0.006), days=3)
        second = run_campaign(build_world(seed=100, scale=0.006), days=3)
        assert dataset_digest(first) != dataset_digest(second)

    def test_same_seed_same_topology(self):
        a = build_world(seed=55, scale=0.006)
        b = build_world(seed=55, scale=0.006)
        assert len(a.topology.registry) == len(b.topology.registry)
        assert a.topology.base_graph.edge_count() == b.topology.base_graph.edge_count()
        for code in ("GCP", "DO"):
            assert (
                a.topology.peerings[code].direct_isps
                == b.topology.peerings[code].direct_isps
            )

    def test_same_seed_same_probe_fleet(self):
        a = build_world(seed=55, scale=0.006)
        b = build_world(seed=55, scale=0.006)
        ids_a = [p.probe_id for p in a.speedchecker.probes]
        ids_b = [p.probe_id for p in b.speedchecker.probes]
        assert ids_a == ids_b
        assert [p.public_address for p in a.speedchecker.probes] == [
            p.public_address for p in b.speedchecker.probes
        ]


class TestExperimentPurity:
    """An experiment renders the same whatever ran before it on a world."""

    def test_focused_studies_ignore_run_order(self, world, dataset):
        def renders(order):
            context = StudyContext(world, dataset)
            return {
                experiment_id: run_experiment(
                    experiment_id, world, dataset, context=context
                ).render()
                for experiment_id in order
            }

        assert renders(FOCUSED_STUDIES) == renders(FOCUSED_STUDIES[::-1])

    @pytest.mark.parametrize("experiment_id", ("fig5", "fig16"))
    def test_platform_comparison_repeats(self, experiment_id, world, dataset):
        first, second = (
            run_experiment(
                experiment_id, world, dataset, context=StudyContext(world, dataset)
            ).render()
            for _ in range(2)
        )
        assert first == second

    def test_study_contexts_drop_the_same_rib_announcements(self, world, dataset):
        """Both resolvers miss the same prefixes, so they fall back to
        Cymru for the same addresses."""
        queries = []
        for _ in range(2):
            context = StudyContext(world, dataset)
            assert context.resolved_traces
            queries.append(context.resolver.cymru_query_count)
        assert queries[0] == queries[1] > 0
