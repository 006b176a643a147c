"""Shared benchmark fixtures.

Each ``bench_<artifact>.py`` regenerates one table or figure of the
paper: the benchmark measures the analysis cost over a pre-collected
campaign dataset, and the regenerated rows/series are printed so the
output can be compared side-by-side with the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro import build_world, run_campaign
from repro.experiments import StudyContext, run_experiment

BENCH_SEED = 7
BENCH_SCALE = 0.02
BENCH_DAYS = 21


@pytest.fixture(scope="session")
def world():
    return build_world(seed=BENCH_SEED, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def dataset(world):
    return run_campaign(world, days=BENCH_DAYS)


@pytest.fixture(scope="module")
def store_dir(dataset, tmp_path_factory):
    """The campaign dataset re-sharded into a binary store.

    Module-scoped: each bench module that mutates run-dir state (query
    caches, exports) gets its own instance.
    """
    from collections import defaultdict

    from repro.measure.results import (
        ping_block_from_records,
        trace_block_from_records,
    )
    from repro.store import DatasetStore

    run_dir = tmp_path_factory.mktemp("bench-store") / "run"
    pings_by_unit = defaultdict(list)
    traces_by_unit = defaultdict(list)
    for ping in dataset.pings():
        pings_by_unit[(ping.meta.platform, ping.meta.day)].append(ping)
    for trace in dataset.traceroutes():
        traces_by_unit[(trace.meta.platform, trace.meta.day)].append(trace)
    store = DatasetStore.create(run_dir, source="benchmark")
    for platform, day in sorted(set(pings_by_unit) | set(traces_by_unit)):
        store.flush_unit(
            f"{platform}:{day:03d}",
            ping_block=ping_block_from_records(
                pings_by_unit.get((platform, day), [])
            ),
            trace_block=trace_block_from_records(
                traces_by_unit.get((platform, day), [])
            ),
        )
    return run_dir


@pytest.fixture(scope="session")
def context(world, dataset):
    context = StudyContext(world, dataset)
    # Resolve traceroutes into the shared resolved block once up-front so
    # individual benches measure the per-figure group-bys, not the
    # resolution pass.
    context.resolved_traces
    return context


def bench_experiment(benchmark, experiment_id, world, dataset, context, rounds=3):
    """Run one experiment under the benchmark and print its rendering."""
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id, world, dataset),
        kwargs={"context": context},
        rounds=rounds,
        iterations=1,
    )
    print()
    print(result.render())
    return result
