"""Shared benchmark fixtures: a 2%-scale world, its three-week campaign,
and that campaign re-sharded into a binary store."""

from __future__ import annotations

import pytest

from repro import build_world, run_campaign

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
