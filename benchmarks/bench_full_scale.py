"""Full-scale gate: the paper's 115k-probe/195-region world, budgeted.

Builds the ``scale=1.0`` world, runs one checkpointed campaign day, and
enforces declared wall-clock *and* peak-RSS budgets, then measures the
pre- vs post-optimization speedup of the profiled substrate hot paths
on a 20%-scale campaign-day workload (docs/PERFORMANCE.md, "Full
scale").  Every measurement lands in ``BENCH_full_scale.json`` so CI
archives the numbers run over run.

The A/B baseline is real: the pre-optimization implementations are the
parity oracles in ``tests/oracles/`` (the per-node routing sweep, the
per-address trie lookup, the per-pair planner), so "legacy" below is
the seed code path, not a simulation of it.

Budget calibration (this repo's dev container; CI gets ~4x headroom):
world build 1.4 s / 106 MB peak, one campaign day 3.0 s / 387 MB peak.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from memprof import peak_rss_mb
from repro import build_world, run_campaign
from repro.exec import canonical_store_digest, fork_available, store_digest
from repro.measure.campaign import run_campaign_checkpointed
from repro.measure.path import PathPlanner, PlannedPath
from repro.measure.requests import pair_requests
from repro.net.routing import clear_route_cache, compute_routes
from repro.resolve.pyasn import PyASNResolver

# The legacy side of the A/B runs the parity oracles under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles.lpm import ReferencePyASN  # noqa: E402
from oracles.planner import ReferencePlanner  # noqa: E402
from oracles.routing import compute_routes_reference  # noqa: E402

FULL_SEED = 7
FULL_SCALE = 1.0

#: Wall-clock budgets, seconds.
BUILD_BUDGET_S = 60.0
DAY_BUDGET_S = 180.0
#: Peak-RSS budgets, MB (``ru_maxrss`` high-water mark of the process).
BUILD_RSS_BUDGET_MB = 512.0
DAY_RSS_BUDGET_MB = 1536.0

#: The hot-path A/B runs on a 20%-scale campaign-day workload.
HOT_PATH_SCALE = 0.2
HOT_PATH_MIN_SPEEDUP = 3.0

RESULTS_PATH = Path(os.environ.get("BENCH_FULL_SCALE_JSON", "BENCH_full_scale.json"))

WORKERS = 4

#: ``store_digest`` of the seed-7 full-scale store over two days.  Every
#: change to scheduling, planning or sampling must keep these bytes;
#: re-pin only for a deliberate change of what a campaign draws.
GOLDEN_DAYS = 2
GOLDEN_WORKERS = 2
GOLDEN_STORE_DIGEST = (
    "d88d31b6966eff58a8ce51585ecae3e77521f695353d175c4f25faa62a69701c"
)


@pytest.fixture(scope="module")
def results():
    """Accumulates every measurement; written as JSON on teardown."""
    data: dict = {
        "schema": "bench-full-scale/1",
        "seed": FULL_SEED,
        "scale": FULL_SCALE,
        "budgets": {
            "build_s": BUILD_BUDGET_S,
            "campaign_day_s": DAY_BUDGET_S,
            "build_peak_rss_mb": BUILD_RSS_BUDGET_MB,
            "campaign_day_peak_rss_mb": DAY_RSS_BUDGET_MB,
            "hot_path_min_speedup": HOT_PATH_MIN_SPEEDUP,
        },
    }
    yield data
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\nfull-scale benchmark results written to {RESULTS_PATH}")


@pytest.fixture(scope="module")
def full_world(results):
    start = time.perf_counter()
    world = build_world(seed=FULL_SEED, scale=FULL_SCALE)
    elapsed = time.perf_counter() - start
    results["build"] = {
        "seconds": round(elapsed, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    return world


def test_world_size_accounting(results, full_world):
    """The config-only size estimate matches the built world."""
    estimate = full_world.config.world_size()
    actual_probes = len(list(full_world.speedchecker.probes)) + len(
        list(full_world.atlas.probes)
    )
    results["world_size"] = {
        "estimated_probes": estimate.total_probes,
        "actual_probes": actual_probes,
        "estimated_build_rss_mb": round(estimate.estimated_build_rss_mb, 1),
        "speedchecker_daily_quota": estimate.speedchecker_daily_quota,
    }
    # Per-country allocation rounds independently, so the built fleet
    # can drift from the config-level product by a handful of probes.
    assert abs(estimate.total_probes - actual_probes) <= max(
        16, actual_probes // 100
    )
    # The RSS model only needs to be good enough to budget with.
    assert estimate.estimated_build_rss_mb <= BUILD_RSS_BUDGET_MB


def test_full_scale_build_within_budget(results, full_world):
    build = results["build"]
    print(
        f"\nfull-scale build: {build['seconds']:.2f}s "
        f"(budget {BUILD_BUDGET_S:.0f}s), peak RSS {build['peak_rss_mb']:.0f}MB "
        f"(budget {BUILD_RSS_BUDGET_MB:.0f}MB)"
    )
    assert build["seconds"] <= BUILD_BUDGET_S
    assert build["peak_rss_mb"] <= BUILD_RSS_BUDGET_MB


def test_full_scale_campaign_day_within_budget(results, full_world, tmp_path):
    start = time.perf_counter()
    store = run_campaign_checkpointed(full_world, tmp_path / "day", days=1)
    elapsed = time.perf_counter() - start
    rss = peak_rss_mb()
    units = len(store.completed_units())
    results["campaign_day"] = {
        "seconds": round(elapsed, 3),
        "peak_rss_mb": round(rss, 1),
        "units": units,
    }
    print(
        f"\nfull-scale campaign day: {elapsed:.2f}s "
        f"(budget {DAY_BUDGET_S:.0f}s), peak RSS {rss:.0f}MB "
        f"(budget {DAY_RSS_BUDGET_MB:.0f}MB), {units} units"
    )
    assert units == 2
    assert elapsed <= DAY_BUDGET_S
    assert rss <= DAY_RSS_BUDGET_MB


def test_full_scale_parallel_identity(results, full_world, tmp_path):
    """Serial and 4-worker full-scale stores are file-for-file identical."""
    if not fork_available():
        pytest.skip("parallel execution needs fork")
    run_campaign_checkpointed(full_world, tmp_path / "serial", days=1, workers=1)
    run_campaign_checkpointed(
        full_world, tmp_path / "parallel", days=1, workers=WORKERS
    )
    serial = canonical_store_digest(tmp_path / "serial")
    parallel = canonical_store_digest(tmp_path / "parallel")
    results["parallel_identity"] = {
        "workers": WORKERS,
        "identical": serial == parallel,
        "digest": serial,
        "worker_peak_rss_mb": round(peak_rss_mb(include_children=True), 1),
    }
    assert serial == parallel


def test_full_scale_store_golden(results, full_world, tmp_path):
    """The two-day full-scale store, on two workers, is the pinned one."""
    workers = GOLDEN_WORKERS if fork_available() else 1
    start = time.perf_counter()
    run_campaign_checkpointed(
        full_world, tmp_path / "golden", days=GOLDEN_DAYS, workers=workers
    )
    elapsed = time.perf_counter() - start
    digest = store_digest(tmp_path / "golden")
    results["golden_store"] = {
        "days": GOLDEN_DAYS,
        "workers": workers,
        "seconds": round(elapsed, 3),
        "digest": digest,
    }
    assert digest == GOLDEN_STORE_DIGEST


def test_hot_path_speedup(results):
    """Pre- vs post-optimization substrate on a 20%-scale day workload.

    Three stages, each timed with its seed implementation against the
    vectorized one: valley-free route computation (reference Python
    sweep vs NumPy adjacency arrays, shared memo cleared so both run
    cold), prefix/AS resolution (per-address radix-trie walks vs one
    ``np.searchsorted`` pass, over the unique hop addresses of a real
    campaign day), and path planning (per-pair preparation vs the
    route-meta cache, over a day-sized pair batch).  The gate applies to
    the resolution stage -- the hot path profiling singled out as the
    last per-element Python on the critical path; the other stages and
    the aggregate are recorded for trend tracking.
    """
    world = build_world(seed=FULL_SEED, scale=HOT_PATH_SCALE)
    topo = world.topology
    dataset = run_campaign(world, days=1)
    addresses = np.asarray(
        sorted(
            {
                hop.address
                for trace in dataset.traceroutes()
                for hop in trace.hops
                if hop.address is not None
            }
        ),
        dtype=np.int64,
    )

    # -- routing: every (network, continent) table a day can need.
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
    jobs = [(network, c) for network in networks for c in continents]
    start = time.perf_counter()
    for network, continent in jobs:
        graph = topo.graph_for(network, continent)
        compute_routes_reference(
            graph, topo.peerings[network].cloud_asn, topo.policy
        )
    routing_legacy = time.perf_counter() - start
    clear_route_cache()
    start = time.perf_counter()
    for network, continent in jobs:
        graph = topo.graph_for(network, continent)
        compute_routes(graph, topo.peerings[network].cloud_asn, topo.policy)
    routing_opt = time.perf_counter() - start

    # -- resolution: the day's unique hop addresses through both engines.
    announcements = list(topo.registry.prefix_table())
    trie = ReferencePyASN(announcements)
    array = PyASNResolver(announcements)
    array.lookup(int(addresses[0]))  # compile outside the timed region
    start = time.perf_counter()
    trie_asns = trie.lookup_many(addresses)
    resolve_legacy = time.perf_counter() - start
    start = time.perf_counter()
    array_asns = array.lookup_many(addresses)
    resolve_opt = time.perf_counter() - start
    assert (trie_asns == array_asns).all()

    # -- planning: a day-sized pair batch, cold planner caches each side.
    regions = list(world.catalog)
    probes = list(world.atlas.probes)
    pairs = [
        (probe, regions[i % len(regions)])
        for i, probe in enumerate(probes * 5)
    ]

    def planner(legacy: bool) -> PathPlanner:
        return (ReferencePlanner if legacy else PathPlanner)(
            topology=topo,
            wans=world.wans,
            region_addresses=world.region_addresses,
            config=world.config,
            countries=world.countries,
            pair_entropy=world.rngs.seed,
        )

    legacy_planner = planner(True)
    start = time.perf_counter()
    legacy_rows = [legacy_planner.plan_many([pair])[0] for pair in pairs]
    plan_legacy = time.perf_counter() - start
    batch_planner = planner(False)
    start = time.perf_counter()
    batch_rows = batch_planner.plan_many(pair_requests(pairs))
    plan_opt = time.perf_counter() - start
    assert len(legacy_rows) == len(batch_rows)
    assert all(
        getattr(a, slot) == getattr(b, slot)
        for a, b in zip(
            map(legacy_planner.path, legacy_rows),
            map(batch_planner.path, batch_rows),
        )
        for slot in PlannedPath.__slots__
    )

    stages = {
        "routing": (routing_legacy, routing_opt, f"{len(jobs)} tables"),
        "resolve": (resolve_legacy, resolve_opt, f"{len(addresses)} addresses"),
        "planning": (plan_legacy, plan_opt, f"{len(pairs)} pairs"),
    }
    total_legacy = sum(legacy for legacy, _, _ in stages.values())
    total_opt = sum(opt for _, opt, _ in stages.values())
    hot_path_speedup = resolve_legacy / resolve_opt
    results["hot_path"] = {
        "scale": HOT_PATH_SCALE,
        "stages": {
            name: {
                "workload": workload,
                "legacy_s": round(legacy, 4),
                "optimized_s": round(opt, 4),
                "speedup": round(legacy / opt, 2),
            }
            for name, (legacy, opt, workload) in stages.items()
        },
        "aggregate_speedup": round(total_legacy / total_opt, 2),
        "hot_path_speedup": round(hot_path_speedup, 2),
        "min_required": HOT_PATH_MIN_SPEEDUP,
    }
    for name, (legacy, opt, workload) in stages.items():
        print(
            f"\n{name} ({workload}): legacy {legacy:.3f}s, "
            f"optimized {opt:.3f}s, {legacy / opt:.1f}x"
        )
    print(
        f"aggregate: {total_legacy:.3f}s -> {total_opt:.3f}s "
        f"({total_legacy / total_opt:.1f}x); hot path (resolve): "
        f"{hot_path_speedup:.1f}x (gate: >={HOT_PATH_MIN_SPEEDUP:.0f}x)"
    )
    assert hot_path_speedup >= HOT_PATH_MIN_SPEEDUP
