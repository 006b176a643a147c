"""Dynamic-topology benchmarks: the re-convergence overhead gate.

The contract of ``repro.netfaults`` (docs/DYNAMIC_TOPOLOGY.md): an
active network-event plan -- per-epoch route re-convergence, failover
path selection, and provenance columns included -- may cost at most
**20% wall-clock overhead** over a static-world campaign day.  The
epoch views aim at that: only a route whose baseline path rides a
removed edge re-plans and re-converges its (provider, continent) scope,
and per-epoch tables are re-used across units through the shared view
cache.  On a 2-CPU VM the gate does not hold (docs/DYNAMIC_TOPOLOGY.md).

Runs on a 20%-scale world (the same workload class as the parallel
benchmarks) with a dense flap-heavy event mix, so the benchmark
measures real re-convergence work, not an accidentally-empty schedule.
Every measurement lands in ``BENCH_netfaults.json`` so CI archives the
trend.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from memprof import peak_rss_mb
from repro import build_world
from repro.measure.campaign import run_campaign_checkpointed
from repro.netfaults import NetworkFaultConfig, NetworkFaultPlan

NETFAULT_SEED = 7
NETFAULT_SCALE = 0.2
NETFAULT_DAYS = 1
ROUNDS = 4

#: Maximum tolerated wall-clock overhead of an active event plan over
#: the static-world day (best-of-rounds against best-of-rounds).
MAX_OVERHEAD = 0.20

#: Dense event mix: several epochs per day and edges that sit on
#: measured baseline paths (cloud-side peering flaps), so every unit
#: pays for re-convergence and failover rerouting.
BENCH_NETFAULTS = NetworkFaultConfig(
    link_failure_rate=0.4,
    peering_flap_rate=0.9,
    regional_outage_rate=0.3,
    max_events_per_day=5,
    min_duration_slots=4,
    max_duration_slots=12,
)

RESULTS_PATH = Path(
    os.environ.get("BENCH_NETFAULTS_JSON", "BENCH_netfaults.json")
)


@pytest.fixture(scope="module")
def results():
    """Accumulates every measurement; written as JSON on teardown."""
    data: dict = {
        "schema": "bench-netfaults/1",
        "seed": NETFAULT_SEED,
        "scale": NETFAULT_SCALE,
        "days": NETFAULT_DAYS,
        "budgets": {"max_overhead": MAX_OVERHEAD},
        "config": {
            "link_failure_rate": BENCH_NETFAULTS.link_failure_rate,
            "peering_flap_rate": BENCH_NETFAULTS.peering_flap_rate,
            "regional_outage_rate": BENCH_NETFAULTS.regional_outage_rate,
            "max_events_per_day": BENCH_NETFAULTS.max_events_per_day,
        },
    }
    yield data
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\nnetfault benchmark results written to {RESULTS_PATH}")


@pytest.fixture(scope="module")
def netfault_world():
    return build_world(seed=NETFAULT_SEED, scale=NETFAULT_SCALE)


def _run_day(world, run_root, tag, round_index, netfaults):
    run_dir = run_root / f"{tag}-{round_index}"
    start = time.perf_counter()
    store = run_campaign_checkpointed(
        world, run_dir, days=NETFAULT_DAYS, netfaults=netfaults
    )
    return store, time.perf_counter() - start


def test_reconvergence_overhead_gate(
    results, netfault_world, tmp_path_factory
):
    """Active event plan <=20% slower than the static day (CI gate)."""
    run_root = tmp_path_factory.mktemp("bench-netfaults")
    plan = NetworkFaultPlan(
        NETFAULT_SEED,
        BENCH_NETFAULTS,
        netfault_world.topology,
        netfault_world.catalog,
    )
    timeline = plan.timeline(0)
    assert timeline.events, "benchmark schedule realized no events"

    static_times = []
    faulted_times = []
    for round_index in range(ROUNDS):
        _, static_s = _run_day(
            netfault_world, run_root, "static", round_index, None
        )
        faulted_store, faulted_s = _run_day(
            netfault_world, run_root, "faulted", round_index, BENCH_NETFAULTS
        )
        static_times.append(static_s)
        faulted_times.append(faulted_s)
    assert faulted_store.verify() == []

    static_best = min(static_times)
    faulted_best = min(faulted_times)
    overhead = faulted_best / static_best - 1.0
    results["reconvergence"] = {
        "static_best_s": round(static_best, 3),
        "faulted_best_s": round(faulted_best, 3),
        "overhead": round(overhead, 4),
        "events_day0": len(timeline.events),
        "epochs_day0": timeline.epoch_count,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    print(
        f"\nstatic day: {static_best:.2f}s, faulted day: {faulted_best:.2f}s "
        f"({len(timeline.events)} events, {timeline.epoch_count} epochs), "
        f"overhead: {overhead * 100.0:+.1f}%"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"re-convergence overhead {overhead * 100.0:.1f}% exceeds the "
        f"{MAX_OVERHEAD * 100.0:.0f}% budget"
    )


def test_epoch_view_reuse(results, netfault_world):
    """Re-requesting an epoch's routing view is effectively free: the
    plan memoizes per removed-edge-set, so the second pass over a day's
    epochs must be >=50x faster than the convergence pass."""
    plan = NetworkFaultPlan(
        NETFAULT_SEED,
        BENCH_NETFAULTS,
        netfault_world.topology,
        netfault_world.catalog,
    )
    timeline = plan.timeline(0)
    providers = [provider.code for provider in netfault_world.providers]
    continents = sorted(
        {
            probe.continent
            for probe in netfault_world.speedchecker.probes
        },
        key=lambda continent: continent.value,
    )

    def sweep():
        for epoch in range(timeline.epoch_count):
            view = plan.view(timeline.removed_edges(epoch))
            for code in providers:
                for continent in continents:
                    view.routes_for(code, continent)

    start = time.perf_counter()
    sweep()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    sweep()
    warm_s = time.perf_counter() - start
    speedup = cold_s / warm_s if warm_s else float("inf")
    results["view_reuse"] = {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 6),
        "speedup": round(speedup, 1),
    }
    print(
        f"\ncold epoch sweep: {cold_s * 1e3:.1f} ms, warm: "
        f"{warm_s * 1e3:.2f} ms, speedup: {speedup:.0f}x"
    )
    assert speedup >= 50.0, (
        f"warm epoch-view sweep is only {speedup:.0f}x faster than cold "
        "(contract: >=50x -- the view cache must absorb repeat lookups)"
    )
