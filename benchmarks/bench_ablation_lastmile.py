"""Ablation: wireless last-mile on/off.

Quantifies the paper's section-5 takeaway from the other direction: with
every Speedchecker probe forced onto a wired last-mile, the global
nearest-DC median drops by roughly the wireless/wired gap (~10-15 ms).
"""

import numpy as np

from repro import SimulationConfig, build_world, run_campaign
from repro.analysis.nearest import nearest_samples_by_continent

SEED = 11
SCALE = 0.01
DAYS = 5


def median_nearest(world):
    dataset = run_campaign(world, days=DAYS, platforms=("speedchecker",))
    grouped = nearest_samples_by_continent(dataset, "speedchecker")
    return float(np.median([s for values in grouped.values() for s in values]))


def test_wireless_vs_wired_last_mile(benchmark):
    def run():
        wireless = build_world(
            seed=SEED, scale=SCALE, config=SimulationConfig(seed=SEED, scale=SCALE)
        )
        wired = build_world(
            seed=SEED,
            scale=SCALE,
            config=SimulationConfig(
                seed=SEED, scale=SCALE, wireless_last_mile=False
            ),
        )
        return median_nearest(wireless), median_nearest(wired)

    wireless_median, wired_median = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nnearest-DC median: wireless={wireless_median:.1f} ms, "
        f"wired={wired_median:.1f} ms, gap={wireless_median - wired_median:.1f} ms"
    )
    assert wireless_median > wired_median
