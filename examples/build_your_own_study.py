"""Build a custom study: new configs, ablated worlds, saved datasets.

Demonstrates the library as a *tool* rather than a replay: a custom
configuration (an optimistic future with fibre-to-the-home last miles and
denser peering), a side-by-side comparison with the default world, a
flattening report, and dataset save/load.

Run with::

    python examples/build_your_own_study.py
"""

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import SimulationConfig, build_world, run_campaign
from repro.analysis.flattening import flatness_by_provider
from repro.analysis.nearest import nearest_samples_by_continent
from repro.analysis.report import format_percent, format_table
from repro.core.config import LastMileConfig
from repro.measure.io import load_dataset, save_dataset


def nearest_median(world, days):
    dataset = run_campaign(world, days=days, platforms=("speedchecker",))
    grouped = nearest_samples_by_continent(dataset, "speedchecker")
    samples = [s for values in grouped.values() for s in values]
    return float(np.median(samples)), dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--days", type=int, default=5)
    args = parser.parse_args()

    baseline_config = SimulationConfig(seed=args.seed, scale=args.scale)
    # An optimistic future: everyone on fibre, WiFi hop halved.
    future_config = replace(
        baseline_config,
        last_mile=replace(
            LastMileConfig(),
            wifi_air_median_ms=4.0,
            cellular_median_ms=8.0,
            home_wire_median_ms=4.0,
            bufferbloat_probability=0.01,
        ),
    )

    baseline = build_world(args.seed, args.scale, config=baseline_config)
    future = build_world(args.seed, args.scale, config=future_config)

    baseline_median, dataset = nearest_median(baseline, args.days)
    future_median, _ = nearest_median(future, args.days)
    print(
        format_table(
            ["Scenario", "Global nearest-DC median [ms]"],
            [
                ["today (paper-calibrated)", f"{baseline_median:.1f}"],
                ["fibre/5G future last mile", f"{future_median:.1f}"],
            ],
        )
    )

    print("\nInternet flattening per provider network:")
    rows = [
        [
            report.provider_code,
            f"{report.mean_as_path_length:.2f}",
            format_percent(report.one_hop_share),
            format_percent(report.tier1_bypass_share),
        ]
        for report in flatness_by_provider(baseline).values()
    ]
    print(
        format_table(
            ["Network", "Mean AS-path len", "One hop", "Tier-1 bypass"], rows
        )
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.jsonl.gz"
        lines = save_dataset(dataset, path)
        loaded = load_dataset(path)
        print(
            f"\nDataset round trip: wrote {lines} measurements "
            f"({path.stat().st_size / 1024:.0f} KiB gzip), "
            f"read back {loaded.ping_count} pings / "
            f"{loaded.traceroute_count} traceroutes."
        )


if __name__ == "__main__":
    main()
