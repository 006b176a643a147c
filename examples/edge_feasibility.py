"""Which networks and applications can live without edge computing?

Reproduces the paper's section-7 discussion as a runnable report: for
each continent, checks the three QoE thresholds (MTP 20 ms for AR/VR,
HPL 100 ms for cloud gaming, HRT 250 ms for remote human control) against
the measured nearest-datacenter latency distribution, and estimates the
last-mile floor -- the latency that would remain even with an edge server
deployed at the ISP's first hop.

Run with::

    python examples/edge_feasibility.py [--days 14]
"""

import argparse

import numpy as np

from repro import build_world, run_campaign
from repro.analysis.lastmile import CELL, HOME_USR_ISP, extract_last_mile
from repro.analysis.nearest import nearest_samples_by_continent
from repro.analysis.report import format_percent, format_table
from repro.analysis.thresholds import HPL_MS, HRT_MS, MTP_MS
from repro.experiments import StudyContext
from repro.geo.continents import CONTINENTS, continent_name


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--days", type=int, default=14)
    args = parser.parse_args()

    world = build_world(seed=args.seed, scale=args.scale)
    dataset = run_campaign(world, days=args.days)
    context = StudyContext(world, dataset)

    cloud_samples = nearest_samples_by_continent(dataset, "speedchecker")
    lastmile = extract_last_mile(context.resolved_traces)
    wireless = np.isin(lastmile.categories, (HOME_USR_ISP, CELL))

    rows = []
    for continent in CONTINENTS:
        samples = cloud_samples.get(continent)
        if not samples:
            continue
        values = np.asarray(samples)
        floor = lastmile.latency_ms[wireless & (lastmile.continents == continent.value)]
        floor_median = float(np.median(floor)) if floor.size else float("nan")
        rows.append(
            [
                continent_name(continent),
                format_percent(float((values < MTP_MS).mean())),
                format_percent(float((values < HPL_MS).mean())),
                format_percent(float((values < HRT_MS).mean())),
                f"{floor_median:.1f}",
                "yes" if floor_median >= MTP_MS * 0.8 else "no",
            ]
        )

    print(
        format_table(
            [
                "Continent",
                "AR/VR ok (<MTP)",
                "Gaming ok (<HPL)",
                "Tele-op ok (<HRT)",
                "Wireless floor [ms]",
                "Edge futile for MTP?",
            ],
            rows,
        )
    )
    print(
        "\nReading: even a hypothetical edge server at the ISP's first hop"
        "\ncannot beat the wireless last-mile floor -- where that floor sits"
        "\nnear 20 ms, MTP-class applications stay infeasible regardless of"
        "\nwhere compute is placed (paper section 7)."
    )


if __name__ == "__main__":
    main()
