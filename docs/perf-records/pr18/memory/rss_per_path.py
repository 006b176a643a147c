"""RSS growth per cached path of a serial checkpointed campaign.

    PYTHONPATH=<checkout>/src python rss_per_path.py RUN_DIR

Seed 7, scale 0.02, 60 days, one worker.  After each committed unit
(one platform-day; all Speedchecker days commit before the Atlas days)
it reads the process RSS from ``/proc/self/statm`` and the number of
pairs the campaign's planner has cached.  It prints the RSS growth per
cached path from the first unit with at least 1,200 cached paths to the
last, and the least-squares slope of RSS on cached paths over the same
units.
"""

import os
import sys

import numpy as np

import repro
from repro.measure import campaign

engines = []
checkpoint_engine = campaign._checkpoint_engine


def capture(*args, **kwargs):
    engine = checkpoint_engine(*args, **kwargs)
    engines.append(engine)
    return engine


campaign._checkpoint_engine = capture
PAGE = os.sysconf("SC_PAGE_SIZE")
samples = []


def on_commit(entry):
    if entry.get("type") == "unit":
        with open("/proc/self/statm") as statm:
            rss = int(statm.read().split()[1]) * PAGE
        samples.append((entry["unit"], len(engines[0].planner._cache), rss))


world = repro.build_world(seed=7, scale=0.02)
campaign.run_campaign_checkpointed(world, sys.argv[1], days=60, on_commit=on_commit)
for unit, paths, rss in samples[::15] + samples[-1:]:
    print(f"{unit}: {paths} paths, {rss / 2**20:.1f} MB")
start = next(i for i, (_, paths, _) in enumerate(samples) if paths >= 1200)
(unit0, paths0, rss0), (unit1, paths1, rss1) = samples[start], samples[-1]
print(
    f"{unit0} -> {unit1}: {paths0} -> {paths1} paths, "
    f"{rss0 / 2**20:.1f} -> {rss1 / 2**20:.1f} MB, "
    f"{(rss1 - rss0) / (paths1 - paths0):.0f} B per path"
)
paths, rss = np.array([sample[1:] for sample in samples[start:]], np.float64).T
print(f"least-squares slope from {unit0}: {np.polyfit(paths, rss, 1)[0]:.0f} B per path")
