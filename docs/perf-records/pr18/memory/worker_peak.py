"""Worker peak RSS of a full-scale checkpointed campaign on 2 workers.

    PYTHONPATH=<checkout>/src python worker_peak.py RUN_DIR

Seed 7, scale 1.0, 16 days.  Prints the campaign's wall time, the
largest worker's peak RSS (``RUSAGE_CHILDREN`` ``ru_maxrss``) and the
store digest.
"""

import resource
import sys
import time

import repro
from repro.exec.digest import store_digest
from repro.measure.campaign import run_campaign_checkpointed

world = repro.build_world(seed=7, scale=1.0)
start = time.perf_counter()
run_campaign_checkpointed(world, sys.argv[1], days=16, workers=2)
elapsed = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"campaign {elapsed:.1f} s; worker peak RSS {peak:.0f} MB")
print(f"store digest {store_digest(sys.argv[1])}")
