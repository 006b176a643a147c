"""Golden digests of the two campaign schedulers' outputs.

Every change to scheduling, planning or sampling must keep these bytes,
so each digest is pinned here instead of being re-checked by hand:

- the checkpointed store of a long faulted 2% campaign, under harness
  faults and all three network event families at once (the
  configuration of the ``longrun`` benchmark workload);
- the in-memory dataset of a classic ``run_campaign``, over every
  column of every block at full bits.

Re-pin a digest only for a deliberate change of what a campaign draws
or stores, and say which change in the commit.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from repro import build_world, run_campaign
from repro.exec import store_digest
from repro.faults import FaultConfig
from repro.measure.campaign import run_campaign_checkpointed
from repro.measure.results import MeasurementDataset
from repro.netfaults.config import NetworkFaultConfig

SEED = 7
SCALE = 0.02

#: The long faulted run: harness faults that cause retries, partial
#: units and skips, and routing epochs that change mid-day.
LONGRUN_DAYS = 60
LONGRUN_FAULTS = FaultConfig(
    api_timeout_rate=0.1,
    api_error_rate=0.05,
    quota_race_rate=0.05,
    reply_loss_rate=0.02,
    probe_disconnect_rate=0.05,
    trace_truncation_rate=0.05,
    torn_write_rate=0.03,
    corrupt_write_rate=0.02,
    fsync_failure_rate=0.02,
)
LONGRUN_NETFAULTS = NetworkFaultConfig(
    link_failure_rate=0.3,
    peering_flap_rate=0.3,
    regional_outage_rate=0.2,
)
LONGRUN_GOLDEN = "d6d5ab24d55b96a9aa916fda1b8fb2d0b1e6953b07cf47cb224bcb672e2fba28"

CLASSIC_DAYS = 3
CLASSIC_GOLDEN = "6b7840aa3fb06900765ca984d56c9bf539cfd67519377eeb9808827c17f6697d"


def dataset_digest(dataset: MeasurementDataset) -> str:
    """sha256 over the probe ids, regions and every column of every block
    of a dataset, then the repr of each individually added record."""
    digest = hashlib.sha256()
    for block in itertools.chain(dataset.ping_blocks(), dataset.trace_blocks()):
        digest.update(repr([probe.probe_id for probe in block.probes]).encode("utf-8"))
        digest.update(repr([str(region) for region in block.regions]).encode("utf-8"))
        for name in type(block).__slots__:
            value = getattr(block, name)
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                digest.update(name.encode("utf-8") + value.tobytes())
    for record in itertools.chain(
        dataset.iter_scalar_pings(), dataset.iter_scalar_traceroutes()
    ):
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


def test_faulted_longrun_store_golden(tmp_path):
    world = build_world(seed=SEED, scale=SCALE)
    run_campaign_checkpointed(
        world,
        tmp_path / "store",
        days=LONGRUN_DAYS,
        faults=LONGRUN_FAULTS,
        netfaults=LONGRUN_NETFAULTS,
    )
    assert store_digest(tmp_path / "store") == LONGRUN_GOLDEN


def test_classic_campaign_golden():
    dataset = run_campaign(build_world(seed=SEED, scale=SCALE), days=CLASSIC_DAYS)
    assert dataset_digest(dataset) == CLASSIC_GOLDEN
