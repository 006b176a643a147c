"""Golden digests of the two campaign schedulers' outputs.

Every change to scheduling, planning or sampling must keep these bytes,
so each digest is pinned here instead of being re-checked by hand:

- the checkpointed store of a long faulted 2% campaign, under harness
  faults and all three network event families at once (the
  configuration of the ``longrun`` benchmark workload);
- the in-memory dataset of a classic ``run_campaign``, over every
  column of every block at full bits;
- the JSONL export of a classic week, which loading, importing into a
  store and exporting that store again must reproduce byte for byte.

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
from repro.measure.io import load_dataset, save_dataset
from repro.measure.results import MeasurementDataset
from repro.netfaults.config import NetworkFaultConfig
from repro.store.cli import main as store_main

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

JSONL_DAYS = 7
JSONL_LINES = 18_124
JSONL_GOLDEN = "ecf840f1277dcf3747fb0c719461ebaa7f38c8a0800f314c5ffd501c34a33851"
#: ``store_digest`` of the store ``import-jsonl`` builds from that file.
IMPORTED_GOLDEN = "70ea4903c4fea3af612315c5ec6c915f19d9a0dea2956b4d4cfaa00459b4d3ee"


def dataset_digest(dataset: MeasurementDataset) -> str:
    """sha256 over the probe ids, regions and every column of every block
    of a dataset."""
    digest = hashlib.sha256()
    for block in itertools.chain(dataset.ping_blocks(), dataset.trace_blocks()):
        digest.update(repr([probe.probe_id for probe in block.probes]).encode("utf-8"))
        digest.update(repr([str(region) for region in block.regions]).encode("utf-8"))
        for name in type(block).__slots__:
            value = getattr(block, name)
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                digest.update(name.encode("utf-8") + value.tobytes())
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


def test_classic_jsonl_round_trip_golden(tmp_path):
    dataset = run_campaign(build_world(seed=SEED, scale=SCALE), days=JSONL_DAYS)
    saved = tmp_path / "saved.jsonl"
    assert save_dataset(dataset, saved) == JSONL_LINES
    golden = saved.read_bytes()
    assert hashlib.sha256(golden).hexdigest() == JSONL_GOLDEN
    resaved = tmp_path / "resaved.jsonl"
    save_dataset(load_dataset(saved), resaved)
    assert resaved.read_bytes() == golden
    assert store_main(["import-jsonl", str(saved), str(tmp_path / "store")]) == 0
    assert store_digest(tmp_path / "store") == IMPORTED_GOLDEN
    exported = tmp_path / "exported.jsonl"
    assert store_main(["export-jsonl", str(tmp_path / "store"), str(exported)]) == 0
    assert exported.read_bytes() == golden
