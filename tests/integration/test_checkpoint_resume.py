"""Crash-resume equivalence for the checkpointed campaign runner.

The central guarantee of :mod:`repro.store`: a campaign interrupted
after k units and resumed in a *fresh process* produces a run directory
byte-identical to an uninterrupted run -- same shards, same journal,
same manifest -- and therefore identical analyses.
"""

from __future__ import annotations

import statistics

import pytest

from helpers import pings, traceroutes

from repro import build_world
from repro.measure.campaign import (
    plan_units,
    resume_campaign,
    run_campaign_checkpointed,
)
from repro.store import DatasetStore, StoreError

#: A deliberately small world: resume equivalence is a structural
#: property, not a statistical one, so a cheap campaign suffices.
SEED = 11
SCALE = 0.01
DAYS = 4


def _file_map(run_dir):
    """{relative path: bytes} for every file under a run directory."""
    return {
        path.relative_to(run_dir): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _headline(dataset):
    """Cheap headline aggregates of the kind the experiments compute."""
    summary = {}
    for platform in ("speedchecker", "atlas"):
        for protocol in (None, "tcp", "icmp"):
            rows = list(pings(dataset, platform=platform, protocol=protocol))
            key = (platform, protocol or "any")
            summary[key] = (
                len(rows),
                round(statistics.median(p.min_rtt_ms for p in rows), 9)
                if rows
                else None,
            )
    traces = list(traceroutes(dataset))
    summary["reached"] = round(
        sum(1 for t in traces if t.reached) / len(traces), 9
    )
    return summary


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """An uninterrupted reference run."""
    run_dir = tmp_path_factory.mktemp("checkpoint") / "full"
    world = build_world(seed=SEED, scale=SCALE)
    store = run_campaign_checkpointed(world, run_dir, days=DAYS)
    return run_dir, store


class TestResumeEquivalence:
    def test_interrupt_then_resume_is_byte_identical(
        self, full_run, tmp_path_factory
    ):
        full_dir, _ = full_run
        resumed_dir = tmp_path_factory.mktemp("checkpoint") / "resumed"

        # Interrupt after 3 of the 8 planned units...
        world = build_world(seed=SEED, scale=SCALE)
        store = run_campaign_checkpointed(
            world, resumed_dir, days=DAYS, max_units=3
        )
        assert len(store.completed_units()) == 3

        # ...then resume with a freshly built world, as a new process would.
        world = build_world(seed=SEED, scale=SCALE)
        store = resume_campaign(world, resumed_dir)
        assert store.completed_units() == plan_units(
            DAYS, ("speedchecker", "atlas")
        )

        full_files = _file_map(full_dir)
        resumed_files = _file_map(resumed_dir)
        assert sorted(full_files) == sorted(resumed_files)
        for name, payload in full_files.items():
            assert resumed_files[name] == payload, f"{name} differs"

    def test_resume_of_complete_run_is_a_no_op(self, full_run):
        full_dir, _ = full_run
        before = _file_map(full_dir)
        world = build_world(seed=SEED, scale=SCALE)
        resume_campaign(world, full_dir)
        assert _file_map(full_dir) == before

    def test_headline_analysis_matches_after_resume(
        self, full_run, tmp_path_factory
    ):
        full_dir, full_store = full_run
        resumed_dir = tmp_path_factory.mktemp("checkpoint") / "headline"
        world = build_world(seed=SEED, scale=SCALE)
        run_campaign_checkpointed(world, resumed_dir, days=DAYS, max_units=5)
        world = build_world(seed=SEED, scale=SCALE)
        resumed_store = resume_campaign(world, resumed_dir)
        assert _headline(resumed_store.dataset()) == _headline(
            full_store.dataset()
        )

    def test_store_verifies_clean(self, full_run):
        _, store = full_run
        assert store.verify() == []

    def test_resume_rejects_mismatched_world(self, full_run):
        full_dir, _ = full_run
        other = build_world(seed=SEED + 1, scale=SCALE)
        with pytest.raises(StoreError, match="seed"):
            resume_campaign(other, full_dir)

    def test_resume_rejects_mismatched_plan(self, full_run):
        full_dir, _ = full_run
        world = build_world(seed=SEED, scale=SCALE)
        with pytest.raises(StoreError, match="days"):
            run_campaign_checkpointed(world, full_dir, days=DAYS + 1)


class TestStoredDatasetIntegration:
    def test_lazy_dataset_equals_jsonl_round_trip(self, full_run, tmp_path):
        """Exporting the store and re-loading yields the same records."""
        from repro.measure.io import load_dataset, save_dataset

        _, store = full_run
        path = tmp_path / "export.jsonl.gz"
        lines = save_dataset(store.dataset(), path)
        assert lines == store.ping_count + store.traceroute_count
        loaded = load_dataset(path)
        assert list(pings(loaded)) == list(pings(store.dataset()))
        assert list(traceroutes(loaded)) == list(
            traceroutes(store.dataset())
        )

    def test_plan_units_shape(self):
        units = plan_units(2, ("speedchecker", "atlas"))
        assert units == [
            "speedchecker:000",
            "speedchecker:001",
            "atlas:000",
            "atlas:001",
        ]
        with pytest.raises(ValueError, match="unknown campaign platform"):
            plan_units(2, ("speedchecker", "bogus"))
