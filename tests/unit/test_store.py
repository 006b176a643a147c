"""Unit tests for the repro.store warehouse: format, journal, shards, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import dataset_of, make_ping, pings, traceroutes

from repro.analysis.composition import dataset_composition
from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.lastmile.base import AccessKind
from repro.measure.campaign import resume_campaign, run_campaign_checkpointed
from repro.measure.io import load_dataset, save_dataset
from repro.measure.results import (
    MeasurementDataset,
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    ping_block_from_records,
    trace_block_from_records,
)
from repro.store import (
    DatasetStore,
    RunJournal,
    ShardFormatError,
    StoreError,
    column_zone,
    header_zones,
    read_columns,
    read_ping_shard,
    read_trace_shard,
    verify_shard,
    write_ping_shard,
    write_shard,
    write_trace_shard,
    zone_problems,
)
from repro.store.cli import main as store_cli
from repro.store.format import ALIGNMENT, MAGIC, read_header


def _meta(probe_id="p0", day=0, platform="speedchecker"):
    return MeasurementMeta(
        probe_id=probe_id,
        platform=platform,
        country="DE",
        continent=Continent.EU,
        access=AccessKind.HOME_WIFI,
        isp_asn=65001,
        provider_code="aws",
        region_id="eu-central-1",
        region_country="DE",
        region_continent=Continent.EU,
        day=day,
        city_key=(25, 4),
    )


def _ping(probe_id="p0", day=0, samples=(21.0, 22.5, 20.75)):
    return PingMeasurement(
        meta=_meta(probe_id, day), protocol=Protocol.TCP, samples=samples
    )


def _trace(probe_id="p0", day=0):
    return TracerouteMeasurement(
        meta=_meta(probe_id, day),
        protocol=Protocol.ICMP,
        source_address=167772161,
        dest_address=167772999,
        hops=(
            TraceHop(address=167772162, rtt_ms=4.5),
            TraceHop(address=None, rtt_ms=None),
            TraceHop(address=167772999, rtt_ms=31.125),
        ),
    )


class TestShardFormat:
    def test_round_trip_columns_and_metadata(self, tmp_path):
        path = tmp_path / "x.shard"
        columns = {
            "a": np.arange(7, dtype=np.int32),
            "b": np.linspace(0.0, 1.0, 5),
        }
        write_shard(path, columns, {"kind": "test", "note": "hello"})
        header, loaded = read_columns(path)
        assert header["kind"] == "test"
        assert header["note"] == "hello"
        np.testing.assert_array_equal(loaded["a"], columns["a"])
        np.testing.assert_array_equal(loaded["b"], columns["b"])
        assert loaded["a"].dtype == np.int32

    def test_writes_are_deterministic(self, tmp_path):
        columns = {"a": np.arange(10, dtype=np.int64)}
        write_shard(tmp_path / "1.shard", columns, {"kind": "test"})
        write_shard(tmp_path / "2.shard", columns, {"kind": "test"})
        assert (tmp_path / "1.shard").read_bytes() == (
            tmp_path / "2.shard"
        ).read_bytes()

    def test_columns_are_aligned(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(
            path,
            {"a": np.arange(3, dtype=np.uint8), "b": np.arange(4.0)},
            {"kind": "test"},
        )
        header, data_start = read_header(path)
        assert data_start % ALIGNMENT == 0
        for descriptor in header["columns"]:
            assert descriptor["offset"] % ALIGNMENT == 0

    def test_memmap_reads_are_zero_copy_views(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, {"a": np.arange(100, dtype=np.float64)}, {"kind": "t"})
        _, loaded = read_columns(path, mmap=True)
        assert isinstance(loaded["a"], np.memmap)
        _, eager = read_columns(path, mmap=False)
        assert not isinstance(eager["a"], np.memmap)

    def test_rejects_non_shard_file(self, tmp_path):
        path = tmp_path / "bogus.shard"
        path.write_bytes(b"not a shard at all")
        with pytest.raises(ShardFormatError):
            read_header(path)

    def test_verify_detects_bit_flip(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, {"a": np.arange(50, dtype=np.int64)}, {"kind": "t"})
        verify_shard(path)  # clean file passes
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a bit inside the last column's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardFormatError, match="CRC32"):
            verify_shard(path)

    def test_magic_is_stable(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, {"a": np.zeros(1)}, {"kind": "t"})
        assert path.read_bytes()[: len(MAGIC)] == b"RPROSHRD"

    def test_reserved_metadata_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_shard(tmp_path / "x.shard", {}, {"columns": []})


class TestMeasurementShards:
    def test_ping_shard_round_trip(self, tmp_path):
        records = [_ping("p0", 0), _ping("p1", 0, samples=(9.5, 10.0)), _ping("p0", 1)]
        block = ping_block_from_records(records)
        path = tmp_path / "u-pings.shard"
        header = write_ping_shard(path, block, unit="speedchecker:000")
        assert header["unit"] == "speedchecker:000"
        loaded = read_ping_shard(path)
        assert loaded.records() == records

    def test_trace_shard_round_trip(self, tmp_path):
        records = [_trace("p0", 0), _trace("p1", 2)]
        block = trace_block_from_records(records)
        path = tmp_path / "u-traces.shard"
        write_trace_shard(path, block, unit="speedchecker:000")
        loaded = read_trace_shard(path)
        assert loaded.records() == records

    def test_kind_mismatch_is_detected(self, tmp_path):
        block = ping_block_from_records([_ping()])
        path = tmp_path / "u-pings.shard"
        write_ping_shard(path, block, unit="u")
        with pytest.raises(ShardFormatError, match="expected"):
            read_trace_shard(path)


class TestRunJournal:
    def test_append_and_read_back(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        assert journal.entries() == []
        journal.append({"type": "begin", "seed": 7})
        journal.append({"type": "unit", "unit": "speedchecker:000"})
        entries = journal.entries()
        assert [e["type"] for e in entries] == ["begin", "unit"]
        assert journal.begin_entry()["seed"] == 7
        assert journal.completed_units() == ["speedchecker:000"]

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append({"type": "begin", "seed": 7})
        journal.append({"type": "unit", "unit": "a:000"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "unit", "unit": "a:001"')  # crash mid-append
        assert journal.completed_units() == ["a:000"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "begin"}\nGARBAGE\n{"type": "unit", "unit": "x"}\n')
        with pytest.raises(Exception, match="corrupt"):
            RunJournal(path).entries()


class TestDatasetStore:
    def _filled_store(self, run_dir):
        store = DatasetStore.create(run_dir, seed=7, config_hash="abc", scale=0.01)
        store.flush_unit(
            "speedchecker:000",
            ping_block=ping_block_from_records([_ping("p0"), _ping("p1")]),
            trace_block=trace_block_from_records([_trace("p0")]),
        )
        store.flush_unit(
            "speedchecker:001",
            ping_block=ping_block_from_records([_ping("p2", 1)]),
            trace_block=trace_block_from_records([]),
        )
        return store

    def test_create_open_and_counts(self, store_run_dir):
        self._filled_store(store_run_dir)
        store = DatasetStore.open(store_run_dir)
        assert store.manifest["seed"] == 7
        assert store.completed_units() == ["speedchecker:000", "speedchecker:001"]
        assert store.ping_count == 3
        assert store.ping_sample_count == 9
        assert store.traceroute_count == 1

    def test_create_refuses_existing_store(self, store_run_dir):
        self._filled_store(store_run_dir)
        with pytest.raises(StoreError, match="already"):
            DatasetStore.create(store_run_dir)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            DatasetStore.open(tmp_path)

    def test_duplicate_unit_rejected(self, store_run_dir):
        store = self._filled_store(store_run_dir)
        with pytest.raises(StoreError, match="already completed"):
            store.flush_unit(
                "speedchecker:000",
                ping_block=ping_block_from_records([_ping()]),
            )

    def test_materialize_round_trips_records(self, store_run_dir):
        store = self._filled_store(store_run_dir)
        dataset = store.materialize()
        assert sorted(p.meta.probe_id for p in pings(dataset)) == ["p0", "p1", "p2"]
        assert [t.meta.probe_id for t in traceroutes(dataset)] == ["p0"]

    def test_verify_clean_store(self, store_run_dir):
        assert self._filled_store(store_run_dir).verify() == []

    def test_verify_reports_missing_and_corrupt_shards(self, store_run_dir):
        store = self._filled_store(store_run_dir)
        shards = sorted(store.shard_dir.iterdir())
        raw = bytearray(shards[0].read_bytes())
        raw[-1] ^= 0xFF
        shards[0].write_bytes(bytes(raw))
        shards[-1].unlink()
        problems = store.verify()
        assert any("CRC32" in p for p in problems)
        assert any("missing shard" in p for p in problems)

    def test_lazy_view_matches_materialized(self, store_run_dir):
        store = self._filled_store(store_run_dir)
        view = store.dataset()
        assert view.ping_count == 3
        assert view.traceroute_count == 1
        assert list(pings(view)) == list(pings(store.materialize()))
        assert [p.meta.probe_id for p in pings(view) if p.meta.day == 1] == ["p2"]


class TestStoreCli:
    def _store_with_data(self, run_dir):
        store = DatasetStore.create(run_dir, seed=7, config_hash="abc", scale=0.01)
        store.flush_unit(
            "speedchecker:000",
            ping_block=ping_block_from_records([_ping("p0"), _ping("p1")]),
            trace_block=trace_block_from_records([_trace("p0")]),
        )
        return store

    def test_info_and_verify(self, store_run_dir, capsys):
        self._store_with_data(store_run_dir)
        assert store_cli(["info", str(store_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 pings" in out
        assert store_cli(["verify", str(store_run_dir)]) == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_verify_fails_on_corruption(self, store_run_dir, capsys):
        store = self._store_with_data(store_run_dir)
        shard = sorted(store.shard_dir.iterdir())[0]
        raw = bytearray(shard.read_bytes())
        raw[-1] ^= 0xFF
        shard.write_bytes(bytes(raw))
        assert store_cli(["verify", str(store_run_dir)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_export_import_round_trip(self, tmp_path, capsys):
        self._store_with_data(tmp_path / "run")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert store_cli(["export-jsonl", str(tmp_path / "run"), str(first)]) == 0
        assert store_cli(["import-jsonl", str(first), str(tmp_path / "run2")]) == 0
        assert store_cli(["verify", str(tmp_path / "run2")]) == 0
        assert store_cli(["export-jsonl", str(tmp_path / "run2"), str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        with open(first, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["pings"] == 2
        assert header["traceroutes"] == 1

    def test_missing_store_is_an_error(self, tmp_path, capsys):
        assert store_cli(["info", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_export_across_a_commit_matches_its_header(
        self, world, store_run_dir, tmp_path, monkeypatch
    ):
        """Units committed after an export has written its header stay
        out of the file: the counts and the lines read one journal."""
        run_campaign_checkpointed(world, store_run_dir, days=2, max_units=1)
        read_ping_blocks = DatasetStore.iter_ping_blocks
        commits = []

        def commit_then_read(store, mmap=True):
            if not commits:
                commits.append(resume_campaign(world, store_run_dir))
            return read_ping_blocks(store, mmap)

        monkeypatch.setattr(DatasetStore, "iter_ping_blocks", commit_then_read)
        path = tmp_path / "export.jsonl"
        assert store_cli(["export-jsonl", str(store_run_dir), str(path)]) == 0
        monkeypatch.undo()
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        loaded = load_dataset(path)
        assert (loaded.ping_count, loaded.traceroute_count) == (
            header["pings"],
            header["traceroutes"],
        )
        assert commits and commits[0].ping_count > header["pings"]


class TestExtendValidation:
    """Blocks added to a MeasurementDataset are schema-validated, so the
    dataset's counts do not change when a block is rejected."""

    def test_append_block_rejects_wrong_dtype(self):
        dataset = MeasurementDataset()
        ping_block = ping_block_from_records([_ping()])
        # Sabotage a column after construction (the constructor coerces).
        ping_block.sample_values = ping_block.sample_values.astype(np.float32)
        with pytest.raises(TypeError, match="dtype"):
            dataset.add_ping_block(ping_block)
        trace_block = trace_block_from_records([_trace()])
        trace_block.hop_rtts = trace_block.hop_rtts.astype(np.float32)
        with pytest.raises(TypeError, match="dtype"):
            dataset.add_trace_block(trace_block)
        assert (dataset.ping_count, dataset.traceroute_count) == (0, 0)

    def test_append_block_rejects_inconsistent_offsets(self):
        dataset = MeasurementDataset()
        ping_block = ping_block_from_records([_ping(), _ping("p1")])
        ping_block.sample_offsets = np.array([0, 3], dtype=np.int64)  # one short
        with pytest.raises(ValueError, match="sample_offsets"):
            dataset.add_ping_block(ping_block)
        trace_block = trace_block_from_records([_trace(), _trace("p1")])
        trace_block.hop_offsets = np.array([0, 3], dtype=np.int64)  # one short
        with pytest.raises(ValueError, match="hop_offsets"):
            dataset.add_trace_block(trace_block)
        assert (dataset.ping_count, dataset.traceroute_count) == (0, 0)

    def test_append_block_rejects_out_of_range_codes(self):
        dataset = MeasurementDataset()
        ping_block = ping_block_from_records([_ping()])
        ping_block.probe_codes = np.array([5], dtype=np.int32)  # no such probe row
        with pytest.raises(ValueError, match="probe_codes"):
            dataset.add_ping_block(ping_block)
        trace_block = trace_block_from_records([_trace()])
        trace_block.region_codes = np.array([5], dtype=np.int32)  # no such region
        with pytest.raises(ValueError, match="region_codes"):
            dataset.add_trace_block(trace_block)
        assert (dataset.ping_count, dataset.traceroute_count) == (0, 0)

    def test_append_block_accepts_valid_blocks(self):
        dataset = MeasurementDataset()
        dataset.add_ping_block(ping_block_from_records([_ping(), _ping("p1")]))
        dataset.add_trace_block(trace_block_from_records([_trace(), _trace("p1")]))
        assert (dataset.ping_count, dataset.traceroute_count) == (2, 2)


def test_standin_tables_survive_import(tmp_path):
    """Imported records reconstruct metas exactly despite stand-in objects."""
    records = [_ping("p7", 3)]
    block = ping_block_from_records(records)  # no lookup tables: stand-ins
    path = tmp_path / "u-pings.shard"
    write_ping_shard(path, block, unit="speedchecker:003")
    loaded = read_ping_shard(path)
    assert loaded.records() == records
    probe = loaded.probes[0]
    assert probe.probe_id == "p7"
    assert isinstance(probe.location, GeoPoint)


def _shared_id_records():
    """Three pings of probe p1 under two probe metas, two of them to one
    region id under two region metas."""
    egypt = dict(country="EG", continent=Continent.AF)
    return [
        make_ping([1.0, 2.0]),
        make_ping(
            [1.0], region_continent=Continent.AF, region_country="ZA", **egypt
        ),
        make_ping([1.0, 2.0, 3.0], region_continent=Continent.EU, **egypt),
    ]


def test_interning_keeps_metas_that_share_an_id():
    records = _shared_id_records()
    assert ping_block_from_records(records).records() == records
    traces = [
        TracerouteMeasurement(
            meta=record.meta,
            protocol=Protocol.ICMP,
            source_address=1,
            dest_address=2,
            hops=(TraceHop(address=2, rtt_ms=5.0),),
        )
        for record in records
    ]
    assert trace_block_from_records(traces).records() == traces


def test_import_export_keeps_metas_that_share_an_id(tmp_path, capsys):
    dataset = dataset_of(*_shared_id_records())
    original = tmp_path / "in.jsonl"
    exported = tmp_path / "out.jsonl"
    save_dataset(dataset, original)
    assert store_cli(["import-jsonl", str(original), str(tmp_path / "run")]) == 0
    assert store_cli(["export-jsonl", str(tmp_path / "run"), str(exported)]) == 0
    assert exported.read_bytes() == original.read_bytes()
    stored = DatasetStore.open(tmp_path / "run").dataset()
    assert dataset_composition(stored) == dataset_composition(dataset)


class TestZoneMaps:
    def _store(self, run_dir):
        store = DatasetStore.create(run_dir, seed=7, config_hash="z", scale=0.01)
        store.flush_unit(
            "speedchecker:000",
            ping_block=ping_block_from_records(
                [_ping("p0"), _ping("p1", samples=(5.0, 95.5))]
            ),
            trace_block=trace_block_from_records([_trace("p0")]),
        )
        return store

    def _rewrite_shard(self, path, mutate):
        """Rewrite a shard with edited metadata but valid CRCs."""
        header, columns = read_columns(path, mmap=False)
        metadata = {
            key: value
            for key, value in header.items()
            if key not in ("columns", "container", "container_version")
        }
        mutate(metadata)
        write_shard(path, columns, metadata)

    def test_written_headers_carry_zones(self, store_run_dir):
        store = self._store(store_run_dir)
        entry = store.shard_entries("pings")[0]
        header, columns = read_columns(entry.path)
        zones = header_zones(header)
        assert set(zones) == set(columns)
        samples = zones["sample_values"]
        assert samples["rows"] == 5
        assert samples["min"] == 5.0
        assert samples["max"] == 95.5
        days = zones["days"]
        assert days == {"rows": 2, "min": 0, "max": 0}

    def test_trace_zones_skip_nan_rtts(self, store_run_dir):
        store = self._store(store_run_dir)
        entry = store.shard_entries("traces")[0]
        header, _ = read_columns(entry.path)
        # _trace has an unresponsive middle hop (NaN rtt); bounds come
        # from the finite hops only.
        rtts = header_zones(header)["hop_rtts"]
        assert rtts["min"] == 4.5
        assert rtts["max"] == 31.125

    def test_column_zone_edge_cases(self):
        assert column_zone(np.empty(0, dtype=np.float64)) == {
            "rows": 0, "min": None, "max": None
        }
        all_nan = column_zone(np.array([np.nan, np.nan]))
        assert all_nan == {"rows": 2, "min": None, "max": None}
        ints = column_zone(np.array([3, -1, 7], dtype=np.int32))
        assert ints == {"rows": 3, "min": -1, "max": 7}
        assert isinstance(ints["min"], int)

    def test_verify_detects_tampered_zone_map(self, store_run_dir):
        store = self._store(store_run_dir)
        entry = store.shard_entries("pings")[0]

        def lie(metadata):
            metadata["zones"]["days"]["max"] = 99

        self._rewrite_shard(entry.path, lie)
        problems = store.verify()
        assert problems
        assert any("zone" in problem for problem in problems)

    def test_zoneless_shard_verifies_clean(self, store_run_dir):
        store = self._store(store_run_dir)
        entry = store.shard_entries("pings")[0]
        self._rewrite_shard(entry.path, lambda meta: meta.pop("zones"))
        header, columns = read_columns(entry.path)
        assert header_zones(header) is None
        assert zone_problems(entry.path, header, columns) == []
        assert store.verify() == []
