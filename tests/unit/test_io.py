"""Tests for repro.measure.io (dataset serialization)."""

import json

import pytest

from helpers import dataset_of, make_meta, make_ping, pings, traceroutes

from repro.measure.io import load_dataset, save_dataset
from repro.measure.results import (
    MeasurementDataset,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
)


def trace_fixture():
    return TracerouteMeasurement(
        meta=make_meta(probe_id="t1"),
        protocol=Protocol.ICMP,
        source_address=1234,
        dest_address=9999,
        hops=(TraceHop(5, 3.5), TraceHop(None, None), TraceHop(9999, 42.0)),
    )


class TestRoundTrip:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_dataset(MeasurementDataset(), path) == 0
        loaded = load_dataset(path)
        assert loaded.ping_count == 0
        assert loaded.traceroute_count == 0

    def test_ping_and_trace_roundtrip(self, tmp_path):
        dataset = dataset_of(make_ping([10.0, 11.5]), trace_fixture())
        path = tmp_path / "data.jsonl"
        assert save_dataset(dataset, path) == 2
        loaded = load_dataset(path)
        ping = next(pings(loaded))
        assert ping.samples == (10.0, 11.5)
        assert ping.meta.country == "DE"
        trace = next(traceroutes(loaded))
        assert trace.hops == trace_fixture().hops
        assert trace.reached

    def test_gzip_roundtrip(self, tmp_path):
        dataset = dataset_of(make_ping([10.0]))
        path = tmp_path / "data.jsonl.gz"
        save_dataset(dataset, path)
        assert load_dataset(path).ping_count == 1

    def test_campaign_dataset_roundtrip(self, tmp_path, dataset):
        path = tmp_path / "campaign.jsonl.gz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.ping_count == dataset.ping_count
        assert loaded.traceroute_count == dataset.traceroute_count
        original = next(pings(dataset))
        restored = next(pings(loaded))
        assert original == restored


class TestValidation:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "header", "format": "other"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-dataset"):
            load_dataset(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "format": "repro-dataset", "version": 99}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "format": "repro-dataset", "version": 1}
            )
            + "\n"
            + json.dumps({"kind": "mystery"})
            + "\n"
        )
        with pytest.raises(ValueError, match="unknown record kind"):
            load_dataset(path)

    def test_blank_lines_tolerated(self, tmp_path):
        dataset = dataset_of(make_ping([10.0]))
        path = tmp_path / "data.jsonl"
        save_dataset(dataset, path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert load_dataset(path).ping_count == 1

    def test_cut_off_file_does_not_match_its_header(self, tmp_path):
        measurements = [make_ping([10.0 + i], probe_id=f"p{i}") for i in range(4)]
        dataset = dataset_of(*measurements, trace_fixture())
        path = tmp_path / "data.jsonl"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        with pytest.raises(
            ValueError, match="4 pings and 1 traceroutes, file holds 2 and 0"
        ):
            load_dataset(path)

    def test_header_without_counts_is_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = {"kind": "header", "format": "repro-dataset", "version": 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="header counts None pings"):
            load_dataset(path)

    def _with_edited_line(self, tmp_path, edit):
        """A one-ping file whose line 2 went through ``edit``."""
        path = tmp_path / "data.jsonl"
        save_dataset(dataset_of(make_ping([10.0])), path)
        header, line = path.read_text().splitlines()
        payload = json.loads(line)
        edit(payload)
        path.write_text(header + "\n" + json.dumps(payload) + "\n")
        return path

    def test_city_key_outside_the_grid_is_rejected(self, tmp_path):
        """Every probe's city key lies within ±45 x ±90 (2-degree cells
        of a valid location); the loader's stand-in probe for any other
        key would sit off the globe."""
        path = self._with_edited_line(
            tmp_path, lambda payload: payload["meta"].update(city_key=[46, 0])
        )
        with pytest.raises(ValueError, match=r"data\.jsonl:2: city_key \[46, 0\]"):
            load_dataset(path)

    def test_missing_field_names_the_file_and_line(self, tmp_path):
        path = self._with_edited_line(
            tmp_path, lambda payload: payload["meta"].pop("day")
        )
        with pytest.raises(ValueError, match=r"data\.jsonl:2: missing field 'day'"):
            load_dataset(path)
