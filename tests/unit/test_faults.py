"""Unit tests for repro.faults: config, plans, and every injector."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cloud.regions import CloudRegion
from repro.core.config import SimulationConfig
from repro.faults import (
    FaultConfig,
    FaultPlan,
    FaultyAtlas,
    FaultyEngine,
    FaultyFileOps,
    FaultySpeedchecker,
    FsyncFailure,
    PlatformError,
    PlatformTimeout,
    RetryPolicy,
    TornWrite,
    fault_digest,
    load_fault_config,
)
from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.lastmile.base import AccessKind
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import (
    PingMeasurement,
    TraceHop,
    TracerouteMeasurement,
    build_meta,
    ping_block_from_records,
    trace_block_from_records,
)
from repro.platforms.atlas import AtlasPlatform
from repro.platforms.probe import Probe
from repro.platforms.speedchecker import QuotaExhausted, SpeedcheckerPlatform
from repro.store.fileops import FileOps


def _probe(probe_id="p0", country="DE"):
    return Probe(
        probe_id=probe_id,
        platform="speedchecker",
        country=country,
        continent=Continent.EU,
        location=GeoPoint(52.5, 13.4),
        isp_asn=65001,
        access=AccessKind.HOME_WIFI,
        device_address=3232235777,
        public_address=167772161,
    )


def _region():
    return CloudRegion(
        provider_code="aws",
        region_id="eu-central-1",
        city="Frankfurt",
        country="DE",
        continent=Continent.EU,
        location=GeoPoint(50.1, 8.7),
    )


def _faults(config: FaultConfig, unit: str = "speedchecker:000", attempt: int = 0):
    return FaultPlan(11, config).attempt(unit, attempt)


class StubEngine:
    """Records the requests it receives and answers deterministically."""

    def __init__(self):
        self.ping_requests = None
        self.trace_requests = None

    def ping_batch(self, requests, rng=None):
        self.ping_requests = list(requests)
        return ping_block_from_records(
            [
                PingMeasurement(
                    meta=build_meta(r.probe, r.region, r.day),
                    protocol=r.protocol,
                    samples=(1.0,) * r.samples,
                )
                for r in self.ping_requests
            ]
        )

    def traceroute_batch(self, requests, rng=None):
        self.trace_requests = list(requests)
        return trace_block_from_records(
            [
                TracerouteMeasurement(
                    meta=build_meta(r.probe, r.region, r.day),
                    protocol=r.protocol,
                    source_address=167772161,
                    dest_address=167772999,
                    hops=(
                        TraceHop(address=167772162, rtt_ms=4.5),
                        TraceHop(address=167772500, rtt_ms=11.0),
                        TraceHop(address=167772999, rtt_ms=31.125),
                    ),
                )
                for r in self.trace_requests
            ]
        )


class TestFaultConfig:
    def test_defaults_are_inactive(self):
        config = FaultConfig()
        assert not config.active
        assert not config.api_active
        assert not config.measure_active
        assert not config.storage_active

    def test_activity_flags(self):
        assert FaultConfig(api_timeout_rate=0.1).api_active
        assert FaultConfig(quota_race_rate=0.1).api_active
        assert FaultConfig(reply_loss_rate=0.1).measure_active
        assert FaultConfig(torn_write_rate=0.1).storage_active
        assert FaultConfig(fsync_failure_rate=0.1).active

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            FaultConfig(api_timeout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(reply_loss_rate=1.5)

    def test_rejects_incoherent_sums(self):
        with pytest.raises(ValueError):
            FaultConfig(api_timeout_rate=0.6, api_error_rate=0.6)
        with pytest.raises(ValueError):
            FaultConfig(
                torn_write_rate=0.5,
                corrupt_write_rate=0.4,
                fsync_failure_rate=0.3,
            )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault config keys"):
            FaultConfig.from_dict({"api_timeout_rate": 0.1, "bogus": 1.0})

    def test_load_fault_config(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"reply_loss_rate": 0.25}))
        config = load_fault_config(path)
        assert config.reply_loss_rate == 0.25
        assert config.active

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_fault_config(path)

    def test_digest_is_stable_and_distinguishes(self):
        a = FaultConfig(reply_loss_rate=0.1)
        b = FaultConfig(reply_loss_rate=0.1)
        c = FaultConfig(reply_loss_rate=0.2)
        assert fault_digest(a) == fault_digest(b)
        assert fault_digest(a) != fault_digest(c)

    def test_rates_lists_only_rate_fields(self):
        rates = FaultConfig().rates
        assert "quota_race_fraction" not in rates
        assert "quota_race_rate" in rates


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            backoff_base_ms=100.0, backoff_multiplier=2.0, backoff_jitter=0.1
        )
        plan = FaultPlan(11, FaultConfig(api_timeout_rate=0.5))
        for attempt in range(4):
            delay = policy.backoff_ms(
                attempt, plan.backoff_rng("speedchecker:000", attempt)
            )
            nominal = 100.0 * 2.0**attempt
            assert nominal * 0.9 <= delay <= nominal * 1.1

    def test_backoff_is_seed_deterministic(self):
        policy = RetryPolicy()
        config = FaultConfig(api_timeout_rate=0.5)
        first = policy.backoff_ms(
            1, FaultPlan(11, config).backoff_rng("atlas:003", 1)
        )
        second = policy.backoff_ms(
            1, FaultPlan(11, config).backoff_rng("atlas:003", 1)
        )
        assert first == second

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base_ms=100.0, backoff_jitter=0.0)
        plan = FaultPlan(11, FaultConfig(api_timeout_rate=0.5))
        assert policy.backoff_ms(2, plan.backoff_rng("u", 2)) == 400.0


class TestFaultPlan:
    def test_same_unit_attempt_same_draws(self):
        config = FaultConfig(api_timeout_rate=0.5)
        a = FaultPlan(11, config).attempt("speedchecker:001", 0)
        b = FaultPlan(11, config).attempt("speedchecker:001", 0)
        assert float(a.api.random()) == float(b.api.random())
        assert float(a.measure.random()) == float(b.measure.random())
        assert float(a.storage.random()) == float(b.storage.random())

    def test_attempts_and_units_are_independent(self):
        config = FaultConfig(api_timeout_rate=0.5)
        plan = FaultPlan(11, config)
        first = float(plan.attempt("speedchecker:001", 0).api.random())
        retry = float(plan.attempt("speedchecker:001", 1).api.random())
        other = float(plan.attempt("speedchecker:002", 0).api.random())
        assert first != retry
        assert first != other

    def test_record_appends_events(self):
        faults = _faults(FaultConfig())
        faults.record("api-timeout:snapshot")
        assert faults.events == ["api-timeout:snapshot"]


def _speedchecker_platform(quota_probes=8):
    config = SimulationConfig(seed=3, scale=0.01)
    probes = [_probe(f"p{i}") for i in range(quota_probes)]
    rng = np.random.default_rng(5)
    return SpeedcheckerPlatform(probes, config, rng)


class TestFaultySpeedchecker:
    def test_timeout_rate_one_raises_and_records(self):
        platform = _speedchecker_platform()
        faults = _faults(FaultConfig(api_timeout_rate=1.0))
        faulty = FaultySpeedchecker(platform, faults)
        with pytest.raises(PlatformTimeout):
            faulty.snapshot(0, hour=0, rng=np.random.default_rng(1))
        assert faults.events == ["api-timeout:snapshot"]

    def test_error_rate_one_raises_http_style(self):
        platform = _speedchecker_platform()
        faults = _faults(FaultConfig(api_error_rate=1.0))
        faulty = FaultySpeedchecker(platform, faults)
        snapshot = platform.snapshot(0, hour=0, rng=np.random.default_rng(1))
        with pytest.raises(PlatformError):
            faulty.select_probes("DE", snapshot, 2)
        assert faults.events == ["api-error:select_probes"]

    def test_zero_rates_pass_through_identically(self):
        platform_a = _speedchecker_platform()
        platform_b = _speedchecker_platform()
        faulty = FaultySpeedchecker(platform_b, _faults(FaultConfig()))
        direct = platform_a.snapshot(0, hour=0, rng=np.random.default_rng(9))
        wrapped = faulty.snapshot(0, hour=0, rng=np.random.default_rng(9))
        assert direct.probe_ids == wrapped.probe_ids
        assert faulty.countries() == platform_a.countries()
        assert faulty.remaining_quota == platform_a.remaining_quota

    def test_quota_race_steals_once_per_attempt(self):
        platform = _speedchecker_platform()
        quota = platform.remaining_quota
        faults = _faults(
            FaultConfig(quota_race_rate=1.0, quota_race_fraction=0.5)
        )
        faulty = FaultySpeedchecker(platform, faults)
        with pytest.raises(QuotaExhausted):
            faulty.charge(quota)
        stolen = quota - platform.remaining_quota
        assert stolen == int(quota * 0.5)
        assert faults.events == [f"quota-race:{stolen}"]
        # The race fires at most once per attempt: charging again only
        # consumes what is asked for.
        before = platform.remaining_quota
        faulty.charge(1)
        assert platform.remaining_quota == before - 1

    def test_charge_up_to_grants_remaining_after_race(self):
        platform = _speedchecker_platform()
        quota = platform.remaining_quota
        faults = _faults(
            FaultConfig(quota_race_rate=1.0, quota_race_fraction=0.5)
        )
        faulty = FaultySpeedchecker(platform, faults)
        granted = faulty.charge_up_to(quota)
        assert granted == quota - int(quota * 0.5)
        assert platform.remaining_quota == 0


class TestFaultyAtlas:
    def test_timeout_raises(self):
        platform = AtlasPlatform([_probe("a0")], np.random.default_rng(2))
        faults = _faults(FaultConfig(api_timeout_rate=1.0), unit="atlas:000")
        faulty = FaultyAtlas(platform, faults)
        with pytest.raises(PlatformTimeout):
            faulty.connected_probes(rng=np.random.default_rng(1))
        assert faults.events == ["api-timeout:connected_probes"]

    def test_zero_rates_pass_through(self):
        platform = AtlasPlatform([_probe("a0")], np.random.default_rng(2))
        faulty = FaultyAtlas(platform, _faults(FaultConfig()))
        assert [
            p.probe_id
            for p in faulty.connected_probes(rng=np.random.default_rng(4))
        ] == [
            p.probe_id
            for p in platform.connected_probes(rng=np.random.default_rng(4))
        ]


def _ping_requests(probe_ids=("p0", "p1"), per_probe=3):
    region = _region()
    return [
        PingRequest(probe=_probe(pid), region=region, samples=2, day=0)
        for pid in probe_ids
        for _ in range(per_probe)
    ]


def _trace_requests(probe_ids=("p0", "p1")):
    region = _region()
    return [
        TraceRequest(probe=_probe(pid), region=region, day=0)
        for pid in probe_ids
    ]


class TestFaultyEngine:
    def test_zero_rates_pass_everything_through(self):
        inner = StubEngine()
        engine = FaultyEngine(inner, _faults(FaultConfig()))
        requests = _ping_requests()
        block = engine.ping_batch(PingRequests.from_records(requests))
        assert len(block) == len(requests)
        assert inner.ping_requests == requests
        traces = _trace_requests()
        block = engine.traceroute_batch(TraceRequests.from_records(traces))
        assert len(block) == len(traces)
        assert block.hop_count == 3 * len(traces)
        assert inner.trace_requests == traces

    def test_reply_loss_rate_one_drops_everything(self):
        inner = StubEngine()
        faults = _faults(FaultConfig(reply_loss_rate=1.0))
        engine = FaultyEngine(inner, faults)
        block = engine.ping_batch(PingRequests.from_records(_ping_requests()))
        assert len(block) == 0
        assert inner.ping_requests == []
        assert faults.events == ["reply-loss:6"]

    def test_disconnect_loses_probe_tail_and_all_its_traces(self):
        inner = StubEngine()
        faults = _faults(FaultConfig(probe_disconnect_rate=1.0))
        engine = FaultyEngine(inner, faults)
        requests = _ping_requests(probe_ids=("p0", "p1"), per_probe=3)
        block = engine.ping_batch(PingRequests.from_records(requests))
        assert len(faults.events) == 1
        event = faults.events[0]
        assert event.startswith("probe-disconnect:")
        victim, kept_text = event.split(":")[1].split("@")
        kept = int(kept_text)
        assert 0 <= kept < 3
        assert len(block) == len(requests) - (3 - kept)
        surviving_of_victim = [
            r for r in inner.ping_requests if r.probe.probe_id == victim
        ]
        assert len(surviving_of_victim) == kept
        traces = TraceRequests.from_records(_trace_requests())
        records = engine.traceroute_batch(traces).records()
        assert all(
            r.meta.probe_id != victim for r in records
        )
        assert "trace-drop:1" in faults.events

    def test_truncation_shortens_hops(self):
        inner = StubEngine()
        faults = _faults(FaultConfig(trace_truncation_rate=1.0))
        engine = FaultyEngine(inner, faults)
        traces = TraceRequests.from_records(_trace_requests())
        records = engine.traceroute_batch(traces).records()
        assert len(records) == 2
        for record in records:
            assert 1 <= len(record.hops) < 3
        assert faults.events == ["trace-truncated:2"]

    def test_deterministic_given_same_attempt(self):
        config = FaultConfig(reply_loss_rate=0.5, trace_truncation_rate=0.5)
        blocks = []
        for _ in range(2):
            engine = FaultyEngine(StubEngine(), _faults(config))
            block = engine.ping_batch(PingRequests.from_records(_ping_requests()))
            traces = TraceRequests.from_records(_trace_requests())
            records = engine.traceroute_batch(traces).records()
            blocks.append((len(block), tuple(len(r.hops) for r in records)))
        assert blocks[0] == blocks[1]


class TestFaultyFileOps:
    PAYLOAD = bytes(range(256)) * 8

    def test_zero_rates_write_identically(self, tmp_path):
        clean = tmp_path / "clean.bin"
        wrapped = tmp_path / "wrapped.bin"
        FileOps().write_bytes(clean, self.PAYLOAD)
        FaultyFileOps(_faults(FaultConfig())).write_bytes(
            wrapped, self.PAYLOAD
        )
        assert clean.read_bytes() == wrapped.read_bytes()

    def test_torn_write_leaves_prefix_and_raises(self, tmp_path):
        path = tmp_path / "torn.bin"
        faults = _faults(FaultConfig(torn_write_rate=1.0))
        with pytest.raises(TornWrite):
            FaultyFileOps(faults).write_bytes(path, self.PAYLOAD)
        assert path.stat().st_size < len(self.PAYLOAD)
        assert self.PAYLOAD.startswith(path.read_bytes())
        assert faults.events[0].startswith("torn-write:torn.bin@")

    def test_corrupt_write_flips_exactly_one_byte(self, tmp_path):
        path = tmp_path / "corrupt.bin"
        faults = _faults(FaultConfig(corrupt_write_rate=1.0))
        FaultyFileOps(faults).write_bytes(path, self.PAYLOAD)
        written = path.read_bytes()
        assert len(written) == len(self.PAYLOAD)
        flipped = [
            i for i, (a, b) in enumerate(zip(written, self.PAYLOAD)) if a != b
        ]
        assert len(flipped) == 1
        assert faults.events == [f"corrupt-write:corrupt.bin@{flipped[0]}"]

    def test_fsync_failure_writes_but_raises(self, tmp_path):
        path = tmp_path / "fsync.bin"
        faults = _faults(FaultConfig(fsync_failure_rate=1.0))
        with pytest.raises(FsyncFailure):
            FaultyFileOps(faults).write_bytes(path, self.PAYLOAD)
        assert path.read_bytes() == self.PAYLOAD
        assert faults.events == ["fsync-failure:fsync.bin"]

    def test_empty_payload_never_faults(self, tmp_path):
        path = tmp_path / "empty.bin"
        faults = _faults(FaultConfig(torn_write_rate=1.0))
        FaultyFileOps(faults).write_bytes(path, b"")
        assert path.read_bytes() == b""
        assert faults.events == []
