"""Tests for the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import querymix  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# -- workload inputs ---------------------------------------------------------


def test_query_sequence_is_deterministic_per_seed():
    first = querymix.query_sequence(5, 400, days=2)
    again = querymix.query_sequence(5, 400, days=2)
    other = querymix.query_sequence(6, 400, days=2)
    assert first == again
    assert [q.spec for q in first] != [q.spec for q in other]


@pytest.mark.parametrize("total", [1, 10, 450])
def test_query_sequence_has_the_stated_shares(total):
    sequence = querymix.query_sequence(3, total, days=2)
    new = [q for q in sequence if q.first_time]
    assert len(sequence) == total
    assert len(new) == max(1, round(querymix.SCAN_SHARE * total))
    assert sequence[0].first_time
    assert len({q.key for q in new}) == len(new)
    seen = set()
    for position, query in enumerate(sequence):
        assert query.index == position
        if query.first_time:
            assert query.key not in seen
            seen.add(query.key)
        else:
            assert query.key in seen, "a repeat must name a spec issued earlier"


def test_catalogue_specs_are_distinct_valid_queries():
    from repro.query import QuerySpec

    catalogue = querymix.catalogue(days=2)
    assert len({querymix.spec_key(spec) for spec in catalogue}) == len(catalogue)
    kinds = set()
    for raw in catalogue:
        spec = QuerySpec.from_dict(dict(raw))
        spec.validate()
        kinds.add(spec.kind)
        assert spec.day_range is None or 0 <= spec.day_range[0] == spec.day_range[1] < 2
    assert kinds == {"pings", "traces"}
    with pytest.raises(ValueError):
        querymix.query_sequence(1, 10 * len(catalogue) + 10, days=2)


def test_classic_dataset_digest_repeats_for_a_seed():
    import repro

    digests = [
        workloads.dataset_digest(repro.run_campaign(repro.build_world(seed=seed, scale=0.02), days=2))
        for seed in (4, 4, 5)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_longrun_campaign_repeats_for_a_seed(tmp_path, monkeypatch):
    """Same seed, same faults, same (relative) run directory: same store bytes."""
    import repro
    from repro.exec.digest import store_digest
    from repro.faults import FaultConfig
    from repro.netfaults.config import NetworkFaultConfig

    monkeypatch.chdir(tmp_path)
    digests = []
    for _ in range(2):
        shutil.rmtree("store", ignore_errors=True)
        world = repro.build_world(seed=4, scale=workloads.LONGRUN_SCALE)
        store = repro.run_campaign_checkpointed(
            world,
            Path("store"),
            days=4,
            faults=FaultConfig(**workloads.LONGRUN_FAULTS),
            netfaults=NetworkFaultConfig(**workloads.LONGRUN_NETFAULTS),
        )
        assert store.verify() == []
        digests.append(store_digest(Path("store")))
    assert digests[0] == digests[1]


# -- statistics --------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
     (99, 75.0), (40, 75.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert summary.tail_percentile(count) == expected


def test_timing_falls_back_to_a_supported_percentile():
    samples = [float(i) for i in range(1, 501)]
    full = summary.timing(samples, 90.0)
    assert full == {"value": 450.0, "samples": 500, "percentile": 90.0, "supported": True}
    tail = summary.timing(samples, 99.0)
    assert tail["percentile"] == 95.0 and not tail["supported"]
    assert summary.timing(samples[:5], 50.0)["value"] == 3.0


def test_timings_are_scaled_by_the_repetition_slowness():
    rep = {"slowness": 2.0, "setup_s": 3.0,
           "metrics": {"measurements_per_s": 100.0, "analysis_s": 8.0, "peak_rss_mb": 50.0},
           "samples": {"query_hit_ms": [4.0] * 20}}
    scaled = run.aggregate([rep], [rep])
    assert scaled["measurements_per_s"]["value"] == 200.0
    assert scaled["analysis_s"]["value"] == 4.0
    assert scaled["query_hit_p50_ms"]["value"] == 2.0
    assert scaled["setup_s"]["value"] == 1.5
    assert scaled["peak_rss_mb"]["value"] == 50.0
    measured = run.aggregate([rep], [rep], scaled=False)
    assert (measured["measurements_per_s"]["value"], measured["setup_s"]["value"]) == (100.0, 3.0)


def test_slowness_is_the_median_round_of_the_window_over_the_reference():
    from sampler import REFERENCE_S, slowness

    rounds = [(float(t), REFERENCE_S * (2.0 if t < 50 else 1.0)) for t in range(100)]
    assert slowness(rounds, 0.0, 40.0) == 2.0
    assert slowness(rounds, 60.0, 99.0) == 1.0
    assert slowness(rounds, 10.0, 12.0) == 1.5, "a window of too few rounds takes the whole run's"
    assert slowness([], 0.0, 1.0) is None


def test_the_sampler_does_not_run_the_program():
    tree = ast.parse((HERE / "sampler.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("repro") for name in modules)


# -- tracing -----------------------------------------------------------------


def _attribute(target):
    owner, attr = tracing._resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_restore_the_originals(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    sites = [site[0] for site in tracing.boundaries(tracer)]
    sites += [site[0] for site in tracing.service_wrappers(tracer)]
    before = {site: _attribute(site) for site in sites}
    tracer.install()
    try:
        assert len(tracer.installed) == len(sites)
        for site in sites:
            assert _attribute(site) is not before[site], site
    finally:
        tracer.uninstall()
    for site in sites:
        assert _attribute(site) is before[site], site
    assert tracer.installed == []


def test_boundaries_are_public_callables(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    for site in tracing.boundaries(tracer) + tracing.service_wrappers(tracer):
        module, _, path = site[0].partition(":")
        for part in module.split(".") + path.split("."):
            assert not part.startswith("_") or (part.startswith("__") and part.endswith("__")), site[0]


def test_traced_campaign_records_nested_spans_and_forked_workers(tmp_path):
    import repro

    world = repro.build_world(seed=3, scale=0.02)
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        repro.run_campaign_checkpointed(world, tmp_path / "store", days=2, workers=2)
    finally:
        tracer.uninstall()
    assert tracer.collect_spills() == 2
    names = {span[0] for span in tracer.spans}
    assert {"exec.execute_plan_parallel", "resilience.run_unit", "campaign.unit",
            "planner.plan_many", "engine.ping_batch", "store.write_unit_shards"} <= names
    by_id = {span[1]: span for span in tracer.spans}
    for name, _, parent, start, end, pid, _ in tracer.spans:
        assert end >= start
        if name == "engine.ping_batch":
            assert by_id[parent][0] == "campaign.unit"
        if name == "resilience.run_unit":
            assert by_id[parent][0] == "exec.execute_plan_parallel"
            assert pid != by_id[parent][5], "workers run units in forked children"
    assert tracer.counts["campaign.units"] == 4
    assert tracer.counts["planner.pairs"] == tracer.counts["engine.ping_requests"] + tracer.counts[
        "engine.trace_requests"
    ]
    own = tracing.self_times(tracer.spans)
    assert all(value >= -1e-6 for value in own.values())


def test_self_time_subtracts_what_direct_children_cover():
    spans = [
        ("a", 1, None, 0.0, 10.0, 1, None),
        ("b", 2, 1, 1.0, 4.0, 1, None),
        ("c", 3, 2, 2.0, 3.0, 1, None),
        ("run_blocking", 4, None, 0.0, 5.0, 1, 7),
    ]
    assert tracing.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0, 4: 5.0}
    overlapping = [
        ("parent", 1, None, 0.0, 10.0, 1, None),
        ("worker", 2, 1, 1.0, 6.0, 2, None),
        ("worker", 3, 1, 2.0, 8.0, 3, None),
    ]
    assert tracing.self_times(overlapping)[1] == 3.0
    bridge = spans + [("service.bridge_call", 5, 6, 1.0, 3.0, 1, 7),
                      ("service.run_blocking", 6, None, 0.0, 5.0, 1, 7)]
    assert tracing.dispatch_wait(bridge) == 3.0


# -- only public entry points -------------------------------------------------


def test_benchmark_drives_the_program_through_public_names():
    """No private attribute of the program is read or written (no pre-seeded caches)."""
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                assert not any(part.startswith("_") for part in node.module.split(".")), path
                assert not any(alias.name.startswith("_") for alias in node.names), path
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                dunder = node.attr.startswith("__") and node.attr.endswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id in ("self", "tracer", "tracing")
                assert dunder or own, f"{path.name}:{node.lineno} reads {node.attr}"


# -- output checks -------------------------------------------------------------


def _rep(failed=0, fingerprint=None):
    return {"attempted": 1, "failed": failed, "problems": ["p"] * failed,
            "fingerprint": fingerprint or {"store": "a", "render.fig3": "x"}}


def test_tally_compares_every_repetition_with_the_first():
    assert run.tally([_rep(), _rep()], []) == (3, 0, [])
    attempted, failed, problems = run.tally([_rep(), _rep(fingerprint={"store": "a", "render.fig3": "y"})], [])
    assert (attempted, failed) == (3, 1)
    assert problems == ["outputs differ between repetitions of one seed: render.fig3"]
    assert run.tally([_rep(failed=1), _rep()], [])[1] == 1


def test_tally_counts_a_failed_repetition():
    attempted, failed, problems = run.tally([_rep()], ["repetition still running"])
    assert (attempted, failed) == (2, 1)
    assert problems == ["repetition still running"]


class _FakeClient:
    """Answers every query after a delay that makes scans slow, recording when."""

    def __init__(self, log):
        self.log = log

    async def collect(self, method, path, body):
        import asyncio

        key = querymix.spec_key(body["spec"])
        self.log.append(("start", key))
        await asyncio.sleep(0.002 if key in {k for event, k in self.log if event == "end"} else 0.02)
        self.log.append(("end", key))
        return 200, {}, [{"event": "result"}]


def test_a_repeat_is_sent_only_after_its_spec_was_answered(tmp_path):
    import asyncio

    log = []
    service = workloads.Service(7, tmp_path)
    service.clients = [_FakeClient(log), _FakeClient(log)]
    sequence = querymix.query_sequence(7, 60, days=2)
    responses, _ = asyncio.run(service._queries("job", sequence, {}))
    assert sorted(r.index for r in responses) == list(range(60))
    for query in sequence:
        starts = [i for i, entry in enumerate(log) if entry == ("start", query.key)]
        assert len(starts) == 1 or log.index(("end", query.key)) < starts[1]


# -- known defects, kept out of the benchmark's load (see NOTES.md) ------------


class _StoreStub:
    def manifest_digest(self):
        return "m"

    def journal_digest(self):
        return "j"


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="defect (a): QueryCache.put writes a fixed <digest>.tmp"
)
def test_concurrent_cache_puts_of_one_spec_both_succeed(tmp_path, monkeypatch):
    """Two puts of one spec, both past writing the temporary file before either renames it."""
    import os
    import threading

    from repro.query import QuerySpec
    from repro.query.cache import QueryCache

    barrier = threading.Barrier(2, timeout=10)
    rename = os.replace

    def replace_after_both_wrote(src, dst):
        barrier.wait()
        rename(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_both_wrote)
    cache = QueryCache(tmp_path)
    spec = QuerySpec.from_dict({"kind": "pings", "group_by": ["provider"]})
    errors = []

    def put():
        try:
            cache.put(_StoreStub(), spec, {"rows": []})
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=put) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


_FIG16_RENDER = (
    "import hashlib, repro\n"
    "from repro.experiments.registry import run_experiment\n"
    "world = repro.build_world(seed=3, scale=0.02)\n"
    "result = run_experiment('fig16', world, repro.run_campaign(world, days=4))\n"
    "print(hashlib.sha256(result.render().encode('utf-8')).hexdigest())\n"
)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="defect (c): fig16 iterates a set of strings while drawing from an RNG",
)
def test_fig16_does_not_depend_on_the_string_hash_seed():
    import os
    import subprocess

    renders = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(HERE.parent / "src"))
        renders.add(
            subprocess.run(
                [sys.executable, "-c", _FIG16_RENDER], env=env, capture_output=True, text=True, check=True
            ).stdout
        )
    assert len(renders) == 1
