"""Query-engine benchmarks: pushdown and cache gates.

The two contracts of ``repro.query`` (docs/QUERY.md), asserted in CI:

- ``test_pushdown_speedup``: a selective query answered by the planner
  (zone pruning) plus vectorized column scans must beat materializing
  records and filtering them in Python by >=5x.
- ``test_cache_speedup``: a warm result-cache hit must beat the cold
  scan that produced it by >=100x -- a hit is one small JSON read keyed
  by (manifest digest, query digest).

The ``bench_*`` cases record absolute numbers alongside the other
benchmark artifacts (``BENCH_query.json``).
"""

from __future__ import annotations

import shutil
import time

from repro.query import QuerySpec, execute
from repro.store import DatasetStore

#: Selective query: one platform, two days out of 21 -- the planner
#: prunes the other shards from their headers alone.
SELECTIVE_SPEC = QuerySpec(
    platform="speedchecker",
    day_range=(3, 4),
    group_by=("country",),
    aggregates=("count", "samples", "sum", "mean"),
)

#: Full-store group-by used for the cache gate: the cold scan touches
#: every shard and builds per-group quantile sketches, while the warm
#: hit re-reads a few hundred finalized rows of JSON.
CACHED_SPEC = QuerySpec(
    group_by=("country", "provider"), quantiles=(50.0, 90.0)
)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _materialize_then_filter(store):
    """The pre-engine baseline: one record object per row, Python-level
    filtering."""
    per_country = {}
    for block in store.dataset().ping_blocks():
        for index in range(len(block)):
            ping = block.record(index)
            if ping.meta.platform != "speedchecker":
                continue
            if not 3 <= ping.meta.day <= 4:
                continue
            bucket = per_country.setdefault(ping.meta.country, [0, 0, 0.0])
            bucket[0] += 1
            bucket[1] += len(ping.samples)
            bucket[2] += sum(ping.samples)
    return per_country


def _pushdown_scan(store):
    return execute(store, SELECTIVE_SPEC, cache=False)


def test_pushdown_speedup(store_dir):
    """Planner + columnar scan >=5x faster than materialize-then-filter."""
    store = DatasetStore.open(store_dir)
    # Warm both paths once (imports, page cache), and cross-check them.
    result = _pushdown_scan(store)
    baseline = _materialize_then_filter(store)
    engine_counts = {
        row["group"]["country"]: row["samples"] for row in result.rows
    }
    assert engine_counts == {iso: b[1] for iso, b in baseline.items()}

    rounds = 3
    engine_best = min(_timed(_pushdown_scan, store) for _ in range(rounds))
    baseline_best = min(
        _timed(_materialize_then_filter, store) for _ in range(rounds)
    )
    speedup = baseline_best / engine_best
    print(
        f"\npushdown scan: {engine_best * 1e3:.2f} ms, "
        f"materialize+filter: {baseline_best * 1e3:.2f} ms, "
        f"speedup: {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"pushdown scan is only {speedup:.1f}x faster than "
        f"materialize-then-filter (contract: >=5x)"
    )


def test_cache_speedup(store_dir):
    """A warm cache hit >=100x faster than the cold scan (CI gate)."""
    store = DatasetStore.open(store_dir)
    cache_dir = store.run_dir / ".querycache"

    def _cold():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return execute(store, CACHED_SPEC, cache=True)

    rounds = 3
    cold_best = min(_timed(_cold) for _ in range(rounds))
    cold = execute(store, CACHED_SPEC, cache=True)  # leave a warm entry
    warm = execute(store, CACHED_SPEC, cache=True)
    assert warm.meta["cache"] == "hit"
    assert warm.to_json() == cold.to_json()
    warm_best = min(
        _timed(execute, store, CACHED_SPEC) for _ in range(rounds)
    )
    speedup = cold_best / warm_best
    print(
        f"\ncold scan: {cold_best * 1e3:.2f} ms, "
        f"cache hit: {warm_best * 1e3:.2f} ms, "
        f"speedup: {speedup:.0f}x"
    )
    assert speedup >= 100.0, (
        f"warm cache hit is only {speedup:.0f}x faster than the cold "
        f"scan (contract: >=100x)"
    )


def test_query_pushdown_scan(benchmark, store_dir):
    """Selective pruned scan over the 21-day campaign store."""
    store = DatasetStore.open(store_dir)
    result = benchmark(_pushdown_scan, store)
    plan = result.plan
    print(
        f"\n{len(result.rows)} groups; scanned "
        f"{plan['shards_scanned']}/{plan['shards_total']} shards"
    )


def test_query_cache_hit(benchmark, store_dir):
    """Warm result-cache hit for the full-store group-by."""
    store = DatasetStore.open(store_dir)
    execute(store, CACHED_SPEC, cache=True)
    result = benchmark(execute, store, CACHED_SPEC)
    assert result.meta["cache"] == "hit"
    print(f"\n{len(result.rows)} groups from cache")
