"""Query-engine parity on a real campaign store.

The columnar engine and the record-at-a-time oracle must agree exactly:
the engine's vectorized scans feed `ScalarSummary` the same per-shard
arrays the oracle sums, so even float totals are bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_world, run_campaign_checkpointed
from repro.experiments.netfault_exp import (
    failover_specs,
    netfault_study,
    pathdiv_specs,
)
from repro.query import TRACE_KIND, QuerySpec, build_plan, execute
from repro.query.oracle import oracle_execute

from tests.conftest import STUDY_SCALE, STUDY_SEED

#: A short campaign keeps the module-scoped store cheap to build while
#: still covering both platforms, both protocols, and several days.
PARITY_DAYS = 5


@pytest.fixture(scope="module")
def parity_world():
    return build_world(seed=STUDY_SEED, scale=STUDY_SCALE)


@pytest.fixture(scope="module")
def parity_store(parity_world, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("query-parity") / "run"
    return run_campaign_checkpointed(parity_world, run_dir, days=PARITY_DAYS)


PARITY_SPECS = [
    QuerySpec(group_by=("country",)),
    QuerySpec(platform="speedchecker", protocol="tcp",
              group_by=("provider", "region")),
    QuerySpec(same_continent_only=True, group_by=("continent", "day"),
              aggregates=("count", "samples", "sum", "mean")),
    QuerySpec(rtt_range=(20.0, 120.0), group_by=("platform",)),
    QuerySpec(kind=TRACE_KIND, group_by=("country",)),
]


class TestEngineOracleParity:
    @pytest.mark.parametrize(
        "spec", PARITY_SPECS, ids=lambda s: s.digest()[:10]
    )
    def test_scalar_aggregates_exact(self, parity_store, spec):
        engine = execute(parity_store, spec, cache=False)
        oracle = oracle_execute(parity_store, spec)
        assert engine.payload() == oracle.payload()

    def test_quantiles_within_rank_epsilon(self, parity_store):
        spec = QuerySpec(
            group_by=("country",), quantiles=(50.0, 90.0), collect=True
        )
        engine = execute(parity_store, spec, cache=False)
        oracle = oracle_execute(parity_store, spec)
        assert len(engine.rows) == len(oracle.rows)
        for row, exact_row in zip(engine.rows, oracle.rows):
            assert row["group"] == exact_row["group"]
            assert row["values"] == exact_row["values"]
            values = np.sort(np.asarray(row["values"], dtype=np.float64))
            for q in (50.0, 90.0):
                label = f"p{q:g}"
                target = q / 100.0 * (values.size - 1)
                lo = np.searchsorted(values, row[label], side="left")
                hi = np.searchsorted(values, row[label], side="right")
                error = max(
                    0.0, target - max(lo, hi - 1), min(lo, hi - 1) - target
                )
                assert error <= spec.epsilon * values.size + 1.0

    def test_workers_byte_identical(self, parity_store):
        spec = QuerySpec(group_by=("country", "provider"), quantiles=(50.0,))
        serial = execute(parity_store, spec, workers=1, cache=False)
        for workers in (2, 4):
            assert (
                execute(parity_store, spec, workers=workers, cache=False)
                .to_json()
                == serial.to_json()
            )

    def test_cache_hit_on_real_store(self, parity_store):
        spec = QuerySpec(group_by=("day",), aggregates=("samples", "mean"))
        cold = execute(parity_store, spec, cache=True)
        warm = execute(parity_store, spec, cache=True)
        assert (cold.meta["cache"], warm.meta["cache"]) == ("miss", "hit")
        assert warm.to_json() == cold.to_json()

    def test_plan_prunes_off_campaign_days(self, parity_store):
        plan = build_plan(
            parity_store, QuerySpec(day_range=(PARITY_DAYS, PARITY_DAYS + 7))
        )
        assert not plan.scanned
        plan = build_plan(parity_store, QuerySpec(day_range=(0, 0)))
        assert plan.scanned and plan.pruned


@pytest.fixture(scope="module")
def netfault_store(parity_world):
    """The campaign the ``failover`` and ``pathdiv`` experiments query."""
    _, tmpdir, store = netfault_study(parity_world)
    with tmpdir:
        yield store


class TestNetfaultExperimentParity:
    """The dynamic-topology experiments read their tables with the
    engine alone; every query they issue must equal the oracle's."""

    @pytest.mark.parametrize(
        "spec",
        failover_specs() + pathdiv_specs(),
        ids=lambda s: s.digest()[:10],
    )
    def test_engine_equals_oracle(self, netfault_store, spec):
        engine = execute(netfault_store, spec, workers=1, cache=False)
        oracle = oracle_execute(netfault_store, spec)
        assert engine.rows
        assert engine.rows == oracle.rows
