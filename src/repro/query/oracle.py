"""An exact, record-at-a-time reference implementation.

This is the slow path the engine replaces, kept in-tree as the parity
oracle: it materializes every record through the legacy block ``record``
view, applies the spec's predicates in plain Python, and aggregates
with NumPy.  Scalar aggregates mirror the engine's exact reduction
structure -- per-shard per-group ``np.sum`` folded in canonical shard
order -- so ``count``/``samples``/``sum``/``min``/``max``/``mean`` (and
collected values) must match the engine *bit for bit*.
Quantiles are computed exactly with ``np.percentile``, which is what
bounds the sketch's error in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Union

import numpy as np

from repro.measure.results import (
    PingMeasurement,
    TracerouteMeasurement,
)
from repro.store.shards import read_ping_shard, read_trace_shard
from repro.query.builder import QueryResult, group_rows, quantile_label
from repro.query.plan import build_plan
from repro.query.scan import GroupKey, GroupState
from repro.query.spec import PING_KIND, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.warehouse import DatasetStore

Record = Union[PingMeasurement, TracerouteMeasurement]


def _block_provenance(
    block: Any, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (epoch, outage id) arrays, defaulting static blocks to
    epoch 0 / outage ``-1`` exactly as the vectorized scan does."""
    epochs = block.epochs
    if epochs is None:
        epochs = np.zeros(n, dtype=np.int32)
    outage_ids = block.outage_ids
    if outage_ids is None:
        outage_ids = np.full(n, -1, dtype=np.int32)
    return epochs, outage_ids


def _row_matches(
    spec: QuerySpec, record: Record, epoch: int, outage: int
) -> bool:
    """The spec's row predicates, evaluated on one record view."""
    meta = record.meta
    if spec.epoch_range is not None and not (
        spec.epoch_range[0] <= epoch <= spec.epoch_range[1]
    ):
        return False
    if spec.outage_ids and outage not in spec.outage_ids:
        return False
    if spec.platform is not None and meta.platform != spec.platform:
        return False
    if spec.protocol is not None and record.protocol.value != spec.protocol:
        return False
    if spec.countries and meta.country not in spec.countries:
        return False
    if spec.continents and meta.continent.value not in spec.continents:
        return False
    if spec.providers and meta.provider_code not in spec.providers:
        return False
    if spec.regions and meta.region_id not in spec.regions:
        return False
    if spec.same_continent_only and meta.continent is not meta.region_continent:
        return False
    if spec.day_range is not None and not (
        spec.day_range[0] <= meta.day <= spec.day_range[1]
    ):
        return False
    return True


def _record_values(spec: QuerySpec, record: Record) -> List[float]:
    """The record's value stream after the ``rtt_range`` value filter."""
    if isinstance(record, PingMeasurement):
        values = list(record.samples)
    else:
        rtt = record.end_to_end_rtt_ms
        values = [rtt] if rtt is not None and np.isfinite(rtt) else []
    if spec.rtt_range is not None:
        low, high = spec.rtt_range
        values = [value for value in values if low <= value <= high]
    return values


def _group_key(
    spec: QuerySpec, record: Record, epoch: int, outage: int
) -> GroupKey:
    meta = record.meta
    parts: List[Any] = []
    for key in spec.group_by:
        if key == "epoch":
            parts.append(epoch)
        elif key == "outage":
            parts.append(outage)
        elif key == "country":
            parts.append(meta.country)
        elif key == "provider":
            parts.append(meta.provider_code)
        elif key == "region":
            parts.append(meta.region_id)
        elif key == "day":
            parts.append(meta.day)
        elif key == "platform":
            parts.append(meta.platform)
        elif key == "continent":
            parts.append(meta.continent.value)
        elif key == "probe":
            parts.append(meta.probe_id)
        elif key == "protocol":
            parts.append(record.protocol.value)
        else:  # pragma: no cover - spec.validate() rejects unknown keys
            raise AssertionError(f"unhandled group key {key!r}")
    return tuple(parts)


def oracle_execute(store: "DatasetStore", spec: QuerySpec) -> QueryResult:
    """Execute a query exactly, one record at a time.

    Scans every *planned* shard (pruned shards are provably empty, so
    sharing the plan keeps the comparison about scan correctness) in
    canonical order and finalizes through the same
    :func:`~repro.query.builder.group_rows` as the engine -- with the
    quantile columns recomputed exactly afterwards.
    """
    spec.validate()
    plan = build_plan(store, spec)
    merged: Dict[GroupKey, GroupState] = {}
    exact_values: Dict[GroupKey, List[np.ndarray]] = {}
    for shard in plan.scanned:
        if spec.kind == PING_KIND:
            block = read_ping_shard(shard.path)
        else:
            block = read_trace_shard(shard.path)
        per_shard: Dict[GroupKey, List[float]] = {}
        epochs, outage_ids = _block_provenance(block, len(block))
        for index in range(len(block)):
            record = block.record(index)
            epoch = int(epochs[index])
            outage = int(outage_ids[index])
            if not _row_matches(spec, record, epoch, outage):
                continue
            values = _record_values(spec, record)
            if spec.rtt_range is not None and not values:
                continue
            key = _group_key(spec, record, epoch, outage)
            merged.setdefault(key, GroupState()).rows += 1
            group_values = per_shard.setdefault(key, [])
            if spec.needs_values:
                group_values.extend(values)
        # Mirror the engine's reduction: one np.sum per shard per group,
        # folded in canonical shard order.
        for key, values in per_shard.items():
            if not values:
                continue
            array = np.asarray(values, dtype=np.float64)
            state = merged[key]
            state.summary.add_array(array)
            if spec.quantiles or spec.collect:
                exact_values.setdefault(key, []).append(array)
    collected = {
        key: np.concatenate(arrays) for key, arrays in exact_values.items()
    }
    if spec.collect:
        for key, array in collected.items():
            merged[key].values = array
    rows = group_rows(spec, merged)
    if spec.quantiles:
        for row in rows:
            key = tuple(row["group"][name] for name in spec.group_by)
            array = collected.get(key)
            for q in spec.quantiles:
                row[quantile_label(q)] = (
                    float(np.percentile(array, q))
                    if array is not None and array.size
                    else None
                )
    return QueryResult(
        spec=spec,
        rows=rows,
        plan=plan.as_dict(),
        meta={"oracle": True},
    )
