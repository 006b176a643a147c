"""Vectorized shard scans with canonical-order merge.

One scan task = one shard.  The worker memmaps the shard's columns,
evaluates every pushed-down predicate as NumPy masks over whole columns
-- no :class:`PingMeasurement`/:class:`TracerouteMeasurement` objects
are ever constructed -- factorizes the group keys of the surviving
rows, and folds each group's value stream into mergeable states
(:mod:`repro.analysis.sketch`).

Parallelism reuses the :func:`repro.exec.pool.parallel_map` fork pool
(one task per shard) and relies on its input-order result contract:
partials are merged left-to-right in canonical journal order, so the
merged result -- floating-point sums included -- is byte-identical for
any worker count.  :func:`scan_shard_task` is the pool's worker entry
point and must stay a top-level function (lint EXE001).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sketch import QuantileSketch, ScalarSummary
from repro.exec.pool import parallel_map
from repro.measure.results import PROTOCOL_BY_CODE, PROTOCOL_CODES, Protocol
from repro.store.format import read_columns
from repro.query.plan import ShardPlan
from repro.query.spec import PING_KIND, QuerySpec

#: A group identity: one element per ``spec.group_by`` key.
GroupKey = Tuple[Any, ...]


@dataclass
class GroupState:
    """The mergeable per-group accumulator."""

    rows: int = 0
    summary: ScalarSummary = field(default_factory=ScalarSummary)
    sketch: Optional[QuantileSketch] = None
    values: Optional[np.ndarray] = None

    def merge(self, other: "GroupState") -> None:
        """Absorb a later shard's state (callers merge in shard order)."""
        self.rows += other.rows
        self.summary.merge(other.summary)
        if other.sketch is not None:
            if self.sketch is None:
                self.sketch = other.sketch
            else:
                self.sketch.merge(other.sketch)
        if other.values is not None:
            self.values = (
                other.values
                if self.values is None
                else np.concatenate([self.values, other.values])
            )


def _table_flags(
    table: Sequence[Dict[str, Any]],
    spec: QuerySpec,
    checks: Sequence[Tuple[str, Any]],
) -> Optional[np.ndarray]:
    """Per-table-row pass/fail for categorical predicates, or ``None``
    when no predicate applies (so callers skip the row gather)."""
    del spec  # predicates arrive pre-bound in `checks`
    flags: Optional[np.ndarray] = None
    for attr, wanted in checks:
        if not wanted:
            continue
        if isinstance(wanted, str):
            ok = np.array([row[attr] == wanted for row in table], dtype=bool)
        else:
            ok = np.array([row[attr] in wanted for row in table], dtype=bool)
        flags = ok if flags is None else flags & ok
    return flags


def _table_column(table: Sequence[Dict[str, Any]], attr: str) -> np.ndarray:
    return np.array([row[attr] for row in table])


def _epoch_column(
    columns: Dict[str, np.ndarray], n: int
) -> np.ndarray:
    """The routing-epoch column, defaulting static shards to epoch 0."""
    epochs = columns.get("epochs")
    if epochs is None:
        return np.zeros(n, dtype=np.int32)
    return epochs


def _outage_column(
    columns: Dict[str, np.ndarray], n: int
) -> np.ndarray:
    """The outage-id column, defaulting static shards to ``-1``."""
    outage_ids = columns.get("outage_ids")
    if outage_ids is None:
        return np.full(n, -1, dtype=np.int32)
    return outage_ids


def _row_mask(
    spec: QuerySpec,
    header: Dict[str, Any],
    columns: Dict[str, np.ndarray],
) -> np.ndarray:
    """The row-predicate mask (everything except the value predicate)."""
    probe_codes = columns["probe_codes"]
    region_codes = columns["region_codes"]
    mask = np.ones(len(probe_codes), dtype=bool)
    probes = header["probes"]
    regions = header["regions"]
    probe_flags = _table_flags(
        probes,
        spec,
        (
            ("platform", spec.platform),
            ("country", spec.countries),
            ("continent", spec.continents),
        ),
    )
    if probe_flags is not None:
        mask &= probe_flags[probe_codes]
    region_flags = _table_flags(
        regions,
        spec,
        (
            ("provider_code", spec.providers),
            ("region_id", spec.regions),
        ),
    )
    if region_flags is not None:
        mask &= region_flags[region_codes]
    if spec.same_continent_only:
        probe_continents = _table_column(probes, "continent")
        region_continents = _table_column(regions, "continent")
        mask &= (
            probe_continents[probe_codes] == region_continents[region_codes]
        )
    if spec.day_range is not None:
        days = columns["days"]
        mask &= (days >= spec.day_range[0]) & (days <= spec.day_range[1])
    if spec.protocol is not None:
        wanted = PROTOCOL_CODES[Protocol(spec.protocol)]
        mask &= columns["protocol_codes"] == wanted
    if spec.epoch_range is not None:
        epochs = _epoch_column(columns, len(probe_codes))
        mask &= (epochs >= spec.epoch_range[0]) & (
            epochs <= spec.epoch_range[1]
        )
    if spec.outage_ids:
        outage_ids = _outage_column(columns, len(probe_codes))
        mask &= np.isin(
            outage_ids, np.asarray(spec.outage_ids, dtype=np.int32)
        )
    return mask


def _ping_values(
    spec: QuerySpec,
    columns: Dict[str, np.ndarray],
    mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the value predicate; extract the surviving sample stream.

    Returns ``(mask, values, value_rows)``: the row mask with the
    ``rtt_range`` row predicate folded in, the selected sample values in
    (row, sample) order, and each value's row index.
    """
    offsets = columns["sample_offsets"]
    samples = columns["sample_values"]
    counts = np.diff(offsets)
    in_bounds: Optional[np.ndarray] = None
    if spec.rtt_range is not None:
        low, high = spec.rtt_range
        in_bounds = (samples >= low) & (samples <= high)
        # Row predicate: at least one sample inside the bounds.  This is
        # what makes zone pruning on sample_values sound for `count`.
        cumulative = np.concatenate(
            ([0], np.cumsum(in_bounds, dtype=np.int64))
        )
        per_row = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
        mask = mask & (per_row > 0)
    if not spec.needs_values:
        return mask, np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    sample_sel = np.repeat(mask, counts)
    if in_bounds is not None:
        sample_sel &= in_bounds
    values = np.asarray(samples[sample_sel], dtype=np.float64)
    value_rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[
        sample_sel
    ]
    return mask, values, value_rows


def _trace_values(
    spec: QuerySpec,
    columns: Dict[str, np.ndarray],
    mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace value stream: end-to-end RTTs of reached traces.

    A trace contributes one value when its final hop answered from the
    destination address with a finite RTT.  With ``rtt_range`` set, rows
    without an in-bounds value are dropped from the row mask too.
    """
    offsets = columns["hop_offsets"]
    n = len(mask)
    counts = np.diff(offsets)
    has_hops = counts > 0
    end_rtts = np.full(n, np.nan, dtype=np.float64)
    if np.any(has_hops):
        last = offsets[1:][has_hops] - 1
        reached = (
            columns["hop_addresses"][last]
            == columns["dest_addresses"][has_hops]
        )
        rtts = np.asarray(columns["hop_rtts"][last], dtype=np.float64)
        rtts[~reached] = np.nan
        end_rtts[has_hops] = rtts
    has_value = np.isfinite(end_rtts)
    if spec.rtt_range is not None:
        low, high = spec.rtt_range
        mask = mask & has_value & (end_rtts >= low) & (end_rtts <= high)
    if not spec.needs_values:
        return mask, np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    value_rows = np.flatnonzero(mask & has_value).astype(np.int64)
    return mask, end_rtts[value_rows], value_rows


def _group_columns(
    spec: QuerySpec,
    header: Dict[str, Any],
    columns: Dict[str, np.ndarray],
    selected: np.ndarray,
) -> List[np.ndarray]:
    """One value array per group key, over the selected rows."""
    probe_codes = columns["probe_codes"][selected]
    region_codes = columns["region_codes"][selected]
    out: List[np.ndarray] = []
    for key in spec.group_by:
        if key == "country":
            out.append(_table_column(header["probes"], "country")[probe_codes])
        elif key == "platform":
            out.append(
                _table_column(header["probes"], "platform")[probe_codes]
            )
        elif key == "continent":
            out.append(
                _table_column(header["probes"], "continent")[probe_codes]
            )
        elif key == "probe":
            out.append(
                _table_column(header["probes"], "probe_id")[probe_codes]
            )
        elif key == "provider":
            out.append(
                _table_column(header["regions"], "provider_code")[region_codes]
            )
        elif key == "region":
            out.append(
                _table_column(header["regions"], "region_id")[region_codes]
            )
        elif key == "day":
            out.append(columns["days"][selected])
        elif key == "protocol":
            protocol_values = np.array(
                [protocol.value for protocol in PROTOCOL_BY_CODE]
            )
            out.append(protocol_values[columns["protocol_codes"][selected]])
        elif key == "epoch":
            out.append(
                _epoch_column(columns, len(columns["probe_codes"]))[selected]
            )
        elif key == "outage":
            out.append(
                _outage_column(columns, len(columns["probe_codes"]))[selected]
            )
        else:  # pragma: no cover - spec.validate() rejects unknown keys
            raise AssertionError(f"unhandled group key {key!r}")
    return out


def _factorize(
    key_columns: List[np.ndarray], n_rows: int
) -> Tuple[List[GroupKey], np.ndarray]:
    """Group tuples (sorted) and each row's group index."""
    if not key_columns:
        return [()], np.zeros(n_rows, dtype=np.int64)
    combined = np.zeros(n_rows, dtype=np.int64)
    uniques: List[np.ndarray] = []
    for column in key_columns:
        values, inverse = np.unique(column, return_inverse=True)
        uniques.append(values)
        combined = combined * len(values) + inverse
    group_codes, group_inverse = np.unique(combined, return_inverse=True)
    keys: List[GroupKey] = []
    for code in group_codes.tolist():
        parts: List[Any] = []
        for values in reversed(uniques):
            code, part = divmod(code, len(values))
            parts.append(values[part].item())
        keys.append(tuple(reversed(parts)))
    return keys, group_inverse.astype(np.int64)


def scan_shard_task(
    task: Tuple[str, QuerySpec],
) -> Dict[GroupKey, GroupState]:
    """Scan one shard; the fork pool's worker entry point (top level).

    ``task`` is ``(shard_path, spec)``.  Returns the
    shard's partial per-group states, keyed by group tuple, with keys in
    sorted order so a left-fold over partials is fully deterministic.
    """
    path, spec = task
    header, columns = read_columns(path)
    mask = _row_mask(spec, header, columns)
    if spec.kind == PING_KIND:
        mask, values, value_rows = _ping_values(spec, columns, mask)
    else:
        mask, values, value_rows = _trace_values(spec, columns, mask)
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return {}
    keys, group_inverse = _factorize(
        _group_columns(spec, header, columns, selected), selected.size
    )
    group_count = len(keys)
    rows_per_group = np.bincount(group_inverse, minlength=group_count)
    partial: Dict[GroupKey, GroupState] = {
        key: GroupState(rows=int(rows_per_group[g])) for g, key in enumerate(keys)
    }
    if spec.needs_values and values.size:
        # Map each value's row to its group, then slice the value stream
        # per group preserving (row, sample) order.
        position = np.full(len(mask), -1, dtype=np.int64)
        position[selected] = np.arange(selected.size, dtype=np.int64)
        value_groups = group_inverse[position[value_rows]]
        value_order = np.argsort(value_groups, kind="stable")
        sorted_values = values[value_order]
        values_per_group = np.bincount(value_groups, minlength=group_count)
        value_ends = np.cumsum(values_per_group)
        value_starts = value_ends - values_per_group
        for g, key in enumerate(keys):
            group_values = sorted_values[value_starts[g] : value_ends[g]]
            state = partial[key]
            state.summary.add_array(group_values)
            if spec.quantiles:
                state.sketch = QuantileSketch(epsilon=spec.epsilon)
                state.sketch.add_array(group_values)
            if spec.collect:
                state.values = np.array(group_values, dtype=np.float64)
    elif spec.quantiles:
        for state in partial.values():
            state.sketch = QuantileSketch(epsilon=spec.epsilon)
    return partial


def scan_shards(
    shards: Sequence[ShardPlan],
    spec: QuerySpec,
    workers: int = 1,
) -> Dict[GroupKey, GroupState]:
    """Scan planned shards and merge partials in canonical order.

    ``parallel_map`` returns results in input order regardless of
    worker count, and the left-fold below is order-sensitive only in
    ways both serial and parallel runs share -- which is the whole
    byte-identity argument.
    """
    tasks = [(shard.path, spec) for shard in shards]
    partials = parallel_map(scan_shard_task, tasks, workers=workers)
    merged: Dict[GroupKey, GroupState] = {}
    for partial in partials:
        for key, state in partial.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = state
            else:
                existing.merge(state)
    return merged
