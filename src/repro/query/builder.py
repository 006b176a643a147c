"""Query execution: :func:`execute` and its :class:`QueryResult`.

:func:`execute` is the one entry point that ties planner, parallel
scan, finalization, and the result cache together:

    result = execute(
        store,
        QuerySpec(
            platform="speedchecker",
            protocol="tcp",
            group_by=("country",),
            quantiles=(50,),
        ),
        workers=4,
    )

``result.payload()`` is the canonical JSON-safe form: it contains only
data determined by ``(store contents, spec)`` -- group rows in sorted
key order plus the plan summary -- never how the query was executed,
so serial, parallel, and cache-hit runs compare byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.query.cache import QueryCache
from repro.query.plan import build_plan
from repro.query.scan import GroupKey, GroupState, scan_shards
from repro.query.spec import QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.warehouse import DatasetStore

RESULT_FORMAT = "repro-query-result"
RESULT_VERSION = 1


def quantile_label(q: float) -> str:
    """The row key for one requested percentile (``50 -> "p50"``)."""
    return f"p{q:g}"


def group_rows(
    spec: QuerySpec, merged: Dict[GroupKey, GroupState]
) -> List[Dict[str, Any]]:
    """Finalize merged group states into canonical result rows.

    Rows are sorted by group-key tuple; aggregate keys appear in the
    order the spec requests them.  Value aggregates of an empty value
    stream are ``None`` (there is nothing to sum or rank).
    """
    rows: List[Dict[str, Any]] = []
    for key in sorted(merged):
        state = merged[key]
        row: Dict[str, Any] = {"group": dict(zip(spec.group_by, key))}
        for aggregate in spec.aggregates:
            if aggregate == "count":
                row["count"] = state.rows
            elif aggregate == "samples":
                row["samples"] = state.summary.count
            elif aggregate == "sum":
                row["sum"] = state.summary.total if state.summary.count else None
            elif aggregate == "min":
                row["min"] = state.summary.minimum
            elif aggregate == "max":
                row["max"] = state.summary.maximum
            elif aggregate == "mean":
                row["mean"] = state.summary.mean
        for q in spec.quantiles:
            if state.sketch is not None and state.sketch.count:
                row[quantile_label(q)] = state.sketch.quantile(q)
            else:
                row[quantile_label(q)] = None
        if spec.collect:
            row["values"] = [
                float(value)
                for value in (state.values if state.values is not None else ())
            ]
        rows.append(row)
    return rows


@dataclass
class QueryResult:
    """One executed query: canonical rows plus execution metadata.

    ``meta`` records *how* this run executed (worker count, cache
    hit/miss) and is deliberately excluded from :meth:`payload`.
    """

    spec: QuerySpec
    rows: List[Dict[str, Any]]
    plan: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON-safe result."""
        return {
            "format": RESULT_FORMAT,
            "version": RESULT_VERSION,
            "spec": self.spec.canonical(),
            "rows": self.rows,
            "plan": self.plan,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=indent)

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
    ) -> "QueryResult":
        return cls(
            spec=QuerySpec.from_dict(payload["spec"]),
            rows=list(payload["rows"]),
            plan=dict(payload["plan"]),
            meta=dict(meta or {}),
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> "Any":
        return iter(self.rows)


def execute(
    store: "DatasetStore",
    spec: QuerySpec,
    workers: int = 1,
    cache: bool = True,
) -> QueryResult:
    """Plan, scan, finalize -- with a digest-keyed result cache in front.

    The cached payload is byte-identical to what a fresh scan would
    produce (it *is* a previous scan's payload, and the key pins
    manifest + journal + spec), so correctness does not depend on the
    cache at all; ``cache=False`` forces a scan.
    """
    spec.validate()
    query_cache = QueryCache(store.run_dir)
    if cache:
        # Before planning: a hit must not pay the per-shard header
        # reads (the cached payload carries the plan summary already).
        hit = query_cache.get(store, spec)
        if hit is not None:
            return QueryResult.from_payload(hit, meta={"cache": "hit"})
    plan = build_plan(store, spec)
    merged = scan_shards(plan.scanned, spec, workers=workers)
    result = QueryResult(
        spec=spec,
        rows=group_rows(spec, merged),
        plan=plan.as_dict(),
        meta={"cache": "miss" if cache else "off", "workers": workers},
    )
    if cache:
        query_cache.put(store, spec, result.payload())
    return result
