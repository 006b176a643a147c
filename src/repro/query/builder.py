"""The Python-facing query API: :class:`QueryBuilder` and execution.

The builder is a thin immutable wrapper that accumulates a
:class:`~repro.query.spec.QuerySpec`; :func:`execute` is the one
entry point that ties planner, parallel scan, finalization, and the
result cache together:

    result = (
        store.query()
        .where(platform="speedchecker", protocol="tcp")
        .group_by("country")
        .quantiles(50)
        .run(workers=4)
    )

``result.payload()`` is the canonical JSON-safe form: it contains only
data determined by ``(store contents, spec)`` -- group rows in sorted
key order plus the plan summary -- never how the query was executed,
so serial, parallel, and cache-hit runs compare byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.measure.results import Protocol
from repro.query.cache import QueryCache
from repro.query.plan import ScanPlan, build_plan
from repro.query.scan import GroupKey, GroupState, scan_shards
from repro.query.spec import PING_KIND, TRACE_KIND, QuerySpec

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


class QueryBuilder:
    """Immutable fluent builder over one store.

    Every method returns a *new* builder, so partial queries can be
    shared and extended without aliasing surprises.
    """

    def __init__(
        self, store: "DatasetStore", spec: Optional[QuerySpec] = None
    ) -> None:
        self._store = store
        self._spec = spec if spec is not None else QuerySpec()

    def _with(self, **changes: Any) -> "QueryBuilder":
        return QueryBuilder(self._store, self._spec.with_(**changes))

    # -- kind --------------------------------------------------------------

    def pings(self) -> "QueryBuilder":
        return self._with(kind=PING_KIND)

    def traces(self) -> "QueryBuilder":
        return self._with(kind=TRACE_KIND)

    # -- predicates --------------------------------------------------------

    def where(
        self,
        platform: Optional[str] = None,
        protocol: Optional[Union[str, Protocol]] = None,
        country: Optional[Union[str, Sequence[str]]] = None,
        provider: Optional[Union[str, Sequence[str]]] = None,
        region: Optional[Union[str, Sequence[str]]] = None,
        continent: Optional[Union[str, Sequence[str]]] = None,
        same_continent_only: Optional[bool] = None,
    ) -> "QueryBuilder":
        """Add conjunctive predicates (repeated calls accumulate)."""
        changes: Dict[str, Any] = {}
        if platform is not None:
            changes["platform"] = platform
        if protocol is not None:
            changes["protocol"] = (
                protocol.value
                if isinstance(protocol, Protocol)
                else str(protocol)
            )
        if country is not None:
            changes["countries"] = self._merged(self._spec.countries, country)
        if provider is not None:
            changes["providers"] = self._merged(self._spec.providers, provider)
        if region is not None:
            changes["regions"] = self._merged(self._spec.regions, region)
        if continent is not None:
            changes["continents"] = self._merged(
                self._spec.continents, continent
            )
        if same_continent_only is not None:
            changes["same_continent_only"] = bool(same_continent_only)
        return self._with(**changes)

    @staticmethod
    def _merged(
        existing: Sequence[str], added: Union[str, Sequence[str]]
    ) -> "tuple[str, ...]":
        if isinstance(added, str):
            added = (added,)
        return tuple(existing) + tuple(added)

    def days(self, first: int, last: int) -> "QueryBuilder":
        """Inclusive day range."""
        return self._with(day_range=(int(first), int(last)))

    def rtt_between(self, low: float, high: float) -> "QueryBuilder":
        """Inclusive RTT bounds (row predicate + value filter)."""
        return self._with(rtt_range=(float(low), float(high)))

    def epochs(self, first: int, last: int) -> "QueryBuilder":
        """Inclusive routing-epoch range (dynamic-topology provenance).

        Rows from static-topology shards count as epoch 0.
        """
        return self._with(epoch_range=(int(first), int(last)))

    def outages(self, *ids: int) -> "QueryBuilder":
        """Keep rows attributed to these network event ids.

        ``-1`` selects rows no event touched (all rows of static runs).
        Repeated calls accumulate.
        """
        return self._with(
            outage_ids=tuple(self._spec.outage_ids)
            + tuple(int(oid) for oid in ids)
        )

    # -- shape -------------------------------------------------------------

    def group_by(self, *keys: str) -> "QueryBuilder":
        return self._with(group_by=tuple(keys))

    def aggregate(self, *aggregates: str) -> "QueryBuilder":
        return self._with(aggregates=tuple(aggregates))

    def quantiles(
        self, *qs: float, epsilon: Optional[float] = None
    ) -> "QueryBuilder":
        changes: Dict[str, Any] = {"quantiles": tuple(float(q) for q in qs)}
        if epsilon is not None:
            changes["epsilon"] = float(epsilon)
        return self._with(**changes)

    def collect(self, collect: bool = True) -> "QueryBuilder":
        """Also return each group's exact value array."""
        return self._with(collect=collect)

    # -- execution ---------------------------------------------------------

    @property
    def spec(self) -> QuerySpec:
        return self._spec

    def plan(self) -> ScanPlan:
        """The scan plan without executing (``explain``)."""
        return build_plan(self._store, self._spec)

    def run(self, workers: int = 1, cache: bool = True) -> QueryResult:
        return execute(self._store, self._spec, workers=workers, cache=cache)

    def __repr__(self) -> str:
        return f"QueryBuilder({self._spec!r})"
