"""Canonical query specifications.

A :class:`QuerySpec` is the complete, serializable description of one
query: which record kind to scan, which predicates to push down, which
keys to group by, and which aggregates to produce.  Everything else in
the engine -- the planner, the scan workers, the oracle, the cache key
-- derives from it, so the spec is *canonical*: field normalization in
``__post_init__`` plus sorted-key JSON in :meth:`canonical` guarantee
that two equivalent queries share one :meth:`digest`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.sketch import DEFAULT_EPSILON
from repro.geo.continents import Continent
from repro.measure.results import Protocol

#: Record kinds a query can scan (match the shard-header ``kind`` tags).
PING_KIND = "pings"
TRACE_KIND = "traces"
QUERY_KINDS = (PING_KIND, TRACE_KIND)

#: Group keys the engine can factorize, in canonical column order.
#: ``country``/``continent``/``platform``/``probe`` come from the probe
#: table, ``provider``/``region`` from the region table, ``day``,
#: ``protocol``, ``epoch`` and ``outage`` from row columns.  Shards
#: written by static-topology runs carry no ``epochs``/``outage_ids``
#: columns; their rows read as epoch ``0`` / outage ``-1``.
GROUP_KEYS = (
    "country",
    "provider",
    "region",
    "day",
    "platform",
    "continent",
    "probe",
    "protocol",
    "epoch",
    "outage",
)

#: Scalar aggregates.  ``count`` counts matching rows (requests);
#: ``samples``/``sum``/``min``/``max``/``mean`` describe the value
#: stream (ping RTT samples, or end-to-end RTTs of reached traces).
SCALAR_AGGREGATES = ("count", "samples", "sum", "min", "max", "mean")

DEFAULT_AGGREGATES: Tuple[str, ...] = SCALAR_AGGREGATES

#: Aggregates that require extracting the value stream from columns.
VALUE_AGGREGATES = frozenset({"samples", "sum", "min", "max", "mean"})


class QueryError(ValueError):
    """An invalid query specification."""


def _str_tuple(values: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if not values:
        return ()
    if isinstance(values, str):
        values = (values,)
    return tuple(sorted(set(str(value) for value in values)))


@dataclass(frozen=True)
class QuerySpec:
    """One query: kind + pushed-down predicates + grouping + aggregates.

    Filter semantics (all conjunctive):

    - ``platform``/``protocol``/``countries``/``continents`` select rows
      by probe attributes; ``providers``/``regions`` by target region.
    - ``day_range`` is inclusive on both ends.
    - ``rtt_range`` is a *row* predicate -- a row matches when at least
      one of its values falls inside the inclusive bounds -- and also
      filters the value stream to the in-bounds values.  Making it a row
      predicate is what keeps zone-map pruning sound for ``count``.
    - ``same_continent_only`` keeps rows whose probe and target region
      share a continent (the paper's wild-guess filter).
    """

    kind: str = PING_KIND
    platform: Optional[str] = None
    protocol: Optional[str] = None
    countries: Tuple[str, ...] = ()
    providers: Tuple[str, ...] = ()
    regions: Tuple[str, ...] = ()
    continents: Tuple[str, ...] = ()
    day_range: Optional[Tuple[int, int]] = None
    rtt_range: Optional[Tuple[float, float]] = None
    #: Inclusive routing-epoch bounds (dynamic-topology provenance).
    #: Rows from shards without an ``epochs`` column count as epoch 0.
    epoch_range: Optional[Tuple[int, int]] = None
    #: Keep only rows attributed to these network event ids; ``-1``
    #: selects rows no event touched.  Rows from shards without an
    #: ``outage_ids`` column count as ``-1``.
    outage_ids: Tuple[int, ...] = ()
    same_continent_only: bool = False
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[str, ...] = field(default=DEFAULT_AGGREGATES)
    quantiles: Tuple[float, ...] = ()
    epsilon: float = DEFAULT_EPSILON
    collect: bool = False

    def __post_init__(self) -> None:
        # Normalize sequence-typed fields so equivalent specs compare,
        # hash, and digest identically (the dataclass is frozen; use
        # object.__setattr__ as frozen dataclasses themselves do).
        object.__setattr__(self, "countries", _str_tuple(self.countries))
        object.__setattr__(self, "providers", _str_tuple(self.providers))
        object.__setattr__(self, "regions", _str_tuple(self.regions))
        object.__setattr__(self, "continents", _str_tuple(self.continents))
        if isinstance(self.group_by, str):
            object.__setattr__(self, "group_by", (self.group_by,))
        else:
            object.__setattr__(self, "group_by", tuple(self.group_by))
        if isinstance(self.aggregates, str):
            object.__setattr__(self, "aggregates", (self.aggregates,))
        else:
            object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(
            self, "quantiles", tuple(float(q) for q in self.quantiles)
        )
        if self.day_range is not None:
            lo, hi = self.day_range
            object.__setattr__(self, "day_range", (int(lo), int(hi)))
        if self.rtt_range is not None:
            lo, hi = self.rtt_range
            object.__setattr__(self, "rtt_range", (float(lo), float(hi)))
        if self.epoch_range is not None:
            lo, hi = self.epoch_range
            object.__setattr__(self, "epoch_range", (int(lo), int(hi)))
        if isinstance(self.outage_ids, int):
            object.__setattr__(self, "outage_ids", (self.outage_ids,))
        object.__setattr__(
            self,
            "outage_ids",
            tuple(sorted(set(int(oid) for oid in self.outage_ids))),
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`QueryError` on any inconsistency."""
        if self.kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {self.kind!r}; expected one of "
                f"{QUERY_KINDS}"
            )
        if self.protocol is not None:
            try:
                Protocol(self.protocol)
            except ValueError:
                raise QueryError(
                    f"unknown protocol {self.protocol!r}"
                ) from None
        for continent in self.continents:
            try:
                Continent(continent)
            except ValueError:
                raise QueryError(
                    f"unknown continent {continent!r}"
                ) from None
        seen = set()
        for key in self.group_by:
            if key not in GROUP_KEYS:
                raise QueryError(
                    f"unknown group key {key!r}; expected one of {GROUP_KEYS}"
                )
            if key in seen:
                raise QueryError(f"duplicate group key {key!r}")
            seen.add(key)
        for aggregate in self.aggregates:
            if aggregate not in SCALAR_AGGREGATES:
                raise QueryError(
                    f"unknown aggregate {aggregate!r}; expected one of "
                    f"{SCALAR_AGGREGATES}"
                )
        for q in self.quantiles:
            if not 0.0 <= q <= 100.0:
                raise QueryError(
                    f"quantile {q} outside [0, 100]"
                )
        if self.day_range is not None and self.day_range[0] > self.day_range[1]:
            raise QueryError(f"empty day_range {self.day_range}")
        if self.rtt_range is not None and self.rtt_range[0] > self.rtt_range[1]:
            raise QueryError(f"empty rtt_range {self.rtt_range}")
        if self.epoch_range is not None:
            if self.epoch_range[0] > self.epoch_range[1]:
                raise QueryError(f"empty epoch_range {self.epoch_range}")
            if self.epoch_range[0] < 0:
                raise QueryError(
                    f"epoch_range bounds must be >= 0, got {self.epoch_range}"
                )
        for oid in self.outage_ids:
            if oid < -1:
                raise QueryError(
                    f"outage id {oid} invalid; event ids are >= 0 and -1 "
                    f"selects unaffected rows"
                )
        if not 0.0 < self.epsilon < 1.0:
            raise QueryError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )

    # -- derived properties ------------------------------------------------

    @property
    def needs_values(self) -> bool:
        """Whether the scan must extract the value stream at all."""
        return (
            bool(self.quantiles)
            or self.collect
            or self.rtt_range is not None
            or any(agg in VALUE_AGGREGATES for agg in self.aggregates)
        )

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The JSON-safe canonical dict (stable across sessions)."""
        return {
            "kind": self.kind,
            "platform": self.platform,
            "protocol": self.protocol,
            "countries": list(self.countries),
            "providers": list(self.providers),
            "regions": list(self.regions),
            "continents": list(self.continents),
            "day_range": list(self.day_range) if self.day_range else None,
            "rtt_range": list(self.rtt_range) if self.rtt_range else None,
            "epoch_range": list(self.epoch_range) if self.epoch_range else None,
            "outage_ids": list(self.outage_ids),
            "same_continent_only": self.same_continent_only,
            "group_by": list(self.group_by),
            "aggregates": list(self.aggregates),
            "quantiles": list(self.quantiles),
            "epsilon": self.epsilon,
            "collect": self.collect,
        }

    def digest(self) -> str:
        """sha256 of the canonical JSON serialization."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuerySpec":
        """Rebuild a spec from :meth:`canonical` output (exact inverse)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(f"unknown query spec fields: {unknown}")
        kwargs: Dict[str, Any] = dict(payload)
        if kwargs.get("day_range") is not None:
            kwargs["day_range"] = tuple(kwargs["day_range"])
        if kwargs.get("rtt_range") is not None:
            kwargs["rtt_range"] = tuple(kwargs["rtt_range"])
        if kwargs.get("epoch_range") is not None:
            kwargs["epoch_range"] = tuple(kwargs["epoch_range"])
        if kwargs.get("outage_ids") is not None:
            kwargs["outage_ids"] = tuple(kwargs["outage_ids"])
        spec = cls(**kwargs)
        spec.validate()
        return spec
