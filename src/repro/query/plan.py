"""The scan planner: zone-map shard pruning.

Every shard header carries (a) the interned probe/region tables and
(b) a per-column zone map -- row count plus value min/max -- written at
commit time (:mod:`repro.store.shards`).  Both are JSON in the header,
so the planner decides which shards a query must touch by reading a few
KiB of header per shard and **zero column bytes**:

- categorical predicates (platform, country, continent, provider,
  region) prune a shard when *no* row of its probe/region tables can
  match;
- range predicates (``day_range``, ``rtt_range``, ``protocol``) prune
  when the filter interval is disjoint from the column's zone interval.

Pruning is conservative: a kept shard may still produce zero matching
rows, but a pruned shard provably cannot produce any.  Shards written
before zone maps existed carry no zones and are never range-pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.measure.results import PROTOCOL_CODES, Protocol
from repro.store.format import read_header
from repro.store.shards import header_zones
from repro.query.spec import PING_KIND, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.warehouse import DatasetStore

#: Zone column carrying the value stream, per query kind.
VALUE_COLUMNS = {PING_KIND: "sample_values", "traces": "hop_rtts"}

SCAN = "scan"
PRUNE = "prune"


@dataclass(frozen=True)
class ShardPlan:
    """The planner's verdict for one shard."""

    unit: str
    name: str
    kind: str
    path: str
    rows: int
    action: str
    reason: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "unit": self.unit,
            "name": self.name,
            "rows": self.rows,
            "action": self.action,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        return payload


@dataclass(frozen=True)
class ScanPlan:
    """Which shards a query scans, and why the rest were pruned."""

    kind: str
    shards: Tuple[ShardPlan, ...]

    @property
    def scanned(self) -> List[ShardPlan]:
        return [shard for shard in self.shards if shard.action == SCAN]

    @property
    def pruned(self) -> List[ShardPlan]:
        return [shard for shard in self.shards if shard.action == PRUNE]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe plan summary (stable: shards in canonical order)."""
        return {
            "kind": self.kind,
            "shards_total": len(self.shards),
            "shards_scanned": len(self.scanned),
            "shards_pruned": len(self.pruned),
            "rows_scanned": sum(shard.rows for shard in self.scanned),
            "rows_pruned": sum(shard.rows for shard in self.pruned),
            "pruned": [shard.as_dict() for shard in self.pruned],
        }


def _ranges_disjoint(
    zone: Optional[Dict[str, Any]],
    low: float,
    high: float,
) -> bool:
    """Whether a filter interval provably misses a column's zone.

    ``None`` bounds (no zone map, or an empty/all-NaN column) never
    prove disjointness here; all-NaN value columns are handled
    separately by the caller.
    """
    if not zone:
        return False
    zone_min = zone.get("min")
    zone_max = zone.get("max")
    if zone_min is None or zone_max is None:
        return False
    return zone_max < low or zone_min > high


def _prune_reason(
    spec: QuerySpec,
    header: Dict[str, Any],
    zones: Optional[Dict[str, Dict[str, Any]]],
) -> Optional[str]:
    """The first predicate that proves this shard has no matching rows."""
    probes = header.get("probes", [])
    regions = header.get("regions", [])
    if spec.platform is not None and not any(
        probe["platform"] == spec.platform for probe in probes
    ):
        return f"no probe on platform {spec.platform!r}"
    if spec.countries and not any(
        probe["country"] in spec.countries for probe in probes
    ):
        return "no probe in requested countries"
    if spec.continents and not any(
        probe["continent"] in spec.continents for probe in probes
    ):
        return "no probe in requested continents"
    if spec.providers and not any(
        region["provider_code"] in spec.providers for region in regions
    ):
        return "no target region of requested providers"
    if spec.regions and not any(
        region["region_id"] in spec.regions for region in regions
    ):
        return "no target region in requested regions"
    if spec.same_continent_only:
        region_continents = {region["continent"] for region in regions}
        if not any(
            probe["continent"] in region_continents for probe in probes
        ):
            return "no probe shares a continent with any target region"
    if zones is None:
        return None
    if spec.day_range is not None and _ranges_disjoint(
        zones.get("days"), spec.day_range[0], spec.day_range[1]
    ):
        day_zone = zones["days"]
        return (
            f"day range {list(spec.day_range)} outside shard days "
            f"[{day_zone['min']}, {day_zone['max']}]"
        )
    if spec.protocol is not None:
        protocol_zone = zones.get("protocol_codes")
        wanted = PROTOCOL_CODES[Protocol(spec.protocol)]
        if (
            protocol_zone
            and protocol_zone.get("min") is not None
            and protocol_zone["min"] == protocol_zone["max"]
            and protocol_zone["min"] != wanted
        ):
            return f"shard carries no {spec.protocol!r} rows"
    if spec.epoch_range is not None:
        # Shards without an `epochs` column are static-topology shards:
        # every row reads as epoch 0, so they carry the synthetic zone
        # [0, 0] for pruning purposes.
        epoch_zone = zones.get("epochs", {"min": 0, "max": 0})
        if _ranges_disjoint(
            epoch_zone, spec.epoch_range[0], spec.epoch_range[1]
        ):
            return (
                f"epoch range {list(spec.epoch_range)} outside shard epochs "
                f"[{epoch_zone['min']}, {epoch_zone['max']}]"
            )
    if spec.outage_ids:
        # Static shards read as all-(-1); the wanted-set check is the
        # conservative interval [min(wanted), max(wanted)].
        outage_zone = zones.get("outage_ids", {"min": -1, "max": -1})
        if _ranges_disjoint(
            outage_zone, min(spec.outage_ids), max(spec.outage_ids)
        ):
            return (
                f"outage ids {list(spec.outage_ids)} outside shard outages "
                f"[{outage_zone['min']}, {outage_zone['max']}]"
            )
    if spec.rtt_range is not None:
        value_zone = zones.get(VALUE_COLUMNS[spec.kind])
        if value_zone is not None:
            if value_zone.get("rows", 0) > 0 and value_zone.get("min") is None:
                # All-NaN value column: a trace shard with no responsive
                # hop has no end-to-end RTTs at all.
                return "no finite values in shard"
            if _ranges_disjoint(
                value_zone, spec.rtt_range[0], spec.rtt_range[1]
            ):
                return (
                    f"rtt range {list(spec.rtt_range)} outside shard values "
                    f"[{value_zone['min']}, {value_zone['max']}]"
                )
    return None


def _shard_rows(header: Dict[str, Any]) -> int:
    for descriptor in header.get("columns", []):
        if descriptor.get("name") == "probe_codes":
            shape = descriptor.get("shape", [0])
            return int(shape[0]) if shape else 0
    return 0


def build_plan(store: "DatasetStore", spec: QuerySpec) -> ScanPlan:
    """Plan a query against a store: one verdict per committed shard.

    Shards appear in canonical journal order.
    """
    spec.validate()
    shards: List[ShardPlan] = []
    for entry in store.shard_entries(kind=spec.kind):
        header, _ = read_header(entry.path)
        reason = _prune_reason(spec, header, header_zones(header))
        shards.append(
            ShardPlan(
                unit=entry.unit,
                name=entry.name,
                kind=entry.kind,
                path=str(entry.path),
                rows=_shard_rows(header),
                action=PRUNE if reason else SCAN,
                reason=reason,
            )
        )
    return ScanPlan(kind=spec.kind, shards=tuple(shards))
