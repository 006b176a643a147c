"""The seeded query sequence of the ``service`` workload.

A fixed share of positions (:data:`SCAN_SHARE`) carry a spec never seen
before in the sequence -- on a fresh service these are scans; every
other position repeats a spec drawn uniformly from the distinct specs
issued at earlier positions -- on a warm cache these are hits.  The
first position is always new, since a repeat needs an earlier spec.

First-time specs are drawn without replacement, each equally likely, from
:func:`catalogue`: the aggregate specs the repository itself issues (its
experiments, the examples in its query and service documentation and its
query benchmarks), each with the day and platform filters a tenant
scopes a query with -- the whole campaign or one of its days, all
platforms or one of them.  Nothing weights one spec over another, and
nothing weights the repeats either; ``NOTES.md`` compares the resulting
scan and hit latencies with the workload's sizing.

Both load connections take their next request from this one sequence,
as independent tenants would, so a repeat may reach the service while
the first request for its spec is still scanning on the other
connection.  Such requests are sent as they come: never merged, never
retried.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

#: Share of positions that carry a first-time spec.
SCAN_SHARE = 0.10

_RTT_STATS = ["count", "samples", "sum", "mean"]


def _sources() -> List[Dict[str, Any]]:
    """The repository's aggregate specs, without their day and platform filters.

    The per-probe specs of ``repro.analysis.nearest`` and the collected
    sample arrays of ``repro.analysis.temporal`` are left out: they are
    analysis inputs run in-process, and streamed over HTTP they return
    thousands of rows per request (see ``NOTES.md``).
    """
    return [
        # repro.experiments.stats_exp: samples per country.
        {"group_by": ["country"], "aggregates": ["samples"]},
        # repro.experiments.netfault_exp: failover and path diversity.
        {"group_by": ["provider", "outage"], "aggregates": _RTT_STATS},
        {"group_by": ["region", "outage"], "aggregates": _RTT_STATS},
        {"group_by": ["day", "epoch"], "aggregates": ["count"]},
        {"kind": "traces", "group_by": ["provider", "epoch"], "aggregates": ["count"]},
        {"group_by": ["provider"], "aggregates": ["count"]},
        # docs/QUERY.md: the builder and CLI example.
        {"protocol": "tcp", "group_by": ["country"], "aggregates": _RTT_STATS,
         "quantiles": [50.0, 90.0]},
        # docs/SERVICE.md: the two request examples (the first is also
        # the spec of benchmarks/bench_service.py).
        {"group_by": ["provider"], "aggregates": ["count", "mean"]},
        {"kind": "traces"},
        # benchmarks/bench_query.py: the pushdown and the cache specs.
        {"group_by": ["country"], "aggregates": _RTT_STATS},
        {"group_by": ["country", "provider"], "quantiles": [50.0, 90.0]},
    ]


def catalogue(days: int) -> List[Dict[str, Any]]:
    """Every source spec for all platforms or one, over all ``days`` or one."""
    specs = []
    for source in _sources():
        for platform in (None, "speedchecker", "atlas"):
            for day in (None, *range(days)):
                spec = {"kind": "pings", **source}
                if platform is not None:
                    spec["platform"] = platform
                if day is not None:
                    spec["day_range"] = [day, day]
                specs.append(spec)
    return specs


@dataclass(frozen=True)
class Query:
    """One position of the sequence."""

    index: int
    spec: Dict[str, Any]
    first_time: bool

    @property
    def key(self) -> str:
        return spec_key(self.spec)


def spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def query_sequence(seed: int, total: int, days: int) -> List[Query]:
    """The ``total``-position sequence for ``seed``; same seed, same sequence."""
    if total < 1:
        raise ValueError(f"a query sequence needs at least one position, got {total}")
    specs = catalogue(days)
    new_count = max(1, round(SCAN_SHARE * total))
    if new_count > len(specs):
        raise ValueError(f"{new_count} first-time specs wanted, the catalogue has {len(specs)}")
    rng = np.random.default_rng([seed, 0x51E5])
    later = rng.choice(np.arange(1, total), size=new_count - 1, replace=False) if total > 1 else []
    new_positions = {0, *(int(p) for p in later)}
    order = rng.permutation(len(specs))
    issued: List[Dict[str, Any]] = []
    sequence: List[Query] = []
    for index in range(total):
        if index in new_positions:
            issued.append(specs[int(order[len(issued)])])
            sequence.append(Query(index, issued[-1], True))
        else:
            sequence.append(Query(index, issued[int(rng.integers(len(issued)))], False))
    return sequence
