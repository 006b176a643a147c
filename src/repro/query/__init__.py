"""repro.query: a columnar query engine over the shard warehouse.

Questions about a stored campaign are filtered aggregations -- "median
TCP RTT per country on the Speedchecker platform", "per-day medians".
This package evaluates them directly on the memmapped shard columns,
without one record object per measurement, for ``python -m
repro.query``, the service's ``POST /v1/query`` and the
dynamic-topology experiments:

- :mod:`repro.query.spec` -- :class:`QuerySpec`, the canonical,
  digestable description of a query (filters, group keys, aggregates).
- :mod:`repro.query.plan` -- the scan planner: prunes shards using the
  per-column zone maps and interned probe/region tables embedded in
  shard headers, without touching column bytes.
- :mod:`repro.query.scan` -- vectorized shard scans (row masks, no
  record objects), shard-parallel via the :mod:`repro.exec` fork pool,
  merged in canonical shard order so parallel equals serial.
- :mod:`repro.analysis.sketch` -- the mergeable aggregation sketches
  the scans fold into.
- :mod:`repro.query.oracle` -- an exact record-at-a-time reference
  implementation; tests assert engine == oracle.
- :mod:`repro.query.cache` -- a query-result cache keyed by
  (manifest digest, journal digest, query digest).
- :mod:`repro.query.builder` -- :func:`execute`, which plans, scans
  and caches one spec (``execute(store, QuerySpec(...))``).

``python -m repro.query`` exposes the same engine on the command line
with JSON output.
"""

from repro.query.builder import QueryResult, execute
from repro.query.plan import ScanPlan, ShardPlan, build_plan
from repro.query.spec import (
    GROUP_KEYS,
    PING_KIND,
    SCALAR_AGGREGATES,
    TRACE_KIND,
    QueryError,
    QuerySpec,
)

__all__ = [
    "GROUP_KEYS",
    "PING_KIND",
    "SCALAR_AGGREGATES",
    "TRACE_KIND",
    "QueryError",
    "QueryResult",
    "QuerySpec",
    "ScanPlan",
    "ShardPlan",
    "build_plan",
    "execute",
]
