"""Dynamic-topology experiments: failover latency and path diversity.

Neither artifact exists in the paper -- the paper measured a static
week -- but both answer the question its dataset begs: *what happens to
cloud reachability when the network underneath the measurement fleet
misbehaves?*  Both query one short checkpointed campaign under a seeded
:class:`~repro.netfaults.config.NetworkFaultConfig` (run once per
:class:`~repro.experiments.common.StudyContext`, or per experiment
without one), reading it back exclusively through :mod:`repro.query`
epoch/outage filters.  The queries are built by :func:`failover_specs` and
:func:`pathdiv_specs`, which the test suite shares to check every one
against the record-at-a-time oracle.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis.report import format_table
from repro.experiments.common import ExperimentResult, StudyContext
from repro.measure.campaign import run_campaign_checkpointed
from repro.netfaults.config import NetworkFaultConfig
from repro.netfaults.events import SLOTS_PER_DAY
from repro.netfaults.plan import NetworkFaultPlan
from repro.query.builder import execute
from repro.query.spec import QuerySpec

#: The event mix both experiments inject: roughly 4-5 events per day
#: across all three families, long enough windows that several routing
#: epochs fall inside one unit's request block.
EXPERIMENT_NETFAULTS = NetworkFaultConfig(
    link_failure_rate=0.4,
    peering_flap_rate=0.9,
    regional_outage_rate=0.3,
    max_events_per_day=5,
    min_duration_slots=4,
    max_duration_slots=12,
)

#: Days of campaign both experiments run (kept short: the schedules are
#: dense enough that one or two days exercise every event family).
EXPERIMENT_DAYS = 2

#: Virtual hours per timeline slot.
HOURS_PER_SLOT = 24.0 / SLOTS_PER_DAY


def failover_specs() -> Tuple[QuerySpec, QuerySpec, QuerySpec]:
    """The queries :func:`run_failover` reads: RTT sums per (provider,
    outage) and per (region, outage), and rows per (day, epoch)."""
    rtt_sums = ("count", "samples", "sum", "mean")
    return (
        QuerySpec(group_by=("provider", "outage"), aggregates=rtt_sums),
        QuerySpec(group_by=("region", "outage"), aggregates=rtt_sums),
        QuerySpec(group_by=("day", "epoch"), aggregates=("count",)),
    )


def pathdiv_specs() -> Tuple[QuerySpec, QuerySpec]:
    """The queries :func:`run_pathdiv` reads: traces per (provider,
    epoch) and pings per provider."""
    return (
        QuerySpec(
            kind="traces", group_by=("provider", "epoch"), aggregates=("count",)
        ),
        QuerySpec(group_by=("provider",), aggregates=("count",)),
    )


def netfault_study(
    world,
) -> Tuple[NetworkFaultPlan, "tempfile.TemporaryDirectory", Any]:
    """Run the shared netfault campaign; returns (plan, tmpdir, store).

    The caller owns the returned temporary directory and must keep it
    alive until its queries are done.
    """
    plan = NetworkFaultPlan(
        world.config.seed,
        EXPERIMENT_NETFAULTS,
        world.topology,
        world.catalog,
    )
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-netfault-exp-")
    store = run_campaign_checkpointed(
        world,
        f"{tmpdir.name}/run",
        days=EXPERIMENT_DAYS,
        netfaults=EXPERIMENT_NETFAULTS,
    )
    return plan, tmpdir, store


@contextmanager
def _netfault_campaign(
    world, context: Optional[StudyContext]
) -> Iterator[Tuple[NetworkFaultPlan, Any]]:
    """(plan, store) of the netfault campaign an experiment queries.

    Experiments sharing a context share its campaign
    (:attr:`StudyContext.netfault_study`); without one, an experiment
    runs its own, whose directory is removed when the block exits.
    """
    if context is not None:
        yield context.netfault_study
        return
    plan, tmpdir, store = netfault_study(world)
    with tmpdir:
        yield plan, store


def _event_schedule(plan: NetworkFaultPlan) -> List[Dict[str, Any]]:
    """The realized events with their downed/recovery accounting."""
    events: List[Dict[str, Any]] = []
    for day in range(EXPERIMENT_DAYS):
        timeline = plan.timeline(day)
        for event in timeline.events:
            downed = sum(end - start for start, end in event.windows)
            recovery = max(end for _, end in event.windows)
            onset = min(start for start, _ in event.windows)
            events.append(
                {
                    "event_id": event.event_id,
                    "kind": event.kind,
                    "label": event.label(),
                    "day": day,
                    "downed_slots": downed,
                    # Reconvergence completes when the last window lifts
                    # and routes return to baseline.
                    "time_to_reconverge_h": (recovery - onset)
                    * HOURS_PER_SLOT,
                }
            )
    return events


def run_failover(
    world, dataset=None, context: Optional[StudyContext] = None
) -> ExperimentResult:
    """Failover latency: time-to-reconverge and RTT inflation.

    Injects the standard event mix, then compares per-provider mean
    RTTs of rows that rode a re-converged path (``outage >= 0``)
    against rows on baseline routes (``outage == -1``), all through
    epoch/outage-filtered queries.
    """
    del dataset  # queries a campaign under network faults instead
    with _netfault_campaign(world, context) as (plan, store):
        provider_rows, region_rows, epoch_rows = (
            execute(store, spec, workers=1, cache=False).rows
            for spec in failover_specs()
        )

    def inflation(rows: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
        folded: Dict[str, Dict[str, List[float]]] = {}
        for row in rows:
            name = row["group"][key]
            bucket = "rerouted" if row["group"]["outage"] >= 0 else "baseline"
            slot = folded.setdefault(
                name, {"baseline": [0.0, 0.0], "rerouted": [0.0, 0.0]}
            )
            if row["sum"] is not None:
                slot[bucket][0] += row["sum"]
                slot[bucket][1] += row["samples"]
        out: Dict[str, Any] = {}
        for name, slot in sorted(folded.items()):
            base_sum, base_n = slot["baseline"]
            re_sum, re_n = slot["rerouted"]
            base_mean = base_sum / base_n if base_n else None
            re_mean = re_sum / re_n if re_n else None
            out[name] = {
                "baseline_mean_ms": base_mean,
                "rerouted_mean_ms": re_mean,
                "rerouted_samples": int(re_n),
                "inflation": (
                    re_mean / base_mean - 1.0
                    if base_mean and re_mean is not None
                    else None
                ),
            }
        return out

    providers = inflation(provider_rows, "provider")
    regions = inflation(region_rows, "region")
    events = _event_schedule(plan)
    epochs_per_day: Dict[int, int] = {}
    for row in epoch_rows:
        day = row["group"]["day"]
        epochs_per_day[day] = max(
            epochs_per_day.get(day, 0), row["group"]["epoch"] + 1
        )
    table = []
    for name, stats in providers.items():
        table.append(
            [
                name,
                f"{stats['baseline_mean_ms']:.1f}"
                if stats["baseline_mean_ms"] is not None
                else "-",
                f"{stats['rerouted_mean_ms']:.1f}"
                if stats["rerouted_mean_ms"] is not None
                else "-",
                str(stats["rerouted_samples"]),
                f"{stats['inflation'] * 100.0:+.1f}%"
                if stats["inflation"] is not None
                else "-",
            ]
        )
    reconverge = [event["time_to_reconverge_h"] for event in events]
    summary = (
        f"{len(events)} events over {EXPERIMENT_DAYS} days, "
        f"mean time-to-reconverge "
        f"{sum(reconverge) / len(reconverge):.1f}h"
        if events
        else "no events fired"
    )
    body = (
        format_table(
            [
                "Provider",
                "Baseline [ms]",
                "Rerouted [ms]",
                "Samples",
                "Inflation",
            ],
            table,
        )
        + f"\n{summary}"
    )
    return ExperimentResult(
        experiment_id="failover",
        title="Failover latency under network faults",
        body=body,
        data={
            "netfaults": {
                "link_failure_rate": EXPERIMENT_NETFAULTS.link_failure_rate,
                "peering_flap_rate": EXPERIMENT_NETFAULTS.peering_flap_rate,
                "regional_outage_rate": (
                    EXPERIMENT_NETFAULTS.regional_outage_rate
                ),
            },
            "events": events,
            "epochs_per_day": epochs_per_day,
            "providers": providers,
            "regions": regions,
        },
    )


def run_pathdiv(
    world, dataset=None, context: Optional[StudyContext] = None
) -> ExperimentResult:
    """Path diversity under failure: distinct AS paths across epochs.

    For every (probe ISP, continent, provider) pair, counts the
    distinct AS-level paths selected across the run's routing epochs
    and how often the pair went unreachable; measurement-side coverage
    comes from epoch-grouped trace queries.
    """
    del dataset
    with _netfault_campaign(world, context) as (plan, store):
        trace_rows, dropped_free = (
            execute(store, spec, workers=1, cache=False).rows
            for spec in pathdiv_specs()
        )
    isps_by_continent: Dict[Any, set] = {}
    for platform in (world.speedchecker, world.atlas):
        for probe in platform.probes:
            isps_by_continent.setdefault(probe.continent, set()).add(
                probe.isp_asn
            )
    views = {frozenset(): plan.view(frozenset())}
    for day in range(EXPERIMENT_DAYS):
        timeline = plan.timeline(day)
        for epoch in range(len(timeline.active)):
            removed = timeline.removed_edges(epoch)
            views.setdefault(removed, plan.view(removed))
    providers: Dict[str, Dict[str, Any]] = {}
    for provider in world.providers:
        pairs = 0
        multipath = 0
        unreachable_pair_epochs = 0
        path_counts: List[int] = []
        for continent, isps in sorted(
            isps_by_continent.items(), key=lambda item: item[0].value
        ):
            tables = [
                view.routes_for(provider.code, continent)
                for view in views.values()
            ]
            for isp_asn in sorted(isps):
                paths = set()
                for table in tables:
                    path = table.as_path(isp_asn)
                    if path is None:
                        unreachable_pair_epochs += 1
                    else:
                        paths.add(tuple(path))
                if not paths:
                    continue
                pairs += 1
                path_counts.append(len(paths))
                if len(paths) > 1:
                    multipath += 1
        providers[provider.code] = {
            "pairs": pairs,
            "mean_distinct_paths": (
                sum(path_counts) / len(path_counts) if path_counts else None
            ),
            "multipath_share": multipath / pairs if pairs else None,
            "unreachable_pair_epochs": unreachable_pair_epochs,
        }
    trace_coverage: Dict[str, Dict[int, int]] = {}
    for row in trace_rows:
        trace_coverage.setdefault(row["group"]["provider"], {})[
            row["group"]["epoch"]
        ] = row["count"]
    table = []
    for code, stats in sorted(providers.items()):
        epochs_observed = len(trace_coverage.get(code, {}))
        table.append(
            [
                code,
                str(stats["pairs"]),
                f"{stats['mean_distinct_paths']:.2f}"
                if stats["mean_distinct_paths"] is not None
                else "-",
                f"{stats['multipath_share'] * 100.0:.1f}%"
                if stats["multipath_share"] is not None
                else "-",
                str(stats["unreachable_pair_epochs"]),
                str(epochs_observed),
            ]
        )
    body = format_table(
        [
            "Provider",
            "Pairs",
            "Paths/pair",
            ">1 path",
            "Unreachable",
            "Epochs seen",
        ],
        table,
    )
    return ExperimentResult(
        experiment_id="pathdiv",
        title="Path diversity under network failures",
        body=body,
        data={
            "epochs": len(views),
            "providers": providers,
            "trace_coverage": {
                code: {str(epoch): count for epoch, count in sorted(by.items())}
                for code, by in sorted(trace_coverage.items())
            },
            "ping_counts": {
                row["group"]["provider"]: row["count"] for row in dropped_free
            },
        },
    )
