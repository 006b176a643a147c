"""The measurement campaign scheduler (paper section 3.3).

Reproduces the paper's operational setup:

- countries with enough connected probes enter a rotating cycle that
  sweeps the world once per ``cycle_days``;
- probe selection per country keys off the day's first connected-VP
  snapshot and is delegated to the platform (probes cannot be pinned);
- a daily request quota and a self-imposed rate limit bound the volume,
  truncating the day's request rows as they are assembled;
- each day's requests are assembled as columns
  (:class:`~repro.measure.requests.RequestRows`), issued through the
  vectorized batch engine (:meth:`MeasurementEngine.ping_batch`) as one
  request block, and land in the dataset as columnar ping blocks;
- probes target the cloud regions of their own continent, plus the
  neighbouring well-provisioned continents for Africa (EU, NA) and South
  America (NA);
- each request issues a TCP ping (four samples); a share of requests
  also issues an ICMP traceroute.

The Atlas fleet is measured with the same engine but without quota,
mirroring the year-long continuous collection of Corneo et al.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.core.config import config_digest
from repro.core.gcpause import gc_paused
from repro.exec.runner import execute_plan_parallel
from repro.exec.staging import discard_staging
from repro.faults.config import FaultConfig, RetryPolicy, fault_digest
from repro.faults.injectors import FaultyAtlas, FaultyEngine, FaultySpeedchecker
from repro.faults.plan import AttemptFaults, FaultPlan
from repro.geo.continents import INTERCONTINENTAL_TARGETS, Continent
from repro.measure.engine import BatchEngine, MeasurementEngine
from repro.measure.path import PathPlanner
from repro.measure.pathpolicy import FailoverPathPolicy, PathSelectionPolicy
from repro.measure.requests import RequestRows
from repro.measure.resilience import CommitHook, UnitResult, execute_plan
from repro.measure.results import MeasurementDataset, Protocol
from repro.netfaults.config import NetworkFaultConfig, netfault_digest
from repro.netfaults.engine import NetfaultEngine, find_netfault_engine
from repro.netfaults.plan import NetworkFaultPlan
from repro.platforms.probe import Probe, city_key_for
from repro.platforms.protocols import AtlasLike, SpeedcheckerLike
from repro.platforms.speedchecker import QuotaExhausted
from repro.store.warehouse import DatasetStore, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World

#: Random extra in-continent regions measured per probe visit, on top of
#: the per-provider nearest regions.
_EXTRA_REGIONS_PER_VISIT = 5
#: Cap on probes measured per (country, day) visit before scaling.
_PROBES_PER_VISIT_CAP = 2000
#: Share of a country's currently-connected probes measured per visit.
#: Selection is proportional to the connected pool so the dataset
#: composition mirrors the fleet's deployment skew (e.g. ~80% of South
#: American Speedchecker samples coming from Brazil, section 4.2).
_VISIT_SHARE = 0.25


#: Foreign (inter-continental) regions sampled per visit for probes in
#: Africa and South America.  Keeping this small preserves the paper's
#: ~70/30 intra/inter dataset split (section 3.3) while still covering
#: every foreign provider over the course of the campaign.
_FOREIGN_REGIONS_PER_VISIT = 2


def target_regions(
    world: "World", probe: Probe, rng: np.random.Generator
) -> List[CloudRegion]:
    """Regions a probe measures on one visit.

    Always includes the geographically-nearest region of every provider
    present in the probe's continent (so nearest-DC analyses are covered)
    and a few random in-continent regions.  Probes in Africa and South
    America additionally sample a handful of nearest-per-provider regions
    in the neighbouring better-provisioned continents (section 4.3),
    keeping the intra/inter split near the paper's ~70/30.

    Nearest-per-provider lookups are served by the world's
    :class:`~repro.measure.targets.RegionTargeter`, which caches one
    vectorized distance scan per (city cell, continent).
    """
    targeter = world.targeter
    cell = city_key_for(probe)
    chosen: Dict[Tuple[str, str], CloudRegion] = {}
    for region in targeter.nearest_per_provider(cell, probe.continent):
        chosen[(region.provider_code, region.region_id)] = region

    foreign_candidates: List[CloudRegion] = []
    for continent in INTERCONTINENTAL_TARGETS.get(probe.continent, ()):
        foreign_candidates.extend(targeter.nearest_per_provider(cell, continent))
    if foreign_candidates:
        take = min(_FOREIGN_REGIONS_PER_VISIT, len(foreign_candidates))
        picks = rng.choice(len(foreign_candidates), size=take, replace=False)
        for pick in picks:
            region = foreign_candidates[int(pick)]
            chosen[(region.provider_code, region.region_id)] = region

    home_regions = targeter.regions_in_continent(probe.continent)
    if home_regions:
        extra = min(_EXTRA_REGIONS_PER_VISIT, len(home_regions))
        picks = rng.choice(len(home_regions), size=extra, replace=False)
        for pick in picks:
            region = home_regions[int(pick)]
            chosen[(region.provider_code, region.region_id)] = region
    return list(chosen.values())


def run_campaign(
    world: "World",
    days: Optional[int] = None,
    platforms: Sequence[str] = ("speedchecker", "atlas"),
) -> MeasurementDataset:
    """Run the measurement campaign and return the collected dataset."""
    config = world.config
    total_days = days if days is not None else config.campaign.days
    if total_days < 1:
        raise ValueError(f"campaign needs at least one day, got {total_days}")
    dataset = MeasurementDataset()
    with gc_paused():
        if "speedchecker" in platforms:
            _run_speedchecker(world, total_days, dataset)
        if "atlas" in platforms:
            _run_atlas(world, total_days, dataset)
    return dataset


def _run_speedchecker(
    world: "World", total_days: int, dataset: MeasurementDataset
) -> None:
    config = world.config
    campaign = config.campaign
    platform = world.speedchecker
    engine = world.engine
    rng = world.rngs.stream("campaign.speedchecker")

    min_probes = config.scaled(
        config.platforms.min_probes_per_country, minimum=2
    )
    cycle = platform.countries_with_at_least(min_probes)
    if not cycle:
        cycle = platform.countries()
    per_day = max(1, math.ceil(len(cycle) / campaign.cycle_days))
    visit_cap = config.scaled(_PROBES_PER_VISIT_CAP, minimum=3)
    rate_cap = int(campaign.requests_per_minute * 60 * 24)

    cycle_order = list(cycle)
    for day in range(total_days):
        platform.refresh_quota()
        # Probe selection keys off the midnight snapshot only; the later
        # 4-hourly snapshots never influenced scheduling, so computing
        # them up front discarded 5/6 of the availability draws.
        selection_snapshot = platform.snapshot(day, hour=0)
        if day % campaign.cycle_days == 0:
            # Re-shuffle each sweep so quota/rate-limit truncation does
            # not systematically starve the same countries.
            rng.shuffle(cycle_order)
        cycle_position = (day % campaign.cycle_days) * per_day
        todays = cycle_order[cycle_position : cycle_position + per_day]

        # Assemble the whole day's request rows up front, truncating
        # against the rate cap and the remaining daily quota as they
        # grow -- once the budget is reached the rest of the day's
        # country and probe loops are skipped entirely.
        budget = min(rate_cap, platform.remaining_quota)
        rows = RequestRows()
        trace_rows: List[np.ndarray] = [np.empty(0, np.int64)]
        for iso in todays:
            if len(rows) >= budget:
                break
            connected = platform.connected_in_country(iso, selection_snapshot)
            visit_count = min(
                visit_cap, max(2, int(len(connected) * _VISIT_SHARE))
            )
            probes = platform.select_probes(
                iso, selection_snapshot, visit_count, pool=connected
            )
            for probe in probes:
                if len(rows) >= budget:
                    break
                regions = target_regions(world, probe, rng)[: budget - len(rows)]
                # The traceroute coin flips happen at scheduling time, one
                # per ping, right after the visit's targets are drawn.
                flips = rng.random(len(regions))
                trace_rows.append(
                    len(rows) + np.flatnonzero(flips < campaign.traceroute_share)
                )
                rows.add(probe, regions, day)
        if not len(rows):
            continue
        platform.charge(len(rows))
        dataset.add_ping_block(
            engine.ping_batch(
                rows.pings((Protocol.TCP,), campaign.pings_per_request)
            )
        )
        dataset.add_trace_block(
            engine.traceroute_batch(
                rows.traces(Protocol.ICMP).take(np.concatenate(trace_rows))
            )
        )


def _run_atlas(
    world: "World", total_days: int, dataset: MeasurementDataset
) -> None:
    config = world.config
    campaign = config.campaign
    platform = world.atlas
    engine = world.engine
    rng = world.rngs.stream("campaign.atlas")
    #: Fraction of connected Atlas probes scheduled per day.
    daily_share = 0.35

    for day in range(total_days):
        connected = platform.connected_probes()
        if not connected:
            continue
        count = max(1, int(len(connected) * daily_share))
        picks = rng.choice(len(connected), size=count, replace=False)
        # Corneo et al. collected ICMP pings and TCP traceroutes; we
        # record TCP pings as well so the cross-platform latency
        # comparison uses TCP on both sides (section 3.3).  Both
        # protocols for every (probe, region) pair go into one batch.
        rows = RequestRows()
        for pick in picks:
            probe = connected[int(pick)]
            rows.add(probe, target_regions(world, probe, rng), day)
        if not len(rows):
            continue
        dataset.add_ping_block(
            engine.ping_batch(
                rows.pings((Protocol.TCP, Protocol.ICMP), campaign.pings_per_request)
            )
        )
        traceroute_draws = rng.random(len(rows))
        dataset.add_trace_block(
            engine.traceroute_batch(
                rows.traces(Protocol.TCP).take(
                    traceroute_draws < campaign.traceroute_share
                )
            )
        )


# -- checkpointed campaigns ----------------------------------------------
#
# The classic run_campaign() draws its scheduling, availability and
# measurement noise from long-lived streams, so day k's randomness
# depends on every draw of days 0..k-1 and the run cannot be split.
# The checkpointed runner makes each (platform, day) *unit* a pure
# function of (seed, config, unit id): those draws come from per-unit
# ``RngStreams.fork`` streams, and path planning is pair-deterministic
# (as for every planner).  Completed units are flushed to a
# :class:`~repro.store.warehouse.DatasetStore` and journaled, so an
# interrupted run resumed later produces a byte-identical store.

#: Platforms the checkpointed runner knows how to schedule.
CHECKPOINT_PLATFORMS = ("speedchecker", "atlas")

#: Fraction of connected Atlas probes scheduled per day (matches the
#: classic runner's schedule density).
_ATLAS_DAILY_SHARE = 0.35

PathLike = Union[str, Path]


def plan_units(days: int, platforms: Sequence[str]) -> List[str]:
    """The ordered unit ids of a checkpointed campaign.

    One unit per (platform, day), platform-major -- the same order the
    classic runner visits work in.
    """
    if days < 1:
        raise ValueError(f"campaign needs at least one day, got {days}")
    units: List[str] = []
    for platform in platforms:
        if platform not in CHECKPOINT_PLATFORMS:
            raise ValueError(f"unknown campaign platform {platform!r}")
        for day in range(days):
            units.append(f"{platform}:{day:03d}")
    return units


def _checkpoint_engine(
    world: "World", route_policy: Optional[PathSelectionPolicy] = None
) -> MeasurementEngine:
    """An engine with its own pair-deterministic planner.

    It plans the same paths as the world's planner, but keeps its own
    caches and path table: the measurement service runs concurrent jobs
    on one cached world in bridge threads, and a planner serves one
    thread (its table's appends reallocate the columns).  The engine's
    fallback stream is never used: every batch call below passes an
    explicit per-unit generator.

    ``route_policy`` threads a path-selection policy into the planner
    (the network-fault runner installs a
    :class:`~repro.measure.pathpolicy.FailoverPathPolicy` here).
    """
    planner = PathPlanner(
        topology=world.topology,
        wans=world.wans,
        region_addresses=world.region_addresses,
        config=world.config,
        countries=world.countries,
        pair_entropy=world.rngs.seed,
        route_policy=route_policy,
    )
    return MeasurementEngine(
        planner=planner,
        config=world.config,
        rng=world.rngs.stream("checkpoint.engine"),
    )


def _prewarm_route_tables(world: "World") -> int:
    """Compute every routing table a campaign day can need, in-process.

    Called in the parent before forking parallel workers: the tables
    land in the topology's route cache (and the process-wide memo in
    :mod:`repro.net.routing`), so every forked child inherits them as
    shared copy-on-write pages instead of each recomputing the same
    valley-free sweeps.  Returns the number of (network, continent)
    tables now resident.
    """
    continents = {
        probe.continent
        for platform in (world.speedchecker, world.atlas)
        for probe in platform.probes
    }
    networks = {
        world.topology.network_code(region.provider_code)
        for region in world.catalog
    }
    count = 0
    for network in sorted(networks):
        for continent in sorted(continents, key=lambda c: c.value):
            world.topology.routes_for(network, continent)
            count += 1
    return count


def _speedchecker_unit(
    world: "World",
    engine: BatchEngine,
    day: int,
    platform: Optional[SpeedcheckerLike] = None,
) -> UnitResult:
    """Execute one Speedchecker day from per-unit RNG streams.

    ``engine`` and ``platform`` default to the world's own objects; the
    resilient runner substitutes fault-injecting wrappers.
    """
    config = world.config
    campaign = config.campaign
    if platform is None:
        platform = world.speedchecker
    rngs = world.rngs

    min_probes = config.scaled(
        config.platforms.min_probes_per_country, minimum=2
    )
    cycle = platform.countries_with_at_least(min_probes)
    if not cycle:
        cycle = platform.countries()
    per_day = max(1, math.ceil(len(cycle) / campaign.cycle_days))
    visit_cap = config.scaled(_PROBES_PER_VISIT_CAP, minimum=3)
    rate_cap = int(campaign.requests_per_minute * 60 * 24)

    # Each sweep's country order is a fresh shuffle of the sorted cycle
    # keyed by the sweep index -- day k's slice of the order never
    # depends on earlier sweeps having run.
    sweep = day // campaign.cycle_days
    cycle_order = list(cycle)
    rngs.fork("checkpoint.speedchecker.cycle", sweep).shuffle(cycle_order)
    cycle_position = (day % campaign.cycle_days) * per_day
    todays = cycle_order[cycle_position : cycle_position + per_day]

    platform.refresh_quota()
    snapshot = platform.snapshot(
        day, hour=0, rng=rngs.fork("checkpoint.speedchecker.snapshot", day)
    )
    sched_rng = rngs.fork("checkpoint.speedchecker.schedule", day)
    budget = min(rate_cap, platform.remaining_quota)
    rows = RequestRows()
    # The rows of the pings a traceroute rides with, so quota
    # degradation below can keep exactly the traceroutes whose ping was
    # actually issued.
    trace_rows: List[np.ndarray] = [np.empty(0, np.int64)]
    for iso in todays:
        if len(rows) >= budget:
            break
        connected = platform.connected_in_country(iso, snapshot)
        visit_count = min(visit_cap, max(2, int(len(connected) * _VISIT_SHARE)))
        probes = platform.select_probes(
            iso, snapshot, visit_count, pool=connected, rng=sched_rng
        )
        for probe in probes:
            if len(rows) >= budget:
                break
            regions = target_regions(world, probe, sched_rng)[: budget - len(rows)]
            flips = sched_rng.random(len(regions))
            trace_rows.append(
                len(rows) + np.flatnonzero(flips < campaign.traceroute_share)
            )
            rows.add(probe, regions, day)
    traced = np.concatenate(trace_rows)
    scheduled = len(rows)
    issued = scheduled
    if scheduled:
        try:
            platform.charge(scheduled)
        except QuotaExhausted:
            # The budget was drained between scheduling and charging (a
            # concurrent consumer of the shared commercial quota): issue
            # the prefix the remaining budget still covers instead of
            # losing the unit.  The shortfall surfaces as a partial unit
            # in the journal -- a half-populated unit must never go
            # uncounted.
            issued = platform.charge_up_to(scheduled)
    issued_pings = rows.pings((Protocol.TCP,), campaign.pings_per_request)
    if issued < scheduled:
        issued_pings = issued_pings.take(np.arange(issued))
    issued_traces = rows.traces(Protocol.ICMP).take(traced[traced < issued])
    netfault = find_netfault_engine(engine)
    if netfault is not None:
        # Discard effects journaled by a failed earlier attempt.
        netfault.take_events()
    engine_rng = rngs.fork("checkpoint.speedchecker.engine", day)
    ping_block = engine.ping_batch(issued_pings, rng=engine_rng)
    trace_block = engine.traceroute_batch(issued_traces, rng=engine_rng)
    netfault_events: List[str] = []
    if netfault is not None:
        netfault_events = netfault.take_events()
    return UnitResult(
        ping_block=ping_block,
        trace_block=trace_block,
        scheduled_pings=scheduled,
        scheduled_traceroutes=len(traced),
        netfault_events=netfault_events,
    )


def _atlas_unit(
    world: "World",
    engine: BatchEngine,
    day: int,
    platform: Optional[AtlasLike] = None,
) -> UnitResult:
    """Execute one Atlas day from per-unit RNG streams."""
    campaign = world.config.campaign
    if platform is None:
        platform = world.atlas
    rngs = world.rngs

    connected = platform.connected_probes(
        rng=rngs.fork("checkpoint.atlas.connected", day)
    )
    sched_rng = rngs.fork("checkpoint.atlas.schedule", day)
    rows = RequestRows()
    if connected:
        count = max(1, int(len(connected) * _ATLAS_DAILY_SHARE))
        picks = sched_rng.choice(len(connected), size=count, replace=False)
        for pick in picks:
            probe = connected[int(pick)]
            rows.add(probe, target_regions(world, probe, sched_rng), day)
    pings = rows.pings((Protocol.TCP, Protocol.ICMP), campaign.pings_per_request)
    netfault = find_netfault_engine(engine)
    if netfault is not None:
        # Discard effects journaled by a failed earlier attempt.
        netfault.take_events()
    engine_rng = rngs.fork("checkpoint.atlas.engine", day)
    ping_block = engine.ping_batch(pings, rng=engine_rng)
    traceroute_draws = sched_rng.random(len(rows))
    traces = rows.traces(Protocol.TCP).take(
        traceroute_draws < campaign.traceroute_share
    )
    trace_block = engine.traceroute_batch(traces, rng=engine_rng)
    netfault_events: List[str] = []
    if netfault is not None:
        netfault_events = netfault.take_events()
    return UnitResult(
        ping_block=ping_block,
        trace_block=trace_block,
        scheduled_pings=len(pings),
        scheduled_traceroutes=len(traces),
        netfault_events=netfault_events,
    )


class CheckpointExecutor:
    """Executes one checkpointed campaign unit (the ``execute`` callback).

    A top-level class rather than a closure so parallel workers can run
    it in forked child processes (lint rule ``EXE001``): the instance
    holds only the world and the pair-deterministic engine, and every
    call is a pure function of (seed, config, unit id) -- no state
    crosses units, so any process may execute any unit.
    """

    def __init__(self, world: "World", engine: BatchEngine) -> None:
        self._world = world
        self._engine = engine

    def __call__(
        self, unit: str, day: int, ctx: Optional[AttemptFaults]
    ) -> UnitResult:
        world = self._world
        platform_name = unit.split(":")[0]
        unit_engine: BatchEngine = self._engine
        if platform_name == "speedchecker":
            speedchecker: SpeedcheckerLike = world.speedchecker
            if ctx is not None:
                speedchecker = FaultySpeedchecker(speedchecker, ctx)
                unit_engine = FaultyEngine(self._engine, ctx)
            return _speedchecker_unit(
                world, unit_engine, day, platform=speedchecker
            )
        atlas: AtlasLike = world.atlas
        if ctx is not None:
            atlas = FaultyAtlas(atlas, ctx)
            unit_engine = FaultyEngine(self._engine, ctx)
        return _atlas_unit(world, unit_engine, day, platform=atlas)


def _speedchecker_unit_budget(world: "World") -> int:
    """The most requests one Speedchecker unit may issue.

    The same bound the unit scheduler applies up front -- the day's
    rate cap or the daily quota, whichever is smaller.  The parallel
    commit phase re-checks every committed unit against it.
    """
    rate_cap = int(world.config.campaign.requests_per_minute * 60 * 24)
    return min(rate_cap, world.speedchecker.daily_quota)


def run_campaign_checkpointed(
    world: "World",
    run_dir: PathLike,
    days: Optional[int] = None,
    platforms: Sequence[str] = CHECKPOINT_PLATFORMS,
    max_units: Optional[int] = None,
    faults: Optional[FaultConfig] = None,
    netfaults: Optional[NetworkFaultConfig] = None,
    retry: Optional[RetryPolicy] = None,
    workers: int = 1,
    abort_after_commits: Optional[int] = None,
    on_commit: Optional[CommitHook] = None,
) -> DatasetStore:
    """Run a campaign with per-unit checkpointing into a dataset store.

    Each completed (platform, day) unit is flushed to ``run_dir`` as
    binary shards and journaled before the next unit starts.  Calling
    this again on a partially-filled ``run_dir`` (or via
    :func:`resume_campaign`) skips journaled units and continues; the
    final store is byte-identical to an uninterrupted run.

    ``max_units`` stops after that many *newly executed* units -- the
    hook the crash-resume tests use to interrupt a run at a precise
    point without killing the process.

    ``faults`` enables deterministic fault injection (see
    :mod:`repro.faults`); ``retry`` tunes the resilient executor's
    budgets.  An inactive (all-zero) fault config is byte-identical to
    passing ``None``: units run on the fault-free fast path and journal
    the exact entries this function has always written.

    ``netfaults`` enables deterministic *network* events (see
    :mod:`repro.netfaults` and ``docs/DYNAMIC_TOPOLOGY.md``): link
    failures, peering flaps, and regional outages on a per-day
    virtual-time timeline, with routes re-converging per epoch and
    per-row epoch/outage provenance columns on every shard.  As with
    ``faults``, an inactive (all-zero) config is byte-identical to
    passing ``None``.

    ``workers`` > 1 executes units on that many forked worker processes
    via :mod:`repro.exec`: workers stage into private stores and the
    parent commits in canonical order, so the resulting store is
    byte-identical to ``workers=1`` apart from the execution-provenance
    keys stamped into the journal's ``begin`` entry (see
    ``docs/PARALLELISM.md``).  Orphaned staging directories left by a
    previously killed parallel run are garbage-collected before any
    unit executes.  ``abort_after_commits`` is the parallel runner's
    kill-mid-commit testing hook (see
    :func:`repro.exec.execute_plan_parallel`).

    ``on_commit`` observes every journaled entry (unit, skip) right
    after its durable append, in canonical commit order at any worker
    count -- the measurement service's streaming hook.  The hook is an
    observer only: it cannot alter what is written, so the store stays
    byte-identical with or without it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config = world.config
    total_days = days if days is not None else config.campaign.days
    units = plan_units(total_days, list(platforms))
    digest = config_digest(config)
    fault_config = faults if faults is not None and faults.active else None
    net_config = (
        netfaults if netfaults is not None and netfaults.active else None
    )

    store = DatasetStore.open_or_create(
        Path(run_dir),
        seed=config.seed,
        config_hash=digest,
        scale=config.scale,
        source="campaign",
    )
    begin = store.journal.begin_entry()
    plan: Dict[str, object] = {
        "seed": config.seed,
        "config_hash": digest,
        "scale": config.scale,
        "days": total_days,
        "platforms": list(platforms),
        "units": units,
    }
    if fault_config is not None:
        plan["fault_digest"] = fault_digest(fault_config)
    if net_config is not None:
        plan["netfault_digest"] = netfault_digest(net_config)
    if begin is None:
        store.begin_run(plan)
    else:
        for key in ("seed", "config_hash", "days", "platforms"):
            if begin.get(key) != plan[key]:
                raise StoreError(
                    f"{store.run_dir}: cannot resume -- journal records "
                    f"{key}={begin.get(key)!r}, current run has {plan[key]!r}"
                )
        for digest_key in ("fault_digest", "netfault_digest"):
            if begin.get(digest_key) != plan.get(digest_key):
                raise StoreError(
                    f"{store.run_dir}: cannot resume -- journal records "
                    f"{digest_key}={begin.get(digest_key)!r}, current run "
                    f"has {plan.get(digest_key)!r}"
                )

    # Any staging directory is an orphan of a killed parallel run: its
    # units never made the journal, so they re-run deterministically.
    discard_staging(store.run_dir)

    # Skipped units are closed too: resume must not retry a unit the
    # resilient executor already gave up on (repair re-opens them).
    completed = set(store.completed_units()) | set(store.skipped_units())
    engine: BatchEngine
    if net_config is not None:
        route_policy = FailoverPathPolicy()
        net_plan = NetworkFaultPlan(
            config.seed, net_config, world.topology, world.catalog
        )
        engine = NetfaultEngine(
            _checkpoint_engine(world, route_policy=route_policy),
            net_plan,
            route_policy,
        )
    else:
        engine = _checkpoint_engine(world)
    fault_plan = (
        FaultPlan(config.seed, fault_config) if fault_config is not None else None
    )
    executor = CheckpointExecutor(world, engine)

    with gc_paused():
        if workers == 1:
            execute_plan(
                store,
                units,
                completed,
                executor,
                plan=fault_plan,
                retry=retry,
                max_units=max_units,
                on_commit=on_commit,
            )
        else:
            # Fork-based workers inherit the parent's address space:
            # computing every route table the day mix can touch *before*
            # forking turns N identical valley-free sweeps into one,
            # shared copy-on-write.
            _prewarm_route_tables(world)
            execute_plan_parallel(
                store,
                units,
                completed,
                executor,
                workers=workers,
                plan=fault_plan,
                retry=retry,
                max_units=max_units,
                unit_budgets={
                    "speedchecker": _speedchecker_unit_budget(world)
                },
                abort_after_commits=abort_after_commits,
                on_commit=on_commit,
            )
    return store


def resume_campaign(
    world: "World",
    run_dir: PathLike,
    max_units: Optional[int] = None,
    faults: Optional[FaultConfig] = None,
    netfaults: Optional[NetworkFaultConfig] = None,
    retry: Optional[RetryPolicy] = None,
    verify: bool = True,
    repair: bool = False,
    workers: int = 1,
    on_commit: Optional[CommitHook] = None,
) -> DatasetStore:
    """Resume an interrupted checkpointed campaign from its journal.

    The day count and platform list come from the journal's ``begin``
    entry; the world must be built from the same seed and configuration
    (enforced via the journaled config hash).

    With ``verify=True`` (the default) every journaled shard is
    re-checksummed first.  Corruption makes the resume *refuse*, naming
    every bad unit -- unless ``repair=True``, which quarantines the
    corrupt units (journal entries dropped, shards unlinked) so they
    deterministically re-run along with the pending ones.  A journal
    corrupted mid-file (not a torn tail) always refuses with
    :class:`~repro.store.journal.JournalError`.

    A run directory left behind by a *killed parallel run* is handled
    transparently: the journal already holds only the canonical prefix
    of committed units, orphaned worker staging directories are
    detected and garbage-collected before execution, and the pending
    units re-run (on ``workers`` processes) to a store byte-identical
    to an uninterrupted run.  ``workers`` also parallelizes the
    ``verify`` pass itself.
    """
    store = DatasetStore.open(Path(run_dir))
    begin = store.journal.begin_entry()
    if begin is None:
        raise StoreError(f"{store.run_dir}: no begun campaign to resume")
    discard_staging(store.run_dir)
    if verify:
        report = store.verify_report(workers=workers)
        bad_units = sorted(
            unit_report["unit"]
            for unit_report in report["units"]
            if unit_report["status"] != "ok"
        )
        if bad_units:
            if not repair:
                raise StoreError(
                    f"{store.run_dir}: refusing to resume -- corrupt "
                    f"units: {', '.join(bad_units)} (pass repair=True to "
                    "quarantine and re-run them)"
                )
            store.quarantine_units(bad_units)
    return run_campaign_checkpointed(
        world,
        run_dir,
        days=int(begin["days"]),
        platforms=tuple(begin["platforms"]),
        max_units=max_units,
        faults=faults,
        netfaults=netfaults,
        retry=retry,
        workers=workers,
        on_commit=on_commit,
    )


def run_intercontinental_study(
    world: "World",
    countries: Sequence[str],
    target_continents: Sequence[Continent],
    rounds: int = 3,
    max_probes_per_country: int = 25,
) -> MeasurementDataset:
    """Focused measurements for the inter-continental analysis (Fig. 6).

    For every listed country, the available Speedchecker probes ping the
    nearest region of every provider in each target continent -- the
    paper's setup for probes in under-provisioned continents.  Probe
    picks and measurement noise come from generators forked for the
    listed countries, and every request goes through one
    :meth:`~MeasurementEngine.ping_batch` call, so the dataset is a pure
    function of (seed, arguments).
    """
    stream = f"intercontinental.{'.'.join(countries)}"
    rng = world.rngs.fork(f"{stream}.probes", 0)
    samples = world.config.campaign.pings_per_request
    catalog = world.catalog
    rows = RequestRows()
    for iso in countries:
        probes = world.speedchecker.probes_in_country(iso)
        if len(probes) > max_probes_per_country:
            picks = rng.choice(
                len(probes), size=max_probes_per_country, replace=False
            )
            probes = [probes[int(i)] for i in picks]
        for probe in probes:
            targets: Dict[Tuple[str, str], CloudRegion] = {}
            for continent in target_continents:
                by_provider: Dict[str, List[CloudRegion]] = {}
                for region in catalog.in_continent(continent):
                    by_provider.setdefault(region.provider_code, []).append(region)
                for regions in by_provider.values():
                    nearest = min(
                        regions,
                        key=lambda region: probe.location.distance_km(
                            region.location
                        ),
                    )
                    targets[(nearest.provider_code, nearest.region_id)] = nearest
            for round_index in range(rounds):
                rows.add(probe, list(targets.values()), round_index)
    dataset = MeasurementDataset()
    dataset.add_ping_block(
        world.engine.ping_batch(
            rows.pings((Protocol.TCP,), samples),
            rng=world.rngs.fork(f"{stream}.engine", 0),
        )
    )
    return dataset


def run_case_study(
    world: "World",
    source_country: str,
    dest_country: str,
    rounds: int = 3,
    max_probes: Optional[int] = None,
) -> MeasurementDataset:
    """Focused measurements from one country to another's datacenters.

    Used by the peering case studies (DE->UK, JP->IN, UA->UK, BH->IN of
    Figs. 12/13/17/18): every Speedchecker probe in ``source_country``
    pings and traceroutes every cloud region located in ``dest_country``,
    ``rounds`` times.  Probe picks and measurement noise come from
    generators forked for the country pair, and the study issues one
    :meth:`~MeasurementEngine.ping_batch` and one
    :meth:`~MeasurementEngine.traceroute_batch` call, so the dataset is
    a pure function of (seed, arguments).
    """
    stream = f"case.{source_country}.{dest_country}"
    probes = world.speedchecker.probes_in_country(source_country)
    if max_probes is not None and len(probes) > max_probes:
        picks = world.rngs.fork(f"{stream}.probes", 0).choice(
            len(probes), size=max_probes, replace=False
        )
        probes = [probes[int(i)] for i in picks]
    regions = [
        region for region in world.catalog.all() if region.country == dest_country
    ]
    if not regions:
        raise ValueError(f"no cloud regions in {dest_country!r}")
    samples = world.config.campaign.pings_per_request
    rows = RequestRows()
    for round_index in range(rounds):
        for probe in probes:
            rows.add(probe, regions, round_index)
    engine_rng = world.rngs.fork(f"{stream}.engine", 0)
    dataset = MeasurementDataset()
    dataset.add_ping_block(
        world.engine.ping_batch(rows.pings((Protocol.TCP,), samples), rng=engine_rng)
    )
    dataset.add_trace_block(
        world.engine.traceroute_batch(rows.traces(Protocol.ICMP), rng=engine_rng)
    )
    return dataset
