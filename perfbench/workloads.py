"""The four benchmark workloads, one repetition at a time.

Each repetition runs in a fresh process (``repetition.py``): set-up,
then the timed phase, then the output checks, which are never timed.
Inputs derive from the seed only.  The program is driven through its
public entry points -- ``build_world``, ``run_campaign``,
``run_campaign_checkpointed``, ``run_experiment``, the service's HTTP
API -- so set-up and first-commit times include everything a user
pays for (the service job builds its own world, for instance).

Why each workload exists, and which layers it should move, is in
``NOTES.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from querymix import Query, query_sequence
from tracer import Tracer, dispatch_wait, totals

#: Worker processes / keep-alive connections: the machine's CPU count.
NPROC = len(os.sched_getaffinity(0))

#: One checkpointed unit per platform (speedchecker, atlas) per day.
UNITS_PER_DAY = 2

FULLSCALE_SCALE = 1.0
FULLSCALE_DAYS = 2

LONGRUN_SCALE = 0.02
LONGRUN_DAYS = 60
#: Nonzero API, measurement and storage rates: retries, partial units
#: and skips all occur.
LONGRUN_FAULTS = {
    "api_timeout_rate": 0.1,
    "api_error_rate": 0.05,
    "quota_race_rate": 0.05,
    "reply_loss_rate": 0.02,
    "probe_disconnect_rate": 0.05,
    "trace_truncation_rate": 0.05,
    "torn_write_rate": 0.03,
    "corrupt_write_rate": 0.02,
    "fsync_failure_rate": 0.02,
}
#: All three network event families: routing epochs change mid-day.
LONGRUN_NETFAULTS = {
    "link_failure_rate": 0.3,
    "peering_flap_rate": 0.3,
    "regional_outage_rate": 0.2,
}

SERVICE_SCALE = 0.2
SERVICE_DAYS = 2
#: 45 first-time specs and 405 repeats per repetition: the three
#: repetitions a run fits give enough samples beyond the scan p90 and the
#: hit p99 to report both.
SERVICE_QUERIES = 450
#: Specs also checked against the record-at-a-time oracle.
SERVICE_ORACLE_SPECS = 2

REPRODUCE_SCALE = 0.02
REPRODUCE_DAYS = 28

@dataclass
class Repetition:
    """What one repetition measured and checked."""

    setup_s: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Outputs that must repeat across the repetitions of one seed:
    #: stores, query answers, the classic dataset, experiment renders.
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation, and a failure when it is not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def peak_rss_mb() -> float:
    """ru_maxrss of this process or of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- campaign stores ------------------------------------------------------


def _journal_accounting(entries: List[Dict[str, Any]]) -> Dict[str, float]:
    """Resilience counts and measurements from a finished run journal."""
    units = [e for e in entries if e["type"] == "unit"]
    skips = [e for e in entries if e["type"] == "skip"]
    attempts = sum(int(e.get("attempts", 1)) for e in units) + sum(int(e["attempts"]) for e in skips)
    executed = len(units) + sum(1 for e in skips if int(e["attempts"]) > 0)
    return {
        "campaign.measurements": float(sum(int(e["pings"]) + int(e["traceroutes"]) for e in units)),
        "resilience.attempts": float(attempts),
        "resilience.retries": float(attempts - executed),
        "resilience.partial_units": float(sum(1 for e in units if e.get("status") == "partial")),
        "resilience.skipped_units": float(len(skips)),
        "resilience.useful_ratio": len(units) / attempts if attempts else 0.0,
        "resilience.backoff_ms": float(
            sum(float(e.get("backoff_ms", 0.0)) for e in units + skips)
        ),
    }


def _check_store(rep: Repetition, run_dir: Path, planned: int) -> Dict[str, float]:
    """Verify a finished store; fingerprint it; return its journal accounting."""
    from repro.exec.digest import store_digest
    from repro.store.warehouse import DatasetStore

    store = DatasetStore.open(run_dir)
    problems = store.verify()
    rep.check(not problems, f"store verify: {problems[:3]}")
    coverage = store.coverage().as_dict()
    rep.check(
        coverage["planned"] == planned and coverage["pending"] == 0,
        f"coverage does not reconcile: {coverage}",
    )
    accounting = _journal_accounting(store.journal.entries())
    rep.fingerprint.update(
        {
            "store_digest": store_digest(run_dir),
            "coverage": coverage,
            "measurements": accounting["campaign.measurements"],
        }
    )
    return accounting


def _campaign(
    rep: Repetition, tracer: Optional[Tracer], world: Any, run_dir: Path, days: int, **options: Any
) -> None:
    """One timed checkpointed campaign, then its store checks."""
    from repro.measure import campaign

    start = time.perf_counter()
    campaign.run_campaign_checkpointed(world, run_dir, days=days, **options)
    elapsed = time.perf_counter() - start
    rep.metrics["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    accounting = _check_store(rep, run_dir, UNITS_PER_DAY * days)
    rep.metrics["measurements_per_s"] = accounting["campaign.measurements"] / elapsed
    rep.layers.update(accounting)


# -- workloads --------------------------------------------------------------


class Workload:
    """One workload: ``setup`` is timed as set-up, ``run`` measures and checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, rep: Repetition, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


class Fullscale(Workload):
    name = "fullscale"

    def setup(self) -> None:
        import repro

        self.world = repro.build_world(seed=self.seed, scale=FULLSCALE_SCALE)

    def run(self, rep: Repetition, tracer: Optional[Tracer]) -> None:
        _campaign(rep, tracer, self.world, self.workdir / "store", FULLSCALE_DAYS, workers=NPROC)


class Longrun(Workload):
    name = "longrun"

    def setup(self) -> None:
        import repro

        self.world = repro.build_world(seed=self.seed, scale=LONGRUN_SCALE)

    def run(self, rep: Repetition, tracer: Optional[Tracer]) -> None:
        from repro.faults import FaultConfig
        from repro.netfaults.config import NetworkFaultConfig

        # A skipped unit's journaled ``reason`` embeds the shard path as
        # the run directory was given, so one chaos campaign run under
        # two directories differs in ``journal.jsonl``.  The work
        # directory is the same relative path for every repetition (and
        # every checkout), which keeps store digests comparable.
        _campaign(
            rep,
            tracer,
            self.world,
            self.workdir / "store",
            LONGRUN_DAYS,
            faults=FaultConfig(**LONGRUN_FAULTS),
            netfaults=NetworkFaultConfig(**LONGRUN_NETFAULTS),
        )


class Reproduce(Workload):
    name = "reproduce"

    def setup(self) -> None:
        import repro

        self.world = repro.build_world(seed=self.seed, scale=REPRODUCE_SCALE)

    def run(self, rep: Repetition, tracer: Optional[Tracer]) -> None:
        import repro
        from repro.experiments import registry
        from repro.experiments.common import StudyContext

        start = time.perf_counter()
        dataset = repro.run_campaign(self.world, days=REPRODUCE_DAYS)
        results: Dict[str, Any] = {}
        errors: Dict[str, str] = {}
        analysis_start = time.perf_counter()
        context = StudyContext(self.world, dataset)
        for experiment_id in registry.EXPERIMENT_IDS:
            try:
                results[experiment_id] = registry.run_experiment(
                    experiment_id, self.world, dataset, context=context
                )
            except Exception:  # an experiment that raises is a failed operation
                errors[experiment_id] = traceback.format_exc(limit=4)
        end = time.perf_counter()
        rep.metrics["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        measurements = dataset.ping_count + dataset.traceroute_count
        # Over the whole reference run: the ~2-s classic campaign alone is
        # too short a window to time steadily, and the user waits for the
        # rendered experiments, not for the dataset.
        rep.metrics["measurements_per_s"] = measurements / (end - start)
        rep.metrics["analysis_s"] = end - analysis_start
        rep.layers["campaign.measurements"] = float(measurements)

        for experiment_id in registry.EXPERIMENT_IDS:
            result = results.get(experiment_id)
            if result is None:
                rep.check(False, f"{experiment_id} raised:\n{errors[experiment_id]}")
                continue
            rep.check(bool(result.data) and bool(result.body), f"{experiment_id} returned no data")
            rep.fingerprint[f"render.{experiment_id}"] = hashlib.sha256(
                result.render().encode("utf-8")
            ).hexdigest()
        rep.fingerprint.update(
            {
                "pings": dataset.ping_count,
                "traceroutes": dataset.traceroute_count,
                "ping_samples": dataset.ping_sample_count,
                "records": dataset_digest(dataset),
            }
        )


class Response(NamedTuple):
    """One query of the load: its answer is checked after the timed phase."""

    index: int
    status: int
    elapsed: float
    #: Equal to the first answer the load got for the same spec.
    same: bool
    #: What a failed request streamed (an HTTP error body); None on success.
    error: Optional[List[Any]]


class Service(Workload):
    name = "service"

    def setup(self) -> None:
        from repro.service import ServiceApp, ServiceClient, TenantPolicy

        self.loop = asyncio.new_event_loop()
        # Rate limiting stays in the admission path but never rejects:
        # throttling has its own tests.
        self.app = ServiceApp(self.workdir / "svc", default_policy=TenantPolicy(rate=1e6, burst=1e6))
        port = self.loop.run_until_complete(self.app.start("127.0.0.1", 0))
        self.clients = [ServiceClient("127.0.0.1", port) for _ in range(NPROC)]

    def close(self) -> None:
        if self.loop.is_closed():
            return

        async def shutdown() -> None:
            for client in self.clients:
                await client.close()
            await self.app.close()

        self.loop.run_until_complete(shutdown())
        self.loop.close()

    def run(self, rep: Repetition, tracer: Optional[Tracer]) -> None:
        sequence = query_sequence(self.seed, SERVICE_QUERIES, SERVICE_DAYS)
        submit, events, timing = self.loop.run_until_complete(self._submit())
        answers: Dict[str, List[Dict[str, Any]]] = {}
        responses, query_s = self.loop.run_until_complete(
            self._queries(submit["job"], sequence, answers)
        )
        rep.metrics["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        # The checks fork a pool: stop the service's threads first.
        self.close()
        start, first, done = timing
        units = [e for e in events if e["event"] in ("unit", "skip")]
        measurements = sum(int(e.get("pings", 0)) + int(e.get("traceroutes", 0)) for e in units)
        rep.metrics["measurements_per_s"] = measurements / (done - start)
        rep.metrics["first_commit_ms"] = (first - start) * 1e3
        rep.metrics["query_rps"] = len(sequence) / query_s
        rep.samples["query_hit_ms"] = [r.elapsed * 1e3 for r in responses if not sequence[r.index].first_time]
        rep.samples["query_scan_ms"] = [r.elapsed * 1e3 for r in responses if sequence[r.index].first_time]

        job_dir = self.app.scheduler.store_root / "jobs" / submit["job"]
        self._check_campaign(rep, submit, events, job_dir)
        self._check_queries(rep, job_dir, sequence, responses, answers)

    async def _submit(self) -> Any:
        """Submit the campaign and stream its events to ``done``."""
        client = self.clients[0]
        body = {"seed": self.seed, "scale": SERVICE_SCALE, "days": SERVICE_DAYS}
        start = time.perf_counter()
        status, _, submit = await client.request("POST", "/v1/campaigns", body)
        if status != 202:
            raise RuntimeError(f"campaign submit returned {status}: {submit}")
        _, _, stream = await client.stream("GET", f"/v1/campaigns/{submit['job']}/events")
        first: Optional[float] = None
        events: List[Dict[str, Any]] = []
        async for event in stream:
            if first is None and event["event"] in ("unit", "skip"):
                first = time.perf_counter()
            events.append(event)
        done = time.perf_counter()
        return submit, events, (start, first if first is not None else done, done)

    async def _queries(
        self, job: str, sequence: List[Query], answers: Dict[str, List[Dict[str, Any]]]
    ) -> Any:
        """Closed loop: each connection sends its next request when the last one ends.

        A repeat is sent once the first request for its spec has been
        answered, as a tenant repeats a query whose answer it has seen;
        it waits for that answer untimed.  The first answer to each spec
        is kept in ``answers``; every later one is compared with it and
        dropped, so the peak RSS is the service's, not that of the
        responses the load generator holds.
        """
        cursor = iter(sequence)
        responses: List[Response] = []
        answered: Dict[str, asyncio.Event] = {}

        async def connection(client: Any) -> None:
            for query in cursor:
                if query.first_time:
                    answered[query.key] = asyncio.Event()
                else:
                    await answered[query.key].wait()
                start = time.perf_counter()
                status, _, lines = await client.collect(
                    "POST", "/v1/query", {"job": job, "spec": query.spec}
                )
                elapsed = time.perf_counter() - start
                if status == 200 and lines:
                    first = answers.setdefault(query.key, lines)
                    same = first is lines or first == lines
                    responses.append(Response(query.index, status, elapsed, same, None))
                else:
                    responses.append(Response(query.index, status, elapsed, False, lines))
                answered[query.key].set()

        start = time.perf_counter()
        await asyncio.gather(*(connection(client) for client in self.clients))
        return responses, time.perf_counter() - start

    def _check_campaign(self, rep: Repetition, submit: Dict[str, Any], events: List[Dict[str, Any]], job_dir: Path) -> None:
        from repro.exec.digest import store_digest

        done = events[-1] if events else {}
        rep.check(done.get("event") == "done", f"event stream ended with {done}")
        if done.get("event") == "done":
            rep.check(done["store_digest"] == store_digest(job_dir), "done event digest differs from the job store")
        accounting = _check_store(rep, job_dir, UNITS_PER_DAY * SERVICE_DAYS)
        rep.layers.update(accounting)

    def _check_queries(
        self,
        rep: Repetition,
        job_dir: Path,
        sequence: List[Query],
        responses: List[Response],
        answers: Dict[str, List[Dict[str, Any]]],
    ) -> None:
        """Every streamed answer against an offline scan of the same spec."""
        from repro.exec.pool import parallel_map
        from repro.query import QuerySpec
        from repro.query.oracle import oracle_execute
        from repro.store.warehouse import DatasetStore

        first_time = [query for query in sequence if query.first_time]
        offline = parallel_map(
            _offline_payload, [(str(job_dir), query.spec) for query in first_time], NPROC
        )
        expected = {query.key: json.loads(text) for query, text in zip(first_time, offline)}
        rep.fingerprint["query_results"] = hashlib.sha256("\n".join(offline).encode("utf-8")).hexdigest()
        matches = {key: _matches(lines, expected[key]) for key, lines in answers.items()}
        for response in sorted(responses, key=lambda r: r.index):
            query = sequence[response.index]
            if response.error is not None:
                rep.check(False, f"query {response.index} returned HTTP {response.status}: {response.error[:1]}")
                continue
            rep.check(
                response.same and matches[query.key],
                f"query {response.index} rows differ from "
                + ("offline execute" if response.same else "the first answer to its spec"),
            )
        store = DatasetStore.open(job_dir).snapshot()
        oracle_specs = [q for q in first_time if not q.spec.get("quantiles")]
        for query in oracle_specs[:SERVICE_ORACLE_SPECS]:
            oracle = json.loads(json.dumps(oracle_execute(store, QuerySpec.from_dict(query.spec)).payload()))
            rep.check(oracle == expected[query.key], f"query {query.index} differs from the oracle")


def _matches(lines: List[Dict[str, Any]], payload: Dict[str, Any]) -> bool:
    """Whether streamed NDJSON objects carry an offline ``payload()``."""
    header = {k: v for k, v in lines[0].items() if k not in ("event", "row_count")}
    rows = [{k: v for k, v in line.items() if k not in ("event", "index")} for line in lines[1:]]
    return header == {k: v for k, v in payload.items() if k != "rows"} and rows == payload["rows"]


def dataset_digest(dataset: Any) -> str:
    """sha256 over every ping and traceroute record of an in-memory dataset."""
    digest = hashlib.sha256()
    for block in itertools.chain(dataset.ping_blocks(), dataset.trace_blocks()):
        digest.update(repr([probe.probe_id for probe in block.probes]).encode("utf-8"))
        digest.update(repr([str(region) for region in block.regions]).encode("utf-8"))
        for name in type(block).__slots__:
            value = getattr(block, name)
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                digest.update(name.encode("utf-8") + value.tobytes())
    for record in itertools.chain(dataset.iter_scalar_pings(), dataset.iter_scalar_traceroutes()):
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


def _offline_payload(task: Tuple[str, Dict[str, Any]]) -> str:
    """An uncached offline scan of one spec, as canonical JSON (a pool task)."""
    from repro.query import QuerySpec, execute
    from repro.store.warehouse import DatasetStore

    run_dir, spec = task
    store = DatasetStore.open(run_dir).snapshot()
    payload = execute(store, QuerySpec.from_dict(spec), cache=False).payload()
    return json.dumps(payload, sort_keys=True)


WORKLOAD_CLASSES: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (Fullscale, Longrun, Service, Reproduce)
}


def layer_metrics(tracer: Tracer, rep: Repetition) -> Dict[str, float]:
    """Per-layer metrics from a traced repetition's spans and counts."""
    from repro.experiments.registry import EXPERIMENT_IDS

    total, own = totals(tracer.spans)
    counts = tracer.counts
    pairs = counts.get("planner.pairs", 0.0)
    shards_total = counts.get("query.shards_total", 0.0)
    slot_s = counts.get("exec.worker_slot_s", 0.0)
    layers = {
        "world.build_s": total.get("world.build_world", 0.0),
        "routing.calls": counts.get("routing.calls", 0.0),
        "routing.tables": counts.get("routing.tables", 0.0),
        "routing.s": total.get("routing.routes_for", 0.0),
        "campaign.units": counts.get("campaign.units", 0.0),
        "campaign.schedule_s": own.get("campaign.unit", 0.0) + own.get("campaign.run_campaign", 0.0),
        "planner.pairs": pairs,
        "planner.reuse_ratio": counts.get("planner.reused", 0.0) / pairs if pairs else 0.0,
        "planner.s": total.get("planner.plan_many", 0.0),
        "engine.ping_requests": counts.get("engine.ping_requests", 0.0),
        "engine.ping_samples": counts.get("engine.ping_samples", 0.0),
        "engine.ping_s": own.get("engine.ping_batch", 0.0),
        "engine.trace_requests": counts.get("engine.trace_requests", 0.0),
        "engine.trace_s": own.get("engine.traceroute_batch", 0.0),
        "netfaults.events": counts.get("netfaults.events", 0.0),
        "netfaults.epochs": counts.get("netfaults.epochs", 0.0),
        "netfaults.overhead_s": own.get("netfaults.ping_batch", 0.0) + own.get("netfaults.traceroute_batch", 0.0),
        "store.shards": counts.get("store.shards", 0.0),
        "store.bytes": counts.get("store.bytes", 0.0),
        "store.write_s": total.get("store.write_unit_shards", 0.0),
        "store.verify_s": total.get("store.verify_unit_shards", 0.0),
        "journal.appends": counts.get("journal.appends", 0.0),
        "journal.append_s": total.get("journal.append", 0.0),
        "journal.reads": counts.get("journal.reads", 0.0),
        "journal.read_bytes": counts.get("journal.read_bytes", 0.0),
        "journal.read_s": total.get("journal.entries", 0.0),
        "exec.worker_cpu_s": counts.get("exec.worker_cpu_s", 0.0),
        "exec.commit_s": total.get("exec.merge_staged_unit", 0.0),
        "exec.utilization": counts.get("exec.worker_cpu_s", 0.0) / slot_s if slot_s else 0.0,
        "resolve.traces": counts.get("resolve.traces", 0.0),
        "resolve.s": total.get("resolve.resolve_many", 0.0),
        "resolve.lookups": counts.get("resolve.lookups", 0.0),
        "resolve.lpm_s": total.get("resolve.lookup_many", 0.0),
        "query.plan_s": total.get("query.build_plan", 0.0),
        "query.shards_total": shards_total,
        "query.shards_scanned": counts.get("query.shards_scanned", 0.0),
        "query.prune_ratio": 1.0 - counts.get("query.shards_scanned", 0.0) / shards_total if shards_total else 0.0,
        "query.scan_s": total.get("query.scan_shards", 0.0),
        "query.cache_hits": counts.get("query.cache_hits", 0.0),
        "query.cache_misses": counts.get("query.cache_misses", 0.0),
        "query.cache_get_s": total.get("query.cache_get", 0.0),
        "query.cache_put_s": total.get("query.cache_put", 0.0),
        "service.requests": counts.get("service.requests", 0.0),
        "service.parse_s": total.get("service.read_request", 0.0) + total.get("service.from_dict", 0.0),
        "service.admit_s": total.get("service.admit", 0.0),
        "service.dispatch_wait_s": dispatch_wait(tracer.spans),
        "service.stream_s": total.get("service.write_response", 0.0),
        "service.rows": counts.get("service.rows", 0.0),
        "service.bytes": counts.get("service.bytes", 0.0),
    }
    for experiment_id in EXPERIMENT_IDS:
        layers[f"experiment.{experiment_id}_s"] = total.get(f"experiment.{experiment_id}", 0.0)
    layers.update(rep.layers)
    return layers
