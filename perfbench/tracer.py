"""Span and count recording at the program's layer boundaries.

End-to-end metrics are measured with tracing off.  A traced repetition
installs a :class:`Tracer`, which replaces each public callable listed
in :func:`boundaries` *at the attribute its caller looks up* (for
example ``repro.service.app.execute_query``, the name the service
handler calls) with a wrapper that records a span -- name, id, parent,
start, end, process, request id -- plus the layer's work counts.
:meth:`Tracer.uninstall` puts every original back.

Spans live in memory.  Forked :mod:`repro.exec` workers inherit the
tracer; each child drops the parent's buffer on its first span and
appends its own spans to ``spans-<pid>.ndjson`` in the spill directory
whenever its outermost span closes (a worker's ``run_unit`` returns
before the unit is announced to the parent), so nothing is lost when
the parent terminates the worker.  :meth:`Tracer.collect_spills` merges
them back.  All timestamps are ``time.perf_counter`` (CLOCK_MONOTONIC),
comparable across processes.

Parents are tracked with a :class:`contextvars.ContextVar`, so spans
nest correctly per thread and per asyncio task.  The service's bridge
calls are re-entered in the caller's context, so a query's scan spans
on a bridge thread carry the request id assigned when its HTTP request
was read.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: (name, span id, parent id, start, end, pid, request id)
Span = Tuple[str, int, Optional[int], float, float, int, Optional[int]]

Before = Callable[[tuple, dict], Any]
After = Callable[[tuple, dict, Any, Any, float], None]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, spill_dir: Path) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._spill_dir = Path(spill_dir)
        self._pid = os.getpid()
        self._owner_pid = self._pid
        self._depth = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.request: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._seen: Dict[Tuple[str, int], Set[int]] = defaultdict(set)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _forked(self) -> None:
        """Reset per-process state on the first call in a forked child."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self.counts = defaultdict(float)
            self._lock = threading.Lock()
            self._depth = 0

    def open(self) -> Tuple[int, Optional[int], contextvars.Token, float]:
        self._forked()
        span_id = (self._pid << 32) | next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        self._depth += 1
        return span_id, parent, token, time.perf_counter()

    def close(
        self,
        name: str,
        span_id: int,
        parent: Optional[int],
        token: contextvars.Token,
        start: float,
    ) -> float:
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(
            (name, span_id, parent, start, end, self._pid, self.request.get())
        )
        self._depth -= 1
        if self._depth == 0 and self._pid != self._owner_pid:
            self._spill()
        return end - start

    def record(self, name: str, start: float, end: float) -> None:
        """A span whose interval was measured by the caller."""
        self._forked()
        span_id = (self._pid << 32) | next(self._ids)
        self.spans.append(
            (name, span_id, self._current.get(), start, end, self._pid, self.request.get())
        )

    def count(self, key: str, amount: float = 1.0) -> None:
        self._forked()
        with self._lock:
            self.counts[key] += amount

    def seen(self, kind: str, owner: object) -> Set[int]:
        """Identities of objects an owner has returned before."""
        return self._seen[(kind, id(owner))]

    def new_request(self) -> int:
        return next(self._requests)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span_id, parent, token, start = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, span_id, parent, token, start)

    # -- forked children -------------------------------------------------

    def _spill(self) -> None:
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"spans": self.spans, "counts": dict(self.counts)})
        with open(self._spill_dir / f"spans-{self._pid}.ndjson", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    def collect_spills(self) -> int:
        """Merge every forked child's spilled spans and counts; returns files read."""
        files = sorted(self._spill_dir.glob("spans-*.ndjson")) if self._spill_dir.exists() else []
        for path in files:
            for line in path.read_text(encoding="utf-8").splitlines():
                chunk = json.loads(line)
                self.spans.extend(tuple(span) for span in chunk["spans"])
                for key, value in chunk["counts"].items():
                    self.counts[key] += value
            path.unlink()
        return len(files)

    def dump(self, path: Path) -> None:
        """Write every span out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: (s[3], s[1])):
                fh.write(json.dumps(span) + "\n")

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; the process keeps running the wrappers until uninstall."""
        self._owner_pid = os.getpid()
        for target, name, *hooks in boundaries(self):
            self._patch(target, lambda original: self._wrap(original, name, *hooks))
        for target, wrap in service_wrappers(self):
            self._patch(target, wrap)

    def uninstall(self) -> None:
        """Restore every original callable, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> List[Tuple[Any, str, Any]]:
        return list(self._patches)

    def _patch(self, target: str, wrap: Callable[[Any], Any]) -> None:
        """Replace ``target`` with ``wrap(original)``, remembering the original."""
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(wrap(original.__func__))
        else:
            replacement = wrap(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: Any,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> Callable[..., Any]:
        tracer = self
        label: Callable[[tuple], str] = name if callable(name) else (lambda args: name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                state = before(args, kwargs) if before else None
                span_id, parent, token, start = tracer.open()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    elapsed = tracer.close(label(args), span_id, parent, token, start)
                if after:
                    after(args, kwargs, result, state, elapsed)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before else None
            span_id, parent, token, start = tracer.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.close(label(args), span_id, parent, token, start)
            if after:
                after(args, kwargs, result, state, elapsed)
            return result

        return wrapper


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:attr"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


# -- boundary table -------------------------------------------------------


def boundaries(tracer: Tracer) -> List[tuple]:
    """(lookup site, span name, before hook, after hook) for every layer.

    Sites name the attribute the *caller* resolves at call time; a
    function imported by name into another module is patched there too.
    """

    def counter(key: str, size: Callable[[tuple, dict, Any], float]) -> After:
        def after(args: tuple, kwargs: dict, result: Any, state: Any, elapsed: float) -> None:
            tracer.count(key, size(args, kwargs, result))

        return after

    def after_routes(args: tuple, kwargs: dict, table: Any, state: Any, elapsed: float) -> None:
        tracer.count("routing.calls")
        seen = tracer.seen("routing", args[0])
        if id(table) not in seen:
            seen.add(id(table))
            tracer.count("routing.tables")

    def after_plan(args: tuple, kwargs: dict, paths: Any, state: Any, elapsed: float) -> None:
        seen = tracer.seen("planner", args[0])
        reused = 0
        for path in paths:
            if id(path) in seen:
                reused += 1
            else:
                seen.add(id(path))
        tracer.count("planner.pairs", len(paths))
        tracer.count("planner.reused", reused)

    def after_ping(args: tuple, kwargs: dict, block: Any, state: Any, elapsed: float) -> None:
        tracer.count("engine.ping_requests", len(args[1]))
        tracer.count("engine.ping_samples", block.sample_count)

    def after_write(args: tuple, kwargs: dict, entry: Any, state: Any, elapsed: float) -> None:
        store = args[0]
        tracer.count("store.shards", len(entry["shards"]))
        tracer.count(
            "store.bytes", sum((store.shard_dir / name).stat().st_size for name in entry["shards"])
        )

    def before_read(args: tuple, kwargs: dict) -> int:
        path = args[0].path
        return path.stat().st_size if path.exists() else 0

    def after_read(args: tuple, kwargs: dict, entries: Any, size: Any, elapsed: float) -> None:
        tracer.count("journal.reads")
        tracer.count("journal.read_bytes", size)

    def before_exec(args: tuple, kwargs: dict) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def after_exec(args: tuple, kwargs: dict, result: Any, cpu_before: Any, elapsed: float) -> None:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        tracer.count("exec.worker_cpu_s", usage.ru_utime + usage.ru_stime - cpu_before)
        tracer.count("exec.worker_slot_s", kwargs.get("workers", 1) * elapsed)

    def after_netfaults(args: tuple, kwargs: dict, result: Any, state: Any, elapsed: float) -> None:
        plan = args[0].plan
        seen = tracer.seen("netfaults", plan)
        for day in {int(request.day) for request in args[1]} - seen:
            seen.add(day)
            timeline = plan.timeline(day)
            tracer.count("netfaults.events", len(timeline.events))
            tracer.count("netfaults.epochs", timeline.epoch_count)

    def after_plan_query(args: tuple, kwargs: dict, plan: Any, state: Any, elapsed: float) -> None:
        tracer.count("query.shards_total", len(plan.shards))
        tracer.count("query.shards_scanned", len(plan.scanned))

    def after_cache_get(args: tuple, kwargs: dict, hit: Any, state: Any, elapsed: float) -> None:
        tracer.count("query.cache_hits" if hit is not None else "query.cache_misses")

    return [
        ("repro:build_world", "world.build_world"),
        ("repro.core.scenario:build_world", "world.build_world"),
        ("repro.core.topology:Topology.routes_for", "routing.routes_for", None, after_routes),
        (
            "repro.measure.campaign:CheckpointExecutor.__call__",
            "campaign.unit",
            None,
            counter("campaign.units", lambda a, k, r: 1),
        ),
        ("repro:run_campaign", "campaign.run_campaign"),
        ("repro.measure.campaign:run_campaign", "campaign.run_campaign"),
        ("repro.measure.path:PathPlanner.plan_many", "planner.plan_many", None, after_plan),
        ("repro.measure.engine:MeasurementEngine.ping_batch", "engine.ping_batch", None, after_ping),
        (
            "repro.measure.engine:MeasurementEngine.traceroute_batch",
            "engine.traceroute_batch",
            None,
            counter("engine.trace_requests", lambda a, k, r: len(a[1])),
        ),
        ("repro.measure.resilience:run_unit", "resilience.run_unit"),
        ("repro.exec.runner:run_unit", "resilience.run_unit"),
        ("repro.netfaults.engine:NetfaultEngine.ping_batch", "netfaults.ping_batch", None, after_netfaults),
        (
            "repro.netfaults.engine:NetfaultEngine.traceroute_batch",
            "netfaults.traceroute_batch",
            None,
            after_netfaults,
        ),
        ("repro.store.warehouse:DatasetStore.write_unit_shards", "store.write_unit_shards", None, after_write),
        ("repro.store.warehouse:DatasetStore.verify_unit_shards", "store.verify_unit_shards"),
        (
            "repro.store.journal:RunJournal.append",
            "journal.append",
            None,
            counter("journal.appends", lambda a, k, r: 1),
        ),
        ("repro.store.journal:RunJournal.entries", "journal.entries", before_read, after_read),
        ("repro.measure.campaign:execute_plan_parallel", "exec.execute_plan_parallel", before_exec, after_exec),
        ("repro.exec.runner:merge_staged_unit", "exec.merge_staged_unit"),
        (
            "repro.resolve.pipeline:TracerouteResolver.resolve_many",
            "resolve.resolve_many",
            None,
            counter("resolve.traces", lambda a, k, r: len(a[1])),
        ),
        (
            "repro.resolve.pyasn:PyASNResolver.lookup_many",
            "resolve.lookup_many",
            None,
            counter("resolve.lookups", lambda a, k, r: len(a[1])),
        ),
        ("repro.experiments.registry:run_experiment", lambda args: f"experiment.{args[0]}"),
        ("repro.experiments:run_experiment", lambda args: f"experiment.{args[0]}"),
        ("repro.service.app:execute_query", "query.execute"),
        ("repro.query.builder:execute", "query.execute"),
        ("repro.query.builder:build_plan", "query.build_plan", None, after_plan_query),
        ("repro.query.builder:scan_shards", "query.scan_shards"),
        ("repro.query.cache:QueryCache.get", "query.cache_get", None, after_cache_get),
        ("repro.query.cache:QueryCache.put", "query.cache_put"),
        ("repro.service.requests:QueryRequest.from_dict", "service.from_dict"),
        ("repro.service.requests:CampaignRequest.from_dict", "service.from_dict"),
        ("repro.service.tenants:TenantRegistry.admit", "service.admit"),
    ]


def service_wrappers(tracer: Tracer) -> List[Tuple[str, Callable[[Any], Any]]]:
    """The three service boundaries that need more than a span.

    ``read_request`` assigns the request id (and records nothing for
    the final read that finds the connection closed), ``run_blocking``
    re-enters its callee in the caller's context on the bridge thread,
    and ``write_response`` counts the NDJSON objects and bytes sent.
    """
    from repro.service.http import StreamResponse

    def wrap_read(read_request: Any) -> Any:
        @functools.wraps(read_request)
        async def traced_read(reader: Any) -> Any:
            start = time.perf_counter()
            request = await read_request(reader)
            if request is not None:
                tracer.request.set(tracer.new_request())
                tracer.record("service.read_request", start, time.perf_counter())
                tracer.count("service.requests")
            return request

        return traced_read

    def wrap_write(write_response: Any) -> Any:
        @functools.wraps(write_response)
        async def traced_write(writer: Any, response: Any, close: bool) -> None:
            if isinstance(response, StreamResponse):
                response.chunks = _counted(tracer, response.chunks)
            else:
                tracer.count("service.bytes", len(response.body_bytes()))
            await tracer_span(tracer, "service.write_response", write_response(writer, response, close))

        return traced_write

    def wrap_run_blocking(run_blocking: Any) -> Any:
        @functools.wraps(run_blocking)
        async def traced_run_blocking(bridge: Any, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            span_id, parent, token, start = tracer.open()
            context = contextvars.copy_context()

            def in_context(*call_args: Any, **call_kwargs: Any) -> Any:
                return context.run(tracer.call, "service.bridge_call", fn, *call_args, **call_kwargs)

            try:
                return await run_blocking(bridge, in_context, *args, **kwargs)
            finally:
                tracer.close("service.run_blocking", span_id, parent, token, start)

        return traced_run_blocking

    return [
        ("repro.service.http:read_request", wrap_read),
        ("repro.service.http:write_response", wrap_write),
        ("repro.service.bridge:ExecutorBridge.run_blocking", wrap_run_blocking),
    ]


async def tracer_span(tracer: Tracer, name: str, awaitable: Any) -> Any:
    span_id, parent, token, start = tracer.open()
    try:
        return await awaitable
    finally:
        tracer.close(name, span_id, parent, token, start)


async def _counted(tracer: Tracer, chunks: Any) -> Any:
    async for chunk in chunks:
        tracer.count("service.rows")
        tracer.count("service.bytes", len(chunk))
        yield chunk


# -- per-layer metrics ------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that direct children cover.

    Children may overlap (forked workers under ``execute_plan_parallel``),
    so their intervals are merged before they are subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, parent, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    own: Dict[int, float] = {}
    for _, span_id, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        own[span_id] = (end - start) - covered
    return own


def totals(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(total duration, self time) summed per span name."""
    own = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    self_total: Dict[str, float] = defaultdict(float)
    for name, span_id, _, start, end, _, _ in spans:
        total[name] += end - start
        self_total[name] += own[span_id]
    return total, self_total


def dispatch_wait(spans: List[Span]) -> float:
    """Bridge dispatch time: ``run_blocking`` spans minus their callee span."""
    callee: Dict[int, float] = defaultdict(float)
    for name, _, parent, start, end, _, _ in spans:
        if name == "service.bridge_call" and parent is not None:
            callee[parent] += end - start
    return sum(
        (end - start) - callee.get(span_id, 0.0)
        for name, span_id, _, start, end, _, _ in spans
        if name == "service.run_blocking"
    )
