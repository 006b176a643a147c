"""Event-loop purity for the measurement service (``SVC001``).

The service's HTTP handlers all run on one asyncio event loop; a single
blocking call anywhere under a handler stalls every connection -- new
accepts, in-flight NDJSON streams, keep-alive responses -- for as long
as it runs.  Campaign execution takes seconds and query scans touch the
shard files on disk, so the failure mode is not a micro-stutter but a
frozen service that still passes every functional test.

This rule finds every ``async def`` defined in the service package
(``repro/service/*``), walks the resolved call edges *within* the
package, and flags call sites of known blocking sinks on any reached
path: blocking stdlib primitives (``time.sleep``, ``subprocess.*``,
``socket`` constructors, builtin ``open``, ``os.fsync``, ...) and the
project's synchronous subsystems (world building, campaign execution,
store opens, query scans).

The sanctioned escape is :meth:`repro.service.bridge.ExecutorBridge.
run_blocking`: the blocking callable is passed *as an argument* and
invoked on a pool thread.  The exemption needs no allow-list -- the
call graph only records edges for calls that appear syntactically
(``fn(...)``), so a callable handed to the bridge contributes no edge
and everything behind it is out of the handler's reachable set.  The
flip side is deliberate: inlining the blocking call back into a handler
re-creates the edge and the finding.

Sink matching is curated, not blanket: spec parsing, request
validation, ``Path`` arithmetic, and ``json`` encoding are all loop-
safe and stay silent.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.engine import (
    ProjectReporter,
    Rule,
    is_test_path,
    path_matches,
    register_rule,
)
from repro.lint.rules.exe_pure import _locally_bound_names

#: The package whose async defs are event-loop entry points.
_SERVICE_SCOPE = ("repro/service/*",)

#: Blocking stdlib calls, matched by import-resolved dotted name.
_STDLIB_SINKS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.wait",
        "os.waitpid",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "urllib.request.urlopen",
        "shutil.rmtree",
        "shutil.copytree",
        "shutil.copyfile",
    }
)

#: Synchronous project subsystems, matched by import-resolved dotted
#: name: each of these does real work (seconds of CPU, or shard-file
#: I/O) and must only run on a bridge thread or a fork worker.
_PROJECT_SINKS = frozenset(
    {
        "repro.build_world",
        "repro.core.scenario.build_world",
        "repro.measure.campaign.run_campaign",
        "repro.measure.campaign.run_campaign_checkpointed",
        "repro.measure.campaign.resume_campaign",
        "repro.run_campaign",
        "repro.measure.resilience.execute_plan",
        "repro.exec.runner.execute_plan_parallel",
        "repro.query.builder.execute",
        "repro.store.warehouse.DatasetStore.open",
        "repro.store.warehouse.DatasetStore.snapshot",
    }
)

#: Human-readable reason per sink family, keyed by dotted prefix.
_SINK_KIND = (
    ("repro.", "synchronous subsystem call"),
    ("", "blocking stdlib call"),
)


def _service_module(fn: FunctionInfo) -> bool:
    return path_matches(fn.module.posix_path, _SERVICE_SCOPE)


def _async_roots(project: Project) -> List[FunctionInfo]:
    """Every ``async def`` in the service package (the loop entries)."""
    roots = []
    for fn in project.functions.values():
        if not isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        if not _service_module(fn) or is_test_path(fn.module.posix_path):
            continue
        roots.append(fn)
    return sorted(roots, key=lambda fn: fn.qualname)


def _reach_within_service(
    project: Project, roots: List[FunctionInfo]
) -> Dict[str, Optional[str]]:
    """BFS over call edges, traversing only service-package functions.

    Returns ``qualname -> caller qualname`` (roots map to ``None``) so
    findings can show the handler path that reaches the sink.  Edges
    leaving the package are not followed: code outside the service is
    reached only through the curated sinks, which are flagged at the
    call site inside the package.
    """
    parent: Dict[str, Optional[str]] = {fn.qualname: None for fn in roots}
    frontier = [fn.qualname for fn in roots]
    while frontier:
        next_frontier: List[str] = []
        for qualname in frontier:
            for callee in sorted(project.callees(qualname)):
                if callee in parent:
                    continue
                fn = project.functions.get(callee)
                if fn is None or not _service_module(fn):
                    continue
                parent[callee] = qualname
                next_frontier.append(callee)
        frontier = next_frontier
    return parent


def _handler_chain(parent: Dict[str, Optional[str]], qualname: str) -> str:
    chain: List[str] = []
    current: Optional[str] = qualname
    while current is not None:
        chain.append(current.rsplit(".", 1)[-1])
        current = parent.get(current)
    return " <- ".join(chain)


def _sink_for(dotted: Optional[str], bound: Set[str]) -> Optional[str]:
    """The sink a call's dotted name hits, or ``None``."""
    if dotted is None:
        return None
    if dotted in _STDLIB_SINKS or dotted in _PROJECT_SINKS:
        return dotted
    # Builtin open(): the bare name, unshadowed by imports or locals.
    if dotted == "open" and "open" not in bound:
        return "open"
    return None


@register_rule
class ServiceAsyncPurityRule(Rule):
    """Nothing reachable from an async handler may block the loop."""

    rule_id = "SVC001"
    name = "service-async-purity"
    summary = (
        "no blocking call -- campaign execution, store/query I/O, "
        "time.sleep, subprocess, builtin open -- may be reachable from "
        "an async def in repro/service/*; dispatch blocking work "
        "through ExecutorBridge.run_blocking instead"
    )

    def check_project(self, project: Project, reporter: ProjectReporter) -> None:
        roots = _async_roots(project)
        if not roots:
            return
        parent = _reach_within_service(project, roots)
        for qualname in sorted(parent):
            fn = project.functions[qualname]
            self._check_function(reporter, fn, parent)

    def _check_function(
        self,
        reporter: ProjectReporter,
        fn: FunctionInfo,
        parent: Dict[str, Optional[str]],
    ) -> None:
        bound = _locally_bound_names(fn.node)
        for site in fn.calls:
            sink = _sink_for(site.dotted, bound)
            if sink is None:
                continue
            kind = next(
                label
                for prefix, label in _SINK_KIND
                if sink.startswith(prefix)
            )
            if sink == "open":
                kind = "blocking builtin call"
            chain = _handler_chain(parent, fn.qualname)
            reporter.report(
                self,
                fn.module,
                site.node,
                f"{fn.name} is reachable from an async service handler "
                f"({chain}) and makes a {kind} ({sink}); the event loop "
                "stalls for every connection while it runs -- dispatch "
                "it through ExecutorBridge.run_blocking",
            )
