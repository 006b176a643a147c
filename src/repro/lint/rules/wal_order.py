"""Crash-consistency ordering for the unit journal (``WAL001``).

The store's recovery contract (PR 3/5) is write-ahead on *data*: a
unit's shards are written and fsync'd first, and only then is the
unit's journal entry appended.  A crash between the two leaves shards
without a journal entry -- harmless, the unit is re-run.  The reversed
order leaves a journal entry pointing at missing or torn shards, and
resume trusts the journal, so the corruption is silent.

The discipline is easy to state and easy to lose across a refactor,
because the append usually happens a function or two away from the
write (``write_unit_shards`` -> ``verify_unit_shards`` ->
``journal_unit``).  This rule follows *unit entry* values -- dict
literals carrying a ``"shards"`` key or ``"type": UNIT_ENTRY`` --
through assignments and call boundaries, marks them durable once a
shard-write primitive (``write_unit_shards``, ``write_block_shard``,
``FileOps.write_bytes``, ...) has executed on the path, and reports any
journal append (``*journal*.append(...)``, ``journal_unit(...)``, or a
parameter that flows into one) reached by an entry that is not yet
durable.

Interprocedural summaries record, per function: whether calling it
performs shard writes, whether it returns a unit entry (and in what
durability state), and which parameters it forwards into a journal
append -- so the warehouse's ``flush_unit`` (write, verify, then
journal) is clean while a refactor that journals first is an error.

Scoped to where the contract lives: ``repro/store``, ``repro/exec``,
and the resilient runner in ``repro/measure``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.dataflow import (
    EMPTY,
    AbstractInterpreter,
    Tags,
    fixpoint_summaries,
)
from repro.lint.engine import ProjectReporter, Rule, is_test_path, register_rule
from repro.lint.rules.rng_flow import _callee_param_index

#: Tag for values recognised as unit journal entries.
UNIT_ENTRY = "unit-entry"
#: Tag granted once a shard-write primitive has executed on the path.
DURABLE = "durable"

#: Call names that persist shard bytes (write + flush + fsync) or
#: verify already-persisted bytes; executing one makes pending unit
#: entries durable.
_SHARD_WRITE_NAMES = frozenset(
    {
        "write_unit_shards",
        "write_block_shard",
        "write_bytes",
        "verify_unit_shards",
        "merge_staged_unit",
        "fsync",
    }
)

#: Journal-entry ``type`` constants that mark a *unit* entry (other
#: entry kinds -- begin/skip -- do not carry shard payloads and are
#: exempt from the ordering).
_UNIT_TYPE_NAMES = frozenset({"UNIT_ENTRY"})


def _is_unit_entry_dict(node: ast.Dict) -> bool:
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        if key.value == "shards":
            return True
        if key.value == "type":
            if isinstance(value, ast.Name) and value.id in _UNIT_TYPE_NAMES:
                return True
            if isinstance(value, ast.Constant) and value.value == "unit":
                return True
    return False


def _receiver_parts(func: ast.Attribute) -> List[str]:
    parts: List[str] = []
    node: ast.expr = func.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts


def _is_journal_append(func: ast.Attribute) -> bool:
    if func.attr != "append":
        return False
    return any("journal" in part.lower() for part in _receiver_parts(func))


@dataclass(frozen=True)
class _WalSummary:
    """One function's journal/shard behaviour, seen from its callers."""

    #: Calling this function performs shard writes (possibly nested).
    writes_shards: bool
    #: Non-parameter tags of returned values.
    returns: Tags
    #: Parameter indices that flow into a journal append inside.
    sink_params: FrozenSet[int]


_EMPTY_SUMMARY = _WalSummary(
    writes_shards=False, returns=EMPTY, sink_params=frozenset()
)


class _WalInterpreter(AbstractInterpreter):
    """Tracks unit-entry values and their durability through one body."""

    def __init__(
        self,
        fn: FunctionInfo,
        project: Project,
        summaries: Dict[str, object],
    ) -> None:
        super().__init__(fn, project)
        self._summaries = summaries
        self._sites = {site.node: site for site in fn.calls}
        self.writes_shards = False
        self.sink_params: Set[int] = set()
        #: ``(call node,)`` journal appends of non-durable unit entries.
        self.violations: List[Tuple[ast.Call]] = []

    def _eval(self, node: ast.expr) -> Tags:
        value = super()._eval(node)
        if isinstance(node, ast.Dict) and _is_unit_entry_dict(node):
            value = value | {UNIT_ENTRY}
        return value

    def eval_call(self, node: ast.Call, arg_tags: List[Tags]) -> Tags:
        func = node.func
        site = self._sites.get(node)
        callee: Optional[FunctionInfo] = None
        summary = _EMPTY_SUMMARY
        if site is not None and site.target is not None:
            assert self.project is not None
            callee = self.project.functions[site.target]
            found = self._summaries.get(site.target, _EMPTY_SUMMARY)
            if isinstance(found, _WalSummary):
                summary = found

        # Journal sinks, checked before any durability this call grants.
        if isinstance(func, ast.Attribute) and _is_journal_append(func):
            self._observe_sink(node, arg_tags, flat_index=0)
        call_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee is not None and summary.sink_params:
            for flat_index, value in enumerate(arg_tags):
                param = _callee_param_index(node, callee, flat_index)
                if param is not None and param in summary.sink_params:
                    self._observe_sink(node, arg_tags, flat_index=flat_index)
        elif callee is None and call_name == "journal_unit":
            self._observe_sink(node, arg_tags, flat_index=0)

        # Durability grants.
        grants = summary.writes_shards or call_name in _SHARD_WRITE_NAMES
        if grants:
            self.writes_shards = True
            self.env.add_tag_where(UNIT_ENTRY, DURABLE)
            if callee is None and call_name == "write_unit_shards":
                # Unresolved but canonical: it returns the entry it
                # just persisted.
                return frozenset({UNIT_ENTRY, DURABLE})
        return summary.returns

    def _observe_sink(
        self, node: ast.Call, arg_tags: List[Tags], flat_index: int
    ) -> None:
        if flat_index >= len(arg_tags):
            return
        value = arg_tags[flat_index]
        for tag in value:
            if tag.startswith("param:"):
                self.sink_params.add(int(tag.split(":", 1)[1]))
        if UNIT_ENTRY in value and DURABLE not in value:
            self.violations.append((node,))


@register_rule
class WalOrderRule(Rule):
    """Shards must be durably written before their journal entry."""

    rule_id = "WAL001"
    name = "wal-order"
    summary = (
        "order-of-operations analysis over the store: a unit journal "
        "entry reaching an append without a dominating shard "
        "write+fsync on its path inverts the shards-before-journal "
        "recovery contract and makes crashes silently corrupting"
    )
    path_patterns = ("repro/store/*", "repro/exec/*", "repro/measure/*")

    def check_project(self, project: Project, reporter: ProjectReporter) -> None:
        def summarize(
            fn: FunctionInfo, summaries: Dict[str, object]
        ) -> _WalSummary:
            interp = _WalInterpreter(fn, project, summaries)
            returned = interp.run()
            return _WalSummary(
                writes_shards=interp.writes_shards,
                returns=frozenset(
                    tag for tag in returned if not tag.startswith("param:")
                ),
                sink_params=frozenset(interp.sink_params),
            )

        summaries = fixpoint_summaries(project, summarize)
        for qualname, fn in sorted(project.functions.items()):
            module = fn.module
            if is_test_path(module.posix_path):
                continue
            if not self.applies_to_module(module):
                continue
            interp = _WalInterpreter(fn, project, summaries)
            interp.run()
            for (node,) in interp.violations:
                reporter.report(
                    self,
                    module,
                    node,
                    f"{fn.name} journals a unit entry before its shards "
                    "are durably written: no shard write+fsync dominates "
                    "this append, so a crash here leaves the journal "
                    "pointing at missing shards -- write and verify "
                    "shards first, then append",
                )
