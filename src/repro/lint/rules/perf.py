"""Batch-function vectorization (``PERF001``).

The full-scale world (115k probes, 195 regions) is only routinely
runnable because the substrate's batch entry points -- the ``_block``/
``_batch``/``_many``/``_array`` forms in :mod:`repro.net` and
:mod:`repro.measure` -- do their per-element work as NumPy array
expressions.  A Python ``for`` loop over the element collection inside
one of these functions silently re-serializes the hot path; this rule
flags such loops so the per-element cost is a conscious decision.
Intentional scalar loops (cache walks, columnar assembly of ragged
rows) carry a ``# repro-lint: disable=PERF001`` comment explaining why.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.lint.engine import LintContext, Rule, register_rule

#: Name suffixes of the batch entry points this rule checks.
BATCH_SUFFIXES: Tuple[str, ...] = ("_block", "_batch", "_many", "_array")

#: Identifiers that name per-probe / per-path element collections.  A
#: loop over one of these inside a batch function is per-element Python
#: on the vectorized path.
ELEMENT_COLLECTIONS = frozenset(
    {
        "probes",
        "pairs",
        "preps",
        "paths",
        "addresses",
        "requests",
        "traces",
        "hops",
        "records",
        "measurements",
        "samples",
    }
)

PERF_PATHS = ("repro/net/*", "repro/measure/*")


@register_rule
class BatchLoopRule(Rule):
    """No silent per-element Python loops inside batch functions."""

    rule_id = "PERF001"
    name = "batch-loop"
    summary = (
        "per-element Python loops over probe/path collections inside "
        "net/ and measure/ batch functions must be vectorized or "
        "explicitly suppressed"
    )
    path_patterns = PERF_PATHS
    node_types = (ast.For,)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.For)
        function = ctx.current_function
        if function is None or not _is_batch_function(function.name):
            return
        collection = _element_collection(node.iter)
        if collection is None:
            return
        ctx.report(
            self,
            node,
            f"per-element loop over {collection!r} inside batch function "
            f"{function.name}(); vectorize it as an array expression, or "
            "mark it '# repro-lint: disable=PERF001' with a reason if the "
            "scalar walk is intentional",
        )


def _is_batch_function(name: str) -> bool:
    return any(
        name.endswith(suffix) and len(name) > len(suffix)
        for suffix in BATCH_SUFFIXES
    )


def _element_collection(iterable: ast.AST) -> Optional[str]:
    """The element-collection name a loop iterates, if any.

    Sees through ``enumerate(...)``, ``zip(...)``, ``reversed(...)``,
    and trailing attribute/subscript accesses (``self.pairs``,
    ``pairs[1:]``), so common loop shapes all resolve to the underlying
    collection name.
    """
    for name in _candidate_names(iterable):
        if name.lower() in ELEMENT_COLLECTIONS:
            return name
    return None


def _candidate_names(node: ast.AST) -> Tuple[str, ...]:
    if isinstance(node, ast.Call):
        target = node.func
        if isinstance(target, ast.Name) and target.id in (
            "enumerate",
            "zip",
            "reversed",
            "sorted",
        ):
            names: Tuple[str, ...] = ()
            for arg in node.args:
                names += _candidate_names(arg)
            return names
        return ()
    if isinstance(node, ast.Subscript):
        return _candidate_names(node.value)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.Name):
        return (node.id,)
    return ()
