"""Frozen-world safety (``FRZ001``, ``FRZ002``).

A :class:`~repro.core.world.World` is built once and then shared across
campaigns, caches, and batch engines; mutating it mid-campaign
desynchronizes every component that captured it.  A ``PlannedPath`` is
a view of one row of the planner's path table, which the batch engines
sample directly, so a mutated view silently disagrees with what was
measured.  Attribute assignment on these types is therefore only legal
inside the types themselves and in their builder functions
(``FRZ001``).

The AS-level relationship graphs underneath a ``Topology`` are equally
shared -- planner route caches, epoch views, and parity oracles all
hold references to the same :class:`RelationshipGraph` objects.  Under
dynamic topology the only legal way to change routing is the
epoch-transition API (``NetworkFaultPlan.view`` /
``EpochTopologyView`` / ``RelationshipGraph.without_edges``), which
derives a *new* immutable view instead of editing the shared graph in
place.  ``FRZ002`` flags direct edge mutation (``add_customer_provider``
/ ``add_peering`` calls, or pokes at the private adjacency tables)
outside graph construction: the graph class itself, the topology
builders in ``repro.net`` / ``repro.core.topology``, the
``repro.netfaults`` package, ``build_*`` functions, and tests.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.lint.engine import LintContext, Rule, register_rule

#: Class names whose instances must not be mutated after construction.
FROZEN_TYPES = frozenset({"World", "PlannedPath"})

#: Variable names assumed (absent stronger evidence) to hold frozen
#: instances -- the idiomatic names used across the tree.
FROZEN_NAME_HINTS: Dict[str, str] = {
    "world": "World",
    "planned_path": "PlannedPath",
}

#: Constructor / factory calls whose result is a frozen instance.
FROZEN_FACTORIES: Dict[str, str] = {
    "World": "World",
    "PlannedPath": "PlannedPath",
    "build_world": "World",
}


@register_rule
class FrozenMutationRule(Rule):
    """No attribute assignment on World / PlannedPath after construction."""

    rule_id = "FRZ001"
    name = "frozen-world-mutation"
    summary = (
        "World / PlannedPath objects are frozen after construction; "
        "no attribute assignment outside their class or build_* functions"
    )
    node_types = (ast.Assign, ast.AugAssign, ast.AnnAssign)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        targets: list
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return
        for target in targets:
            for attr in self._attribute_targets(target):
                frozen_type = self._frozen_receiver_type(attr.value, ctx)
                if frozen_type is None:
                    continue
                if self._in_allowed_context(frozen_type, ctx):
                    continue
                ctx.report(
                    self,
                    attr,
                    f"assignment to attribute '{attr.attr}' of a "
                    f"{frozen_type} instance; {frozen_type} objects are "
                    "frozen once built (mutate only in the class itself "
                    "or a build_* function)",
                )

    @staticmethod
    def _attribute_targets(target: ast.AST) -> list:
        """Attribute nodes assigned to within a (possibly nested) target."""
        if isinstance(target, ast.Attribute):
            return [target]
        if isinstance(target, (ast.Tuple, ast.List)):
            found = []
            for element in target.elts:
                found.extend(FrozenMutationRule._attribute_targets(element))
            return found
        if isinstance(target, ast.Starred):
            return FrozenMutationRule._attribute_targets(target.value)
        return []

    def _in_allowed_context(self, frozen_type: str, ctx: LintContext) -> bool:
        current_class = ctx.current_class
        if current_class is not None and current_class.name in FROZEN_TYPES:
            return True
        for name in ctx.enclosing_function_names():
            if name.startswith("build") or name.startswith("_build"):
                return True
            if name.endswith("_builder") or name.endswith("builder"):
                return True
        return False

    def _frozen_receiver_type(
        self, receiver: ast.AST, ctx: LintContext
    ) -> Optional[str]:
        """The frozen type a receiver expression statically holds, if any.

        Evidence, strongest first: a parameter or variable annotation
        naming the type, assignment from a known factory call, then the
        idiomatic-variable-name hint.
        """
        if not isinstance(receiver, ast.Name):
            return None
        name = receiver.id
        function = ctx.current_function
        if function is not None:
            annotated = _annotation_type(function, name)
            if annotated is not None:
                return annotated if annotated in FROZEN_TYPES else None
            assigned = _assignment_type(function, name)
            if assigned is not None:
                return assigned if assigned in FROZEN_TYPES else None
        return FROZEN_NAME_HINTS.get(name)


#: Methods that mutate a RelationshipGraph's edge set in place.
GRAPH_MUTATORS = frozenset({"add_customer_provider", "add_peering"})

#: Private adjacency state of RelationshipGraph; assignment from outside
#: the class is a topology mutation regardless of the receiver name.
GRAPH_INTERNALS = frozenset({"_providers", "_customers", "_peers", "_adjacency"})

#: Paths where in-place edge construction is legal: the graph type
#: itself and the routing substrate, the scoped-graph assembly in the
#: topology builder, and the epoch-transition package.
GRAPH_MUTATION_PATHS = (
    "*/repro/net/*",
    "*/repro/core/topology.py",
    "*/repro/netfaults/*",
)


@register_rule
class TopologyMutationRule(Rule):
    """Topology edges change only through the epoch-transition API."""

    rule_id = "FRZ002"
    name = "topology-mutation-outside-epoch-api"
    summary = (
        "relationship-graph edges are frozen once the topology is built; "
        "derive routing changes through the epoch-transition API "
        "(NetworkFaultPlan.view / EpochTopologyView / without_edges)"
    )
    node_types = (ast.Call, ast.Assign, ast.AugAssign, ast.AnnAssign)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node, ctx)
        else:
            self._visit_assign(node, ctx)

    # -- mutator calls -----------------------------------------------------

    def _visit_call(self, node: ast.Call, ctx: LintContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in GRAPH_MUTATORS:
            return
        if self._receiver_contradicts_graph(func.value, ctx):
            return
        if self._in_allowed_context(ctx):
            return
        ctx.report(
            self,
            node,
            f"in-place edge mutation '{func.attr}' on a shared "
            "relationship graph; campaign-time topology changes must go "
            "through the epoch-transition API (NetworkFaultPlan.view / "
            "EpochTopologyView) or RelationshipGraph.without_edges",
        )

    # -- private-state pokes ----------------------------------------------

    def _visit_assign(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return
        for target in targets:
            for attr in FrozenMutationRule._attribute_targets(target):
                if attr.attr not in GRAPH_INTERNALS:
                    continue
                if self._in_allowed_context(ctx):
                    continue
                ctx.report(
                    self,
                    attr,
                    f"assignment to RelationshipGraph internal "
                    f"'{attr.attr}'; adjacency state is frozen outside "
                    "the graph class -- derive a changed topology with "
                    "without_edges or an EpochTopologyView instead",
                )

    # -- context and evidence ---------------------------------------------

    def _in_allowed_context(self, ctx: LintContext) -> bool:
        if ctx.is_test_file:
            return True
        if ctx.path_matches(GRAPH_MUTATION_PATHS):
            return True
        current_class = ctx.current_class
        if current_class is not None and current_class.name == "RelationshipGraph":
            return True
        for name in ctx.enclosing_function_names():
            if name.startswith("build") or name.startswith("_build"):
                return True
        return False

    def _receiver_contradicts_graph(
        self, receiver: ast.AST, ctx: LintContext
    ) -> bool:
        """Whether the receiver is annotated as a non-graph type.

        The mutator names are unique to :class:`RelationshipGraph`
        across the tree, so the method name itself is the evidence; an
        explicit annotation naming a different type is the only escape.
        """
        if not isinstance(receiver, ast.Name):
            return False
        function = ctx.current_function
        if function is None:
            return False
        annotated = _annotation_type(function, receiver.id)
        return annotated is not None and annotated != "RelationshipGraph"


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation refers to (handles Optional["World"])."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        outer = _annotation_name(annotation.value)
        if outer == "Optional":
            return _annotation_name(annotation.slice)
        return outer
    return None


def _annotation_type(func: ast.AST, name: str) -> Optional[str]:
    """The annotated type of ``name`` inside ``func`` (params and AnnAssign)."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = func.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg == name:
            return _annotation_name(arg.annotation)
    for node in ast.walk(func):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            return _annotation_name(node.annotation)
    return None


def _assignment_type(func: ast.AST, name: str) -> Optional[str]:
    """The frozen type ``name`` is assigned from a known factory, if any."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            callee = value.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute) else None
            )
            if callee_name in FROZEN_FACTORIES:
                return FROZEN_FACTORIES[callee_name]
    return None
