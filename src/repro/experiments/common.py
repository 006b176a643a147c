"""Shared experiment infrastructure."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.analysis.nearest import NearestMap, nearest_by_probe
from repro.measure.results import MeasurementDataset, Protocol
from repro.resolve.pipeline import ResolvedTraceBlock, TracerouteResolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netfaults.plan import NetworkFaultPlan
    from repro.store.warehouse import DatasetStore


@dataclass
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment_id: str
    title: str
    body: str
    data: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """The regenerated table/figure as text."""
        header = f"== {self.experiment_id}: {self.title} =="
        return f"{header}\n{self.body}"


class StudyContext:
    """Caches derived artifacts shared across experiments.

    Resolving every traceroute, estimating nearest datacenters and the
    dynamic-topology experiments' netfault campaign are the expensive
    steps of the pipeline; experiments sharing a dataset should share a
    context so those run once.
    """

    def __init__(self, world, dataset: MeasurementDataset, rib_coverage: float = 0.97):
        self.world = world
        self.dataset = dataset
        self._rib_coverage = rib_coverage
        self._resolver: Optional[TracerouteResolver] = None
        self._resolved: Optional[ResolvedTraceBlock] = None
        self._nearest: Dict[str, NearestMap] = {}
        self._netfault: Optional[Tuple["NetworkFaultPlan", "DatasetStore"]] = None
        self._netfault_dir: Optional[tempfile.TemporaryDirectory] = None

    @property
    def resolver(self) -> TracerouteResolver:
        if self._resolver is None:
            self._resolver = TracerouteResolver(
                self.world.topology.registry,
                self.world.topology.ixps,
                rib_coverage=self._rib_coverage,
                rng=self.world.rngs.fork("resolver", 0),
            )
        return self._resolver

    @property
    def resolved_traces(self) -> ResolvedTraceBlock:
        """Every traceroute of the dataset, resolved (cached)."""
        if self._resolved is None:
            self._resolved = self.resolver.resolve_dataset(self.dataset)
        return self._resolved

    def resolve(self, dataset: MeasurementDataset) -> ResolvedTraceBlock:
        """Resolve an auxiliary dataset (e.g. a peering case study)."""
        return self.resolver.resolve_dataset(dataset)

    @property
    def netfault_study(self) -> Tuple["NetworkFaultPlan", "DatasetStore"]:
        """(plan, store) of the campaign the dynamic-topology experiments
        query, run once (cached) into a temporary directory the context
        owns until it is garbage collected."""
        if self._netfault is None:
            from repro.experiments.netfault_exp import netfault_study

            plan, self._netfault_dir, store = netfault_study(self.world)
            self._netfault = (plan, store)
        return self._netfault

    def nearest(self, platform: str) -> NearestMap:
        """Per-probe nearest-DC map for a platform (cached)."""
        if platform not in self._nearest:
            self._nearest[platform] = nearest_by_probe(
                self.dataset, platform, Protocol.TCP
            )
        return self._nearest[platform]


def require_dataset(dataset: Optional[MeasurementDataset], experiment_id: str):
    if dataset is None:
        raise ValueError(
            f"experiment {experiment_id!r} needs a measurement dataset; "
            "run repro.run_campaign first"
        )
    return dataset
