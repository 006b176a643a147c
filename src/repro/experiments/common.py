"""Shared experiment infrastructure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.analysis.nearest import NearestMap, nearest_by_probe
from repro.measure.results import MeasurementDataset, Protocol
from repro.resolve.pipeline import ResolvedTraceBlock, TracerouteResolver


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

    Resolving every traceroute and estimating nearest datacenters are the
    two expensive steps of the pipeline; experiments sharing a dataset
    should share a context so those run once.
    """

    def __init__(self, world, dataset: MeasurementDataset, rib_coverage: float = 0.97):
        self.world = world
        self.dataset = dataset
        self._rib_coverage = rib_coverage
        self._resolver: Optional[TracerouteResolver] = None
        self._resolved: Optional[ResolvedTraceBlock] = None
        self._nearest: Dict[str, NearestMap] = {}

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
