"""The measurement engine: ping and traceroute over planned paths."""

from __future__ import annotations

import typing
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.core.config import SimulationConfig
from repro.lastmile.base import AccessKind, LastMileModel
from repro.lastmile.models import CellularLastMile, HomeWifiLastMile, WiredLastMile
from repro.measure.batch import execute_ping_batch, execute_traceroute_batch
from repro.measure.path import PathPlanner, PlannedPath
from repro.measure.requests import PingRequests, TraceRequests
from repro.measure.results import PingBlock, TraceBlock
from repro.platforms.probe import Probe

#: Bound on the per-(probe, access) last-mile model cache.  A full-scale
#: fleet has >100k probes; without a bound a year-long campaign would
#: hold one model object per probe x access medium forever.  Eviction is
#: FIFO: the oldest entry is dropped once the bound is hit.
LASTMILE_CACHE_MAX = 65_536


class BatchEngine(typing.Protocol):
    """The batch-execution surface campaign units depend on.

    Structural, so the resilient runner can hand units either a real
    :class:`MeasurementEngine` or a fault-injecting wrapper
    (:class:`repro.faults.injectors.FaultyEngine`) without the unit code
    knowing the difference.
    """

    def ping_batch(
        self,
        requests: PingRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock: ...

    def traceroute_batch(
        self,
        requests: TraceRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock: ...


class MeasurementEngine:
    """Executes pings and traceroutes for probes against cloud regions."""

    def __init__(
        self,
        planner: PathPlanner,
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        self._planner = planner
        self._config = config
        self._rng = rng
        self._lastmile_cache: Dict[Tuple[str, AccessKind], LastMileModel] = {}

    # -- wiring (used by the batch executors) --------------------------------

    @property
    def planner(self) -> PathPlanner:
        return self._planner

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    # -- last mile -----------------------------------------------------------

    def lastmile_model(
        self, probe: Probe, access: Optional[AccessKind] = None
    ) -> LastMileModel:
        """The (cached) last-mile model for a probe's access medium."""
        access = access if access is not None else probe.access
        key = (probe.probe_id, access)
        model = self._lastmile_cache.get(key)
        if model is not None:
            return model
        last_mile = self._config.last_mile
        quality = probe.quality * last_mile.country_quality.get(probe.country, 1.0)
        if access is AccessKind.HOME_WIFI:
            model = HomeWifiLastMile(config=last_mile, quality=quality)
        elif access is AccessKind.CELLULAR:
            model = CellularLastMile(config=last_mile, quality=quality)
        else:
            model = WiredLastMile(config=last_mile, quality=quality)
        if len(self._lastmile_cache) >= LASTMILE_CACHE_MAX:
            self._lastmile_cache.pop(next(iter(self._lastmile_cache)))
        self._lastmile_cache[key] = model
        return model

    # -- measurement ---------------------------------------------------------

    def ping_batch(
        self,
        requests: PingRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        """Execute a whole ping request batch in one vectorized pass.

        Every noise process is drawn as NumPy arrays over all samples of
        all requests at once.  Returns a columnar :class:`PingBlock`, one
        row per request in block order; feed it to
        :meth:`MeasurementDataset.add_ping_block`.  ``rng`` overrides the
        engine's stream (used by checkpointed campaign units and the
        focused studies).
        """
        return execute_ping_batch(self, requests, rng=rng)

    def traceroute_batch(
        self,
        requests: TraceRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        """Execute a whole traceroute batch in one vectorized pass.

        Every hop of every trace is sampled as flat NumPy arrays.  Home
        probes behind a NAT expose their router as a private-address
        first hop; cellular (and artifact) probes hit the ISP directly
        -- the signal the paper's home/cell classifier keys on.  Returns
        a columnar :class:`TraceBlock`, one row per request in block
        order; feed it to :meth:`MeasurementDataset.add_trace_block`.
        ``rng`` overrides the engine's stream (used by checkpointed
        campaign units and the focused studies).
        """
        return execute_traceroute_batch(self, requests, rng=rng)

    # -- introspection -------------------------------------------------------------

    def planned_path(self, probe: Probe, region: CloudRegion) -> PlannedPath:
        """The (cached) planned path -- ground truth for validation tests."""
        return self._planner.plan(probe, region)
