"""The Speedchecker-like measurement platform.

Models the operational quirks the paper had to work around (section 3.3):

- probes are transient: only a fraction of the fleet is connected at any
  snapshot, and the connected set churns between snapshots;
- experiments cannot pin probes; a per-region selection API picks from
  whatever is currently connected;
- a daily measurement quota refreshes at the end of each day;
- a self-imposed rate limit bounds requests per minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SimulationConfig
from repro.platforms.probe import Probe


class QuotaExhausted(RuntimeError):
    """Raised when a measurement request exceeds the daily budget."""


@dataclass
class VPSnapshot:
    """One connected-VP inventory record (the paper logged these 4-hourly)."""

    day: int
    hour: int
    probe_ids: List[str]
    #: Lazily-built id set, shared by every per-country membership scan
    #: against this snapshot.
    _id_set: Optional[frozenset] = field(default=None, repr=False, compare=False)

    @property
    def probe_id_set(self) -> frozenset:
        if self._id_set is None:
            self._id_set = frozenset(self.probe_ids)
        return self._id_set


class SpeedcheckerPlatform:
    """A fleet of Android probes with churn, quota and regional selection."""

    name = "speedchecker"

    def __init__(self, probes: Sequence[Probe], config: SimulationConfig, rng: np.random.Generator):
        self._probes: List[Probe] = list(probes)
        self._by_id: Dict[str, Probe] = {p.probe_id: p for p in self._probes}
        self._by_country: Dict[str, List[Probe]] = {}
        for probe in self._probes:
            self._by_country.setdefault(probe.country, []).append(probe)
        self._config = config
        self._rng = rng
        self._availability = np.array(
            [probe.availability for probe in self._probes], dtype=np.float64
        )
        self._daily_quota = config.scaled(
            config.platforms.speedchecker_daily_quota, minimum=50
        )
        self._used_today = 0

    # -- fleet inventory ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._probes)

    @property
    def probes(self) -> List[Probe]:
        return list(self._probes)

    def probe(self, probe_id: str) -> Probe:
        try:
            return self._by_id[probe_id]
        except KeyError:
            raise KeyError(f"unknown probe id {probe_id!r}") from None

    def probes_in_country(self, iso: str) -> List[Probe]:
        return list(self._by_country.get(iso, []))

    def countries(self) -> List[str]:
        return sorted(self._by_country)

    def countries_with_at_least(self, minimum: int) -> List[str]:
        """Countries that clear the probe-count bar for the cycle."""
        return sorted(
            iso
            for iso, probes in self._by_country.items()
            if len(probes) >= minimum
        )

    # -- connectivity churn --------------------------------------------------

    def snapshot(
        self, day: int, hour: int, rng: Optional[np.random.Generator] = None
    ) -> VPSnapshot:
        """The currently-connected probe set (4-hourly API sweep).

        One vectorized availability draw covers the whole fleet instead
        of one scalar draw per probe.  ``rng`` overrides the platform's
        churn stream -- checkpointed campaigns pass a per-day generator
        so a day's connected set does not depend on earlier days.
        """
        draws = (rng if rng is not None else self._rng).random(
            len(self._probes)
        )
        connected = [
            self._probes[i].probe_id
            for i in np.flatnonzero(draws < self._availability)
        ]
        return VPSnapshot(day=day, hour=hour, probe_ids=connected)

    def connected_in_country(
        self, iso: str, snapshot: VPSnapshot
    ) -> List[Probe]:
        connected = snapshot.probe_id_set
        return [
            probe
            for probe in self._by_country.get(iso, [])
            if probe.probe_id in connected
        ]

    # -- selection and quota ---------------------------------------------------

    def select_probes(
        self,
        iso: str,
        snapshot: VPSnapshot,
        count: int,
        pool: Optional[List[Probe]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Probe]:
        """The platform's in-built per-region probe selection.

        Returns up to ``count`` connected probes in the country, chosen by
        the platform (the experimenter cannot pin specific devices).
        ``pool`` lets a caller that already scanned the country's
        connected probes skip the second membership pass.  ``rng``
        overrides the platform's selection stream (checkpointed
        campaigns pass a per-day generator).
        """
        if pool is None:
            pool = self.connected_in_country(iso, snapshot)
        if len(pool) <= count:
            return pool
        picks = (rng if rng is not None else self._rng).choice(
            len(pool), size=count, replace=False
        )
        return [pool[int(i)] for i in picks]

    @property
    def daily_quota(self) -> int:
        return self._daily_quota

    @property
    def remaining_quota(self) -> int:
        return self._daily_quota - self._used_today

    def charge(self, requests: int = 1) -> None:
        """Charge ``requests`` API calls against today's budget."""
        if requests < 0:
            raise ValueError("requests must be non-negative")
        if self._used_today + requests > self._daily_quota:
            raise QuotaExhausted(
                f"daily quota of {self._daily_quota} requests exhausted"
            )
        self._used_today += requests

    def charge_up_to(self, requests: int) -> int:
        """Charge as many of ``requests`` as the budget allows.

        Returns the number actually granted (possibly zero).  Campaign
        units use this to degrade gracefully when the quota runs out
        mid-unit -- the granted prefix is kept and journaled as partial
        instead of losing the whole unit.
        """
        if requests < 0:
            raise ValueError("requests must be non-negative")
        granted = min(requests, self.remaining_quota)
        self._used_today += granted
        return granted

    def refresh_quota(self) -> None:
        """Reset the daily budget (called at each simulated midnight)."""
        self._used_today = 0
