"""Tests for temporal stability analysis and the congestion cycle."""

import numpy as np
import pytest

from helpers import dataset_of, make_ping

from repro.analysis.temporal import temporal_report
from repro.core.config import SimulationConfig
from repro.measure.latency import congestion_cycle_multiplier
from repro.measure.results import MeasurementDataset


class TestCongestionCycle:
    def test_weekdays_more_congested(self):
        config = SimulationConfig()
        weekday = congestion_cycle_multiplier(0, config)
        weekend = congestion_cycle_multiplier(5, config)
        assert weekday > 1.0 > weekend

    def test_weekly_periodicity(self):
        config = SimulationConfig()
        for day in range(14):
            assert congestion_cycle_multiplier(day, config) == (
                congestion_cycle_multiplier(day + 7, config)
            )

    def test_weekend_days_are_five_and_six(self):
        config = SimulationConfig()
        multipliers = [congestion_cycle_multiplier(d, config) for d in range(7)]
        weekend = config.path_model.weekend_congestion_multiplier
        assert multipliers.count(weekend) == 2
        assert multipliers[5] == multipliers[6] == weekend


class TestTemporalReport:
    def make_dataset(self):
        measurements = []
        for day in range(14):
            base = 40.0 if day % 7 not in (5, 6) else 34.0
            for i in range(8):
                measurements.append(
                    make_ping(
                        [base + i * 0.5, base + i * 0.5 + 1.0, base, base + 2.0],
                        probe_id=f"p{i}",
                        day=day,
                    )
                )
        return dataset_of(*measurements)

    def test_daily_medians(self):
        report = temporal_report(self.make_dataset(), min_samples_per_day=8)
        assert report.day_count == 14
        assert report.daily_median_ms[0] > report.daily_median_ms[5]

    def test_weekend_gain(self):
        report = temporal_report(self.make_dataset(), min_samples_per_day=8)
        assert report.weekend_gain is not None
        assert report.weekend_gain == pytest.approx(1 - 35.75 / 41.75, abs=0.02)

    def test_day_to_day_cv_small_for_stable_series(self):
        report = temporal_report(self.make_dataset(), min_samples_per_day=8)
        assert report.day_to_day_cv < 0.2

    def test_thin_days_dropped(self):
        dataset = self.make_dataset()
        dataset.add_ping(make_ping([500.0], day=99))
        report = temporal_report(dataset, min_samples_per_day=8)
        assert 99 not in report.daily_median_ms

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no day"):
            temporal_report(MeasurementDataset())


class TestCampaignTemporalBehaviour:
    def test_weekends_measurably_calmer(self, world, dataset):
        """The weekly congestion cycle should surface in a real campaign:
        the tail (P95 over daily samples) is heavier on weekdays."""
        per_bucket = {"weekday": [], "weekend": []}
        for ping in dataset.pings(platform="speedchecker"):
            bucket = "weekend" if ping.meta.day % 7 in (5, 6) else "weekday"
            per_bucket[bucket].extend(ping.samples)
        if not per_bucket["weekend"]:
            pytest.skip("campaign too short to include a weekend")
        weekday_tail = np.percentile(per_bucket["weekday"], 97)
        weekend_tail = np.percentile(per_bucket["weekend"], 97)
        # Direction only: congestion episodes are rare, so the contrast
        # is visible in the far tail rather than the median.
        assert weekend_tail < weekday_tail * 1.25

    def test_access_switch_artifact_rate(self, world, resolved_traces):
        """Mid-measurement WiFi/cellular switches plus CGN artifacts put
        the home/cell misclassification rate in the low single digits."""
        from repro.lastmile.base import AccessKind
        from repro.resolve.pipeline import CELL, HOME

        inferred = resolved_traces.inferred_access
        classified = (
            resolved_traces.probe_column("platform") == "speedchecker"
        ) & (inferred >= 0)
        truth = np.where(
            resolved_traces.probe_column("access") == AccessKind.HOME_WIFI.value,
            HOME,
            CELL,
        )
        wrong = int((classified & (inferred != truth)).sum())
        agree = int((classified & (inferred == truth)).sum())
        rate = wrong / max(1, wrong + agree)
        assert 0.005 < rate < 0.10
