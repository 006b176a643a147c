"""Tests for repro.lastmile."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LastMileConfig
from repro.lastmile.base import AccessKind, LastMileDraw, lognormal_ms
from repro.lastmile.models import CellularLastMile, HomeWifiLastMile, WiredLastMile


@pytest.fixture
def config():
    return LastMileConfig()


class TestLastMileDraw:
    def test_total_is_sum(self):
        draw = LastMileDraw(air_ms=10.0, wire_ms=5.0)
        assert draw.total_ms == 15.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LastMileDraw(air_ms=-1.0, wire_ms=0.0)


class TestAccessKind:
    def test_wireless_classification(self):
        assert AccessKind.HOME_WIFI.is_wireless
        assert AccessKind.CELLULAR.is_wireless
        assert not AccessKind.WIRED.is_wireless


class TestLognormal:
    def test_positive(self, rng):
        assert lognormal_ms(10.0, 0.5, rng) > 0

    def test_median_property(self, rng):
        draws = [lognormal_ms(20.0, 0.5, rng) for _ in range(4000)]
        assert np.median(draws) == pytest.approx(20.0, rel=0.06)

    def test_zero_sigma_is_constant(self, rng):
        assert lognormal_ms(7.0, 0.0, rng) == 7.0

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError, match="median"):
            lognormal_ms(0.0, 0.5, rng)
        with pytest.raises(ValueError, match="sigma"):
            lognormal_ms(5.0, -0.1, rng)

    @given(st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=30)
    def test_scales_with_median(self, median):
        rng = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        a = lognormal_ms(median, 0.4, rng)
        b = lognormal_ms(2 * median, 0.4, rng2)
        assert b == pytest.approx(2 * a)


class TestHomeWifi:
    def test_has_both_segments(self, config, rng):
        draw = HomeWifiLastMile(config=config).draw(rng)
        assert draw.air_ms > 0 and draw.wire_ms > 0

    def test_median_total_near_paper_range(self, config, rng):
        model = HomeWifiLastMile(config=config)
        draws = [model.draw(rng).total_ms for _ in range(3000)]
        # Paper Fig. 7b: wireless medians ~20-25 ms.
        assert 16.0 <= np.median(draws) <= 28.0

    def test_cv_near_half(self, config, rng):
        model = HomeWifiLastMile(config=config)
        draws = np.array([model.draw(rng).total_ms for _ in range(4000)])
        cv = draws.std() / draws.mean()
        assert 0.35 <= cv <= 0.95  # paper Fig. 8: median Cv ~0.5

    def test_quality_scales_median(self, config, rng):
        fast = HomeWifiLastMile(config=config, quality=0.5)
        assert fast.median_total_ms() == pytest.approx(
            0.5 * HomeWifiLastMile(config=config).median_total_ms()
        )


class TestCellular:
    def test_no_wire_segment(self, config, rng):
        draw = CellularLastMile(config=config).draw(rng)
        assert draw.wire_ms == 0.0
        assert draw.air_ms > 0

    def test_median_near_paper_range(self, config, rng):
        model = CellularLastMile(config=config)
        draws = [model.draw(rng).total_ms for _ in range(3000)]
        assert 16.0 <= np.median(draws) <= 28.0

    def test_similar_to_wifi(self, config, rng):
        # Paper: WiFi and cellular behave alike at the last mile.
        wifi = np.median(
            [HomeWifiLastMile(config=config).draw(rng).total_ms for _ in range(3000)]
        )
        cell = np.median(
            [CellularLastMile(config=config).draw(rng).total_ms for _ in range(3000)]
        )
        assert abs(wifi - cell) / wifi < 0.35


class TestWired:
    def test_no_air_segment(self, config, rng):
        draw = WiredLastMile(config=config).draw(rng)
        assert draw.air_ms == 0.0

    def test_median_near_10ms(self, config, rng):
        model = WiredLastMile(config=config)
        draws = [model.draw(rng).total_ms for _ in range(3000)]
        assert 7.0 <= np.median(draws) <= 12.0

    def test_much_less_variable_than_wireless(self, config, rng):
        wired = np.array(
            [WiredLastMile(config=config).draw(rng).total_ms for _ in range(3000)]
        )
        wifi = np.array(
            [HomeWifiLastMile(config=config).draw(rng).total_ms for _ in range(3000)]
        )
        assert wired.std() / wired.mean() < 0.5 * (wifi.std() / wifi.mean())


class TestModelFor:
    def test_dispatch(self, world):
        probe = world.speedchecker.probes[0]
        lastmile_model = world.engine.lastmile_model
        assert isinstance(lastmile_model(probe, AccessKind.HOME_WIFI), HomeWifiLastMile)
        assert isinstance(lastmile_model(probe, AccessKind.CELLULAR), CellularLastMile)
        assert isinstance(lastmile_model(probe, AccessKind.WIRED), WiredLastMile)

    def test_country_quality_applied(self, world):
        probe = world.speedchecker.probes[0]
        china = replace(probe, probe_id="quality-cn", country="CN")
        generic = replace(probe, probe_id="quality-de", country="DE")
        lastmile_model = world.engine.lastmile_model
        assert (
            lastmile_model(china, AccessKind.CELLULAR).median_total_ms()
            < lastmile_model(generic, AccessKind.CELLULAR).median_total_ms()
        )
