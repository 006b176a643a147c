"""Tests for repro.analysis.stats."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    BoxStats,
    cdf_points,
    coefficient_of_variation,
    fraction_below,
    median,
    percentile,
    required_sample_size,
)
from repro.experiments import run_experiment

sample_lists = st.lists(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    min_size=2,
    max_size=60,
)


class TestBoxStats:
    def test_known_values(self):
        stats = BoxStats.from_samples([1, 2, 3, 4, 5])
        assert stats.count == 5
        assert stats.minimum == 1
        assert stats.median == 3
        assert stats.maximum == 5
        assert stats.iqr == stats.q3 - stats.q1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BoxStats.from_samples([])

    def test_render(self):
        text = BoxStats.from_samples([1.0, 2.0]).render()
        assert "med=" in text and "n=2" in text

    @given(sample_lists)
    @settings(max_examples=50)
    def test_ordering_invariant(self, samples):
        stats = BoxStats.from_samples(samples)
        assert (
            stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        )


class TestPercentile:
    def test_median_alias(self):
        assert median([1, 2, 3]) == percentile([1, 2, 3], 50)

    def test_extremes(self):
        assert percentile([5, 1, 9], 0) == 1
        assert percentile([5, 1, 9], 100) == 9

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="percentile"):
            percentile([1], 101)


class TestCv:
    def test_constant_samples_have_zero_cv(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        samples = [10.0, 20.0]
        expected = np.std(samples) / np.mean(samples)
        assert coefficient_of_variation(samples) == pytest.approx(expected)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            coefficient_of_variation([1.0])

    def test_positive_mean_required(self):
        with pytest.raises(ValueError, match="positive mean"):
            coefficient_of_variation([-1.0, 1.0])

    @given(sample_lists, st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50)
    def test_scale_invariance(self, samples, factor):
        base = coefficient_of_variation(samples)
        scaled = coefficient_of_variation([s * factor for s in samples])
        assert scaled == pytest.approx(base, rel=1e-6, abs=1e-9)


class TestFractionBelow:
    def test_known(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5

    def test_strict_inequality(self):
        assert fraction_below([3.0], 3.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fraction_below([], 1.0)


@pytest.fixture()
def without_scipy(monkeypatch):
    """Make every ``import scipy...`` fail, as on a numpy-only install."""
    names = [name for name in sys.modules if name.split(".")[0] == "scipy"]
    for name in set(names) | {"scipy", "scipy.special"}:
        monkeypatch.setitem(sys.modules, name, None)


class TestRequiredSampleSize:
    def test_paper_parameters_give_2401(self):
        # Paper section 3.3: 95% confidence, 2% margin => >2400.
        assert required_sample_size(0.95, 0.02) == 2401

    def test_needs_only_declared_dependencies(self, without_scipy, world, dataset):
        with pytest.raises(ImportError):
            import scipy.special  # noqa: F401
        assert required_sample_size(0.95, 0.02) == 2401
        assert required_sample_size(0.95, 0.05) == 385
        assert required_sample_size(0.99, 0.02) == 4147
        result = run_experiment("stats", world, dataset)
        assert result.data["paper_requirement"] == 2401

    def test_wider_margin_needs_fewer(self):
        assert required_sample_size(0.95, 0.05) < required_sample_size(0.95, 0.02)

    def test_higher_confidence_needs_more(self):
        assert required_sample_size(0.99, 0.02) > required_sample_size(0.95, 0.02)

    def test_worst_case_proportion_is_half(self):
        assert required_sample_size(0.95, 0.02, 0.5) >= required_sample_size(
            0.95, 0.02, 0.3
        )

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            required_sample_size(confidence=bad)
        with pytest.raises(ValueError):
            required_sample_size(margin_of_error=bad)
        with pytest.raises(ValueError):
            required_sample_size(population_proportion=bad)


class TestCdfPoints:
    def test_monotone_and_complete(self):
        points = cdf_points([3.0, 1.0, 2.0])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == 1.0
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cdf_points([])
