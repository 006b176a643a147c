"""Tests for WAN ingress locality (section 6.2)."""

import numpy as np

from repro.analysis.ingress import ingress_by_interconnect, ingress_depths


class TestIngressDepth:
    def test_direct_paths_ingress_near_user(self, resolved_traces):
        stats = ingress_by_interconnect(resolved_traces)
        assert "direct" in stats and "intermediate" in stats
        assert (
            stats["direct"].mean_ingress_depth
            < stats["intermediate"].mean_ingress_depth
        )

    def test_direct_ingress_in_first_half(self, resolved_traces):
        stats = ingress_by_interconnect(resolved_traces)
        assert stats["direct"].median_ingress_depth < 0.5

    def test_transit_ingress_in_second_half(self, resolved_traces):
        stats = ingress_by_interconnect(resolved_traces)
        assert stats["intermediate"].median_ingress_depth > 0.5

    def test_depth_bounds(self, resolved_traces):
        depths = ingress_depths(resolved_traces)
        measured = depths[~np.isnan(depths)]
        assert measured.size
        assert ((0.0 <= measured) & (measured <= 1.0)).all()

    def test_min_traces_filter(self, resolved_traces):
        stats = ingress_by_interconnect(resolved_traces, min_traces=10**9)
        assert stats == {}
